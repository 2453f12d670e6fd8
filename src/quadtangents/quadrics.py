"""Quadric hypersurfaces and the exterior-power tangency test.

A quadric x^T Q x = 0 in P^n is identified with its symmetric representation
matrix Q.  A k-plane is tangent to Q exactly when the restriction of the
quadratic form to the plane is singular, which in Pluecker coordinates is the
single quadratic condition

    p^T (wedge^{k+1} Q) p = 0,

with wedge^{k+1} Q the compound matrix of (k+1)-minors.  Containment of the
plane in the quadric also satisfies this.

For lines in P^3, tangency and incidence conditions are compiled once into
numeric arrays (``LineConditions``): the one numeric form that the tracker,
certificates, their verification and the closed-form check evaluate.

Also here: distance-r cylinder quadrics around affine flats (built exactly
from a rational orthogonal projector) and the smooth low-rank perturbations
used to replace singular cylinders by smooth quadrics of chosen signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactnum import (
    DimensionError,
    RatMatrix,
    ShapeError,
    det,
    exterior_power,
    rank,
    rational,
    signature,
    solve_linear,
    subsets,
)
from .grassmann import PLUCKER_FORM, DualFlat, PluckerVector, ProjFlat, dual_plucker


@dataclass(frozen=True)
class Quadric:
    """Quadric hypersurface in P^n with exact symmetric matrix."""

    matrix: RatMatrix
    label: str | None = None

    def __post_init__(self):
        if not self.matrix.is_symmetric:
            raise ShapeError("quadric matrix must be symmetric")

    @property
    def n(self) -> int:
        return self.matrix.rows - 1

    @cached_property
    def signature(self) -> tuple[int, int, int]:
        """(pos, neg, zero) inertia of the representation matrix."""
        return signature(self.matrix)

    @property
    def rank(self) -> int:
        pos, neg, zero = self.signature
        return pos + neg

    @classmethod
    def from_diagonal(cls, values, label: str | None = None) -> "Quadric":
        return cls(RatMatrix.diagonal(values), label=label)

    def to_numpy(self, dtype=float):
        return self.matrix.to_numpy(dtype)


@dataclass(frozen=True)
class AffineFlat:
    """A k-flat in R^n: a point plus a full-rank n x k direction matrix."""

    point: tuple[Fraction, ...]
    directions: RatMatrix

    def __post_init__(self):
        if len(self.point) != self.directions.rows:
            raise DimensionError("point dimension must match direction rows")
        if rank(self.directions) != self.directions.cols:
            raise DimensionError("direction matrix is rank deficient")

    @classmethod
    def from_point_directions(cls, point, directions) -> "AffineFlat":
        pt = tuple(rational(x) for x in point)
        dirs = RatMatrix.from_rows([list(d) for d in directions]).transpose()
        return cls(pt, dirs)

    @property
    def n(self) -> int:
        return self.directions.rows

    @property
    def k(self) -> int:
        return self.directions.cols

    def to_projective(self) -> ProjFlat:
        """Embed via x -> (1, x): columns (1, point), (0, direction_i)."""
        cols = [[Fraction(1)] + list(self.point)]
        for j in range(self.directions.cols):
            cols.append([Fraction(0)] + list(self.directions.col(j)))
        return ProjFlat(RatMatrix.from_rows(cols).transpose())


# ---------------------------------------------------------------------------
# tangency


def tangency_form(q: Quadric, k: int) -> RatMatrix:
    """The symmetric C(n+1, k+1)-square form wedge^{k+1} Q whose zero set on
    the Grassmannian is the k-planes tangent to Q."""
    if not 0 <= k <= q.n - 1:
        raise DimensionError(f"require 0 <= k <= n-1, got k={k} for n={q.n}")
    form = exterior_power(q.matrix, k + 1)
    assert form.is_symmetric
    return form


def is_tangent(q: Quadric, p: PluckerVector):
    """Tangency residual p^T (wedge^{k+1} Q) p.

    Exact coordinates give an exact rational (zero iff tangent, containment
    included); numeric coordinates give |residual| normalized by
    ||wedge Q||_F * ||p||^2.
    """
    if p.n != q.n:
        raise DimensionError("quadric and Pluecker vector live in different spaces")
    form = tangency_form(q, p.k)
    if form.rows != len(p.coords):
        raise DimensionError("coordinate count does not match tangency form")
    if p.is_exact:
        total = Fraction(0)
        for i in range(form.rows):
            row = form.row(i)
            total = total + p.coords[i] * sum(
                (row[j] * p.coords[j] for j in range(form.cols)), Fraction(0))
        return total
    m = form.to_numpy(float).astype(complex)
    v = np.asarray(p.coords, dtype=complex)
    raw = v @ m @ v
    scale = np.linalg.norm(m) * float(np.linalg.norm(v)) ** 2
    return abs(raw) / scale


# ---------------------------------------------------------------------------
# line conditions in P^3, compiled to numeric arrays


@dataclass(frozen=True)
class TangentTo:
    """Condition: the line is tangent to the given quadric."""

    quadric: object  # Quadric or 4x4 array-like

    degree = 2

    def form(self) -> np.ndarray:
        """The 6x6 tangency form wedge^2 Q: exact, then rounded, for a
        Quadric; in floating point for an array."""
        if isinstance(self.quadric, Quadric):
            return tangency_form(self.quadric, 1).to_numpy(float).astype(complex)
        q = np.asarray(self.quadric, dtype=complex)
        if q.shape != (4, 4) or not np.allclose(q, q.T):
            raise ValueError("tangency condition needs a symmetric 4x4 matrix")
        pairs = subsets(4, 2)
        return np.array([[q[i, k] * q[j, l] - q[i, l] * q[j, k] for k, l in pairs]
                         for i, j in pairs])


@dataclass(frozen=True)
class Meets:
    """Condition: the line meets the given line (dual Pluecker hyperplane)."""

    flat: object  # DualFlat, ProjFlat, or length-6 dual coordinate vector

    degree = 1

    def coefficients(self) -> np.ndarray:
        f = self.flat
        if isinstance(f, ProjFlat):
            f = f.dual()
        if isinstance(f, DualFlat):
            return np.array([complex(c) for c in dual_plucker(f).coords])
        v = np.asarray(f, dtype=complex)
        if v.shape != (6,):
            raise ValueError("incidence condition needs 6 dual coordinates")
        return v


@dataclass(frozen=True, eq=False)
class LineConditions:
    """Labeled line conditions compiled once: row i is the polynomial
    v^T quad[i] v + lin[i] . v in the Pluecker coordinates v, and the last
    row is the Pluecker relation itself."""

    labels: tuple            # one per condition, then "plucker"
    quad: np.ndarray         # (m, 6, 6) complex, zero for incidence rows
    lin: np.ndarray          # (m, 6) complex, zero for quadratic rows
    scale: np.ndarray        # (m,) norm of each row's coefficients; 1 for plucker
    degree: np.ndarray       # (m,) 2 or 1

    @classmethod
    def compile(cls, conditions) -> "LineConditions":
        """Compile ``(label, TangentTo | Meets)`` pairs, in order."""
        conditions = list(conditions)
        m = len(conditions) + 1
        quad = np.zeros((m, 6, 6), dtype=complex)
        lin = np.zeros((m, 6), dtype=complex)
        scale, degree = np.ones(m), np.full(m, 2)
        for i, (_, cond) in enumerate(conditions):
            if not isinstance(cond, (TangentTo, Meets)):
                raise TypeError("conditions must be TangentTo or Meets")
            if cond.degree == 2:
                quad[i] = cond.form()
                scale[i] = np.linalg.norm(quad[i])
            else:
                lin[i] = cond.coefficients()
                scale[i] = np.linalg.norm(lin[i])
            degree[i] = cond.degree
        quad[-1] = PLUCKER_FORM
        labels = tuple(label for label, _ in conditions) + ("plucker",)
        return cls(labels, quad, lin, scale, degree)

    @property
    def root_bound(self) -> int:
        """2^(#tangency) * 2, the generic root count of four line conditions."""
        return (1 << int(np.sum(self.degree[:-1] == 2))) * 2

    def residuals(self, v) -> dict[str, float]:
        """Residual of a Pluecker 6-vector for every row, normalized by the
        row's coefficient norm and ||v||^degree, so it does not depend on
        the representative.  Extended precision input is evaluated as such."""
        v = np.asarray(v)
        norm = np.sqrt(np.sum(np.abs(v) ** 2))
        raw = np.abs((self.quad @ v) @ v + self.lin @ v)
        res = raw / (self.scale * norm ** self.degree)
        return {label: float(r) for label, r in zip(self.labels, res)}


# ---------------------------------------------------------------------------
# cylinders and smooth perturbations


def orthogonal_projector(directions: RatMatrix) -> RatMatrix:
    """Exact orthogonal projector D (D^T D)^{-1} D^T onto a column space."""
    gram = directions.transpose() @ directions
    sol = solve_linear(gram, directions.transpose())
    # Gram matrix of a full-rank D is positive definite, hence invertible
    assert sol.unique
    return directions @ sol.particular


def cylinder(u: AffineFlat, r) -> Quadric:
    """Quadric of points at Euclidean distance r from the affine flat ``u``.

    Homogenized exactly as (x-a)^T (I-P) (x-a) - r^2 with P the orthogonal
    projector onto the direction space, so evaluating the form at an embedded
    point of ``u`` gives -r^2.  Smooth in R^n but singular in P^n.
    """
    r = rational(r)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    n = u.n
    proj = orthogonal_projector(u.directions)
    m = RatMatrix.identity(n) - proj
    a = RatMatrix.column(u.point)
    ma = m @ a
    aa = (a.transpose() @ ma)[0, 0]
    rows = [[aa - r * r] + [-x for x in ma.col(0)]]
    for i in range(n):
        rows.append([-ma[i, 0]] + list(m.row(i)))
    return Quadric(RatMatrix.from_rows(rows))


def perturbed_smooth_quadric(k: int, n: int, r, eps=Fraction(1, 1000)) -> Quadric:
    """Smooth quadric -r^2 x0^2 + x1^2 + .. + x_{k+1}^2 + sum_i eps_i x_i^2.

    The leading part is the limit shape of a distance-r cylinder around an
    (n-k-1)-flat; the eps terms (scalar or per-axis, any nonzero signs) make
    the quadric full rank while staying close to it.  Choosing signs for the
    eps_i sweeps out the reachable signatures.
    """
    if not 1 <= k <= n - 2:
        raise ValueError(f"require 1 <= k <= n-2, got k={k}, n={n}")
    r = rational(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    if isinstance(eps, (list, tuple)):
        eps_list = [rational(e) for e in eps]
        if len(eps_list) != n - k - 1:
            raise DimensionError(f"need {n - k - 1} perturbation entries")
    else:
        eps_list = [rational(eps)] * (n - k - 1)
    if any(e == 0 for e in eps_list):
        raise ValueError("perturbations must be nonzero for a smooth quadric")
    diag = [-r * r] + [Fraction(1)] * (k + 1) + eps_list
    q = Quadric.from_diagonal(diag)
    assert det(q.matrix) != 0
    return q
