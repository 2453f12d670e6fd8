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
)
from .grassmann import (
    PLUCKER_FORM,
    DualFlat,
    PluckerVector,
    ProjFlat,
    dual_plucker,
    sphere_tangent_line_count,
)


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

    def to_numpy(self):
        return self.matrix.to_numpy()


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
    return exterior_power(q.matrix, k + 1)


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
        return sum((p.coords[i] * form[i, j] * p.coords[j]
                    for i in range(form.rows) for j in range(form.cols)), Fraction(0))
    m = form.to_numpy().astype(complex)
    v = np.asarray(p.coords, dtype=complex)
    return row_residuals(v @ m @ v, v, np.linalg.norm(m), 2)[0]


# ---------------------------------------------------------------------------
# line conditions in P^3, compiled to numeric arrays


@dataclass(frozen=True)
class TangentTo:
    """Condition: the line is tangent to the given quadric.  A 4x4
    array-like is made an exact ``Quadric`` when built: ints and Fractions
    as given, floats at their exact binary value, complex entries only with
    a zero imaginary part; a non-finite entry or asymmetry raises ValueError."""

    quadric: Quadric

    degree = 2

    def __post_init__(self):
        if not isinstance(self.quadric, Quadric):
            q = np.asarray(self.quadric)
            entries = [x.real if isinstance(x, complex) and not x.imag else x
                       for x in q.ravel().tolist()]
            if q.shape != (4, 4) or not all(isinstance(x, (int, Fraction)) or
                                            isinstance(x, float) and np.isfinite(x)
                                            for x in entries):
                raise ValueError("tangency condition needs a real finite 4x4 matrix")
            exact = RatMatrix(4, 4, tuple(map(Fraction, entries)))
            object.__setattr__(self, "quadric", Quadric(exact))

    @cached_property
    def form(self) -> np.ndarray:
        """The real 6x6 tangency form: the exact wedge^2 Q, rounded once.
        Computed once per condition and shared read-only."""
        form = tangency_form(self.quadric, 1).to_numpy()
        form.flags.writeable = False
        return form

    @cached_property
    def sphere(self) -> tuple[tuple[Fraction, ...], Fraction] | None:
        """The exact centre c and squared radius r^2 of the sphere
        |x - c|^2 = r^2 when Q is a nonzero multiple k of [[|c|^2 - r^2,
        -c^T], [-c, I]] (scaled and imaginary-radius spheres included), else
        None.  Read from the exact entries, so from the numbers an array
        gave, before any rounding; computed once per condition."""
        rows = self.quadric.matrix.to_rows()
        k = rows[1][1] if len(rows) == 4 else 0
        if k == 0 or any(rows[i][j] != (k if i == j else 0)
                         for i in range(1, 4) for j in range(1, 4)):
            return None
        centre = tuple(-x / k for x in rows[0][1:])
        return centre, sum(x * x for x in centre) - rows[0][0] / k


@dataclass(frozen=True)
class Meets:
    """Condition: the line meets the given line (dual Pluecker hyperplane)."""

    flat: ProjFlat | DualFlat

    degree = 1

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The incidence row, computed once per condition and shared read-only."""
        f = self.flat
        if not isinstance(f, (ProjFlat, DualFlat)):
            raise ValueError("incidence condition needs a line in P^3, "
                             f"got {type(f).__name__}")
        k = f.k if isinstance(f, ProjFlat) else f.n - f.hyperplanes.cols
        if (k, f.n) != (1, 3):
            raise ValueError("incidence condition needs a line in P^3, "
                             f"got a {k}-flat in P^{f.n}")
        if isinstance(f, ProjFlat):
            f = f.dual()
        coefficients = np.array([complex(c) for c in dual_plucker(f).coords])
        coefficients.flags.writeable = False
        return coefficients


@dataclass(frozen=True, eq=False)
class LineConditions:
    """Labeled line conditions compiled once: row i is the polynomial
    v^T quad[i] v + lin[i] . v in the Pluecker coordinates v, and the last
    row is the Pluecker relation itself."""

    labels: tuple            # one per condition, then "plucker"
    quad: np.ndarray         # (m, 6, 6) real, zero for incidence rows
    lin: np.ndarray          # (m, 6) complex, zero for quadratic rows
    scale: np.ndarray        # (m,) norm of each row's coefficients; 1 for plucker
    degree: np.ndarray       # (m,) 2 or 1
    spheres: tuple           # (m,) a sphere tangency's exact (centre, r^2), else None

    @classmethod
    def compile(cls, conditions) -> "LineConditions":
        """Compile ``(label, TangentTo | Meets)`` pairs, in order; a row that
        holds on every line (its coefficients all zero) is a ValueError."""
        conditions = list(conditions)
        m = len(conditions) + 1
        quad = np.zeros((m, 6, 6))
        lin = np.zeros((m, 6), dtype=complex)
        scale, degree, spheres = np.ones(m), np.full(m, 2), [None] * m
        for i, (label, cond) in enumerate(conditions):
            if not isinstance(cond, (TangentTo, Meets)):
                raise TypeError("conditions must be TangentTo or Meets")
            if cond.degree == 2:
                quad[i], spheres[i] = cond.form, cond.sphere
            else:
                lin[i] = cond.coefficients
            scale[i] = np.linalg.norm(quad[i] if cond.degree == 2 else lin[i])
            if scale[i] == 0:
                raise ValueError(f"condition {label} holds on every line: "
                                 "its coefficients are all zero")
            degree[i] = cond.degree
        quad[-1] = PLUCKER_FORM
        labels = tuple(label for label, _ in conditions) + ("plucker",)
        return cls(labels, quad, lin, scale, degree, tuple(spheres))

    @property
    def root_bound(self) -> int:
        """The generic root count of four line conditions: 3 * 2^(n-1) = 12
        when all four are tangencies to spheres (Sottile and Theobald, "Lines
        tangent to 2n-2 spheres in R^n", 2002; ``TangentTo.sphere``,
        read when compiling), else 2^(#tangency) * 2."""
        if len(self.labels) == 5 and None not in self.spheres[:-1]:
            return sphere_tangent_line_count(3)
        return (1 << int(np.sum(self.degree[:-1] == 2))) * 2

    def residual_table(self, vectors) -> np.ndarray:
        """Residuals of an (N, 6) stack of Pluecker vectors as an (N, m)
        table, one column per row, normalized as ``row_residuals`` does.
        Each row of the table has the bits of the one-vector evaluation."""
        v = np.asarray(vectors)
        quad = ((self.quad @ v[:, None, :, None])[..., 0] @ v[:, :, None])[..., 0]
        return row_residuals(quad + (self.lin @ v[:, :, None])[..., 0], v,
                             self.scale, self.degree)


def row_residuals(values, vectors, scale, degree) -> np.ndarray:
    """|values| of polynomial rows at a stack of vectors (..., 6), each
    normalized by its row's coefficient norm ``scale`` and ||v||^degree, so
    it does not depend on the representative: the residual that
    certificates record, ``verify`` bounds and the tracker polishes to."""
    norm = np.sqrt(np.sum(np.abs(vectors) ** 2, axis=-1))[..., None]
    return np.abs(values) / (scale * norm ** degree)


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
