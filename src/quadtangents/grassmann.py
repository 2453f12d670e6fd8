"""Pluecker coordinates of k-planes in projective n-space.

A k-plane spanned by the columns of an (n+1) x (k+1) matrix L has Pluecker
coordinate vector p = (p_I), the (k+1) x (k+1) minors of L indexed by the
lex-ordered (k+1)-subsets I of {0, .., n}.  Dually, an (n-k-1)-plane cut out
by k+1 hyperplanes has a dual Pluecker vector built from the minors of the
hyperplane-coefficient matrix.  A k-plane U meets an (n-k-1)-plane V exactly
when the dot product of p(U) and q(V) vanishes (Cauchy-Binet applied to the
product of the two matrices), which makes incidence a linear condition on p.

The image of the minor map is cut out by the quadratic exchange relations;
for lines in P^3 there is a single relation

    p01*p23 - p02*p13 + p03*p12 = 0,

so the Grassmannian of lines is a quadric hypersurface in P^5.

This module keeps everything exact: coordinates are rationals, or elements of
a quadratic extension Q(sqrt(d)) when a transversal problem forces one square
root.  Counting utilities (dimension and degree of the Grassmannian, Catalan
numbers) use arbitrary-precision integers.  Numeric helpers: the Pluecker
relation as a 6x6 form, canonical numeric vectors, chordal distance, reality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactnum import (
    DimensionError,
    RatMatrix,
    Surd,
    exterior_power,
    nullspace,
    rank,
    rational,
    subsets,
)


class DegenerateFlatError(ValueError):
    """Spanning matrix does not have full column rank."""


# ---------------------------------------------------------------------------
# flats


@dataclass(frozen=True)
class ProjFlat:
    """A k-plane in P^n as the column span of an (n+1) x (k+1) matrix."""

    span: RatMatrix

    def __post_init__(self):
        if rank(self.span) != self.span.cols:
            raise DegenerateFlatError("span matrix is rank deficient")

    @property
    def n(self) -> int:
        return self.span.rows - 1

    @property
    def k(self) -> int:
        return self.span.cols - 1

    @classmethod
    def from_points(cls, points: Sequence[Sequence]) -> "ProjFlat":
        """Flat through the given projective points (rows -> columns)."""
        return cls(RatMatrix.from_rows([list(p) for p in points]).transpose())

    def dual(self) -> "DualFlat":
        """The same flat described by the hyperplanes containing it."""
        basis = nullspace(self.span.transpose())
        return DualFlat(RatMatrix.from_rows([list(v) for v in basis]).transpose())


@dataclass(frozen=True)
class DualFlat:
    """An (n-k-1)-plane in P^n as an intersection of k+1 hyperplanes.

    The hyperplane coefficient vectors are the columns of an
    (n+1) x (k+1) matrix.
    """

    hyperplanes: RatMatrix

    def __post_init__(self):
        if rank(self.hyperplanes) != self.hyperplanes.cols:
            raise DegenerateFlatError("hyperplane matrix is rank deficient")

    @property
    def n(self) -> int:
        return self.hyperplanes.rows - 1


def line_through(p, q) -> ProjFlat:
    """Line in P^3 through two projective points."""
    return ProjFlat.from_points([p, q])


def tetrahedron_lines() -> list[ProjFlat]:
    """The four coordinate-tetrahedron edge lines x0=x3=0, x0=x1=0,
    x1=x2=0, x2=x3=0 in P^3 (a 4-cycle of edges; the remaining two edges
    x0=x2=0 and x1=x3=0 are their common transversals)."""
    e = RatMatrix.identity(4).to_rows()
    return [
        line_through(e[1], e[2]),
        line_through(e[2], e[3]),
        line_through(e[0], e[3]),
        line_through(e[0], e[1]),
    ]


# ---------------------------------------------------------------------------
# Pluecker vectors


def _is_zero_scalar(x) -> bool:
    if isinstance(x, Surd):
        return x.is_zero
    return x == 0


@dataclass(frozen=True)
class PluckerVector:
    """Projective coordinates of a k-plane in P^n.

    ``coords`` has one entry per lex-ordered (k+1)-subset of {0, .., n};
    entries are exact (Fraction / Surd) or numeric (float / complex).
    """

    k: int
    n: int
    coords: tuple

    def __post_init__(self):
        expected = len(subsets(self.n + 1, self.k + 1))
        if len(self.coords) != expected:
            raise DimensionError(
                f"expected {expected} coordinates for G({self.k},{self.n}), "
                f"got {len(self.coords)}")
        if all(_is_zero_scalar(c) for c in self.coords):
            raise ValueError("Pluecker vector must not be identically zero")

    @property
    def index_sets(self) -> tuple[tuple[int, ...], ...]:
        return subsets(self.n + 1, self.k + 1)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, (Fraction, int, Surd)) for c in self.coords)

    def coord(self, indices: Sequence[int]):
        """Signed coordinate lookup for an arbitrary index tuple.

        Repeated indices give 0; unsorted tuples pick up the permutation sign.
        """
        idx = tuple(indices)
        if len(set(idx)) != len(idx):
            return Fraction(0)
        srt = tuple(sorted(idx))
        sign = _permutation_sign(idx)
        value = self.coords[self.index_sets.index(srt)]
        return value if sign == 1 else -value

    def normalized(self) -> "PluckerVector":
        """Canonical representative: first nonzero coordinate scaled to 1
        (exact data), or ``normalize_endpoint`` (numeric data)."""
        if self.is_exact:
            lead = next(c for c in self.coords if not _is_zero_scalar(c))
            coords = tuple(c / lead for c in self.coords)
            return PluckerVector(self.k, self.n, coords)
        return PluckerVector(self.k, self.n, tuple(normalize_endpoint(self.coords)))

    def numeric(self):
        return np.array([complex(c) for c in self.coords])


# a normalized endpoint is real when no imaginary part reaches REAL_TOL;
# rays closer than DISTINCT_TOL in chordal distance are one solution
REAL_TOL = 1e-8
DISTINCT_TOL = 1e-6


def normalize_endpoint(v) -> np.ndarray:
    """Unit norm with the largest-magnitude coordinate rotated real-positive."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    z = v[int(np.argmax(np.abs(v)))]
    return v * (z.conjugate() / abs(z))


def chordal_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Projective distance min over phases of ||u - e^(i phi) v|| for unit
    representatives.  Computed via the optimal phase directly, which stays
    accurate down to machine precision for nearly equal rays (the naive
    sqrt(2 - 2|<u,v>|) loses half the digits to cancellation)."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    ip = np.vdot(v, u)
    phase = ip / abs(ip) if ip != 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def close_pairs(vectors, tol: float, conjugate: bool = False) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, of rays closer than ``tol`` in chordal
    distance, in ascending order; with ``conjugate``, of rays b close to the
    complex conjugate of ray a.

    Rays at chordal distance d have overlap |<u,v>| = 1 - d^2/2 as unit
    vectors, so one Gram matrix screens every pair: only those with overlap
    above 1 - tol^2 can be that close, and ``chordal_distance`` decides
    those.  The screen is widened to 1 - 1e-12 for smaller ``tol``, since
    the overlap's rounding error (~1e-15) would hide the margin tol^2/2.
    """
    if len(vectors) < 2:
        return []
    unit = np.array([v / np.linalg.norm(v) for v in vectors])
    left = unit if conjugate else unit.conj()
    overlap = np.triu(np.abs(left @ unit.T), 1)
    return [(int(a), int(b))
            for a, b in zip(*np.nonzero(overlap > 1 - max(tol * tol, 1e-12)))
            if chordal_distance(np.conj(vectors[a]) if conjugate else vectors[a],
                                vectors[b]) < tol]


@dataclass
class RealityReport:
    is_real: list[bool]  # one flag per vector, in order
    conjugate_pairs: list[tuple[int, int]]
    unpaired: list[int]
    at_infinity: int

    @property
    def real_count(self) -> int:
        return sum(self.is_real)

    @property
    def nonreal_count(self) -> int:
        return 2 * len(self.conjugate_pairs) + len(self.unpaired)


def classify_real(vectors) -> RealityReport:
    """The reality rule: a line's numeric Pluecker vector is real when no
    imaginary part reaches ``REAL_TOL`` after ``normalize_endpoint``.  The
    nonreal ones are paired, in order, with a later one within ``REAL_TOL``
    of their complex conjugate; one left unpaired suggests a path jump or a
    forged flag.  Also counted: lines in the plane at infinity (p01, p02,
    p03 below tolerance), which an affine-reality claim must exclude.
    """
    normalized = np.reshape([normalize_endpoint(v) for v in vectors], (-1, 6))
    is_real = np.max(np.abs(normalized.imag), axis=-1) < REAL_TOL
    at_infinity = np.max(np.abs(normalized[:, :3]), axis=-1) < REAL_TOL
    nonreal = np.flatnonzero(~is_real)
    pairs, used = [], set()
    for a, b in close_pairs(normalized[nonreal], REAL_TOL, conjugate=True):
        if a not in used and b not in used:
            pairs.append((int(nonreal[a]), int(nonreal[b])))
            used.update((a, b))
    unpaired = [int(i) for k, i in enumerate(nonreal) if k not in used]
    return RealityReport(is_real.tolist(), pairs, unpaired, int(np.sum(at_infinity)))


def _permutation_sign(seq: Sequence[int]) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def plucker(f: ProjFlat) -> PluckerVector:
    """Pluecker coordinates of a flat: the maximal minors of its span."""
    minors = exterior_power(f.span, f.k + 1)
    return PluckerVector(f.k, f.n, tuple(minors.entries)).normalized()


def dual_plucker(f: DualFlat) -> PluckerVector:
    """Dual Pluecker coordinates of an (n-k-1)-plane given by k+1 hyperplanes."""
    k = f.hyperplanes.cols - 1
    minors = exterior_power(f.hyperplanes, k + 1)
    return PluckerVector(k, f.n, tuple(minors.entries)).normalized()


def check_plucker_relations(p: PluckerVector):
    """Largest residual of the quadratic exchange relations.

    Exact coordinates give an exact scalar (zero iff p lies on the
    Grassmannian); numeric coordinates give a float max-abs residual.
    """
    k, n = p.k, p.n
    worst = Fraction(0)
    worst_key = 0.0
    for I in subsets(n + 1, k + 2):
        for J in subsets(n + 1, k):
            total = None
            for l, il in enumerate(I):
                term = p.coord(I[:l] + I[l + 1:]) * p.coord(J + (il,))
                term = -term if l % 2 else term
                total = term if total is None else total + term
            key = abs(complex(total))
            if key > worst_key:
                worst, worst_key = total, key
    if not p.is_exact:
        return worst_key
    return worst


def incidence(p: PluckerVector, q: PluckerVector):
    """Dot product of a Pluecker vector and a dual Pluecker vector.

    Zero exactly when the k-plane meets the (n-k-1)-plane.
    """
    if (p.k, p.n) != (q.k, q.n):
        raise DimensionError("incidence requires matching (k, n) index grids")
    total = None
    for a, b in zip(p.coords, q.coords):
        term = a * b
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class Counts:
    """Dimension and degree data of the Grassmannian of k-planes in P^n."""

    k: int
    n: int
    dim: int
    degree: int
    total: int  # 2^dim * degree: tangency problems to dim general quadrics


def grassmannian_dimension(k: int, n: int) -> int:
    return (k + 1) * (n - k)


def grassmannian_degree(k: int, n: int) -> int:
    """Degree of G(k,n) in its Pluecker embedding (Schubert's formula)."""
    num = math.prod(math.factorial(i) for i in range(1, k + 1))
    num *= math.factorial((k + 1) * (n - k))
    den = math.prod(math.factorial(n - k + i) for i in range(k + 1))
    deg, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("degree formula did not divide exactly")
    return deg


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def counts(k: int, n: int) -> Counts:
    """Exact dimension/degree/total for the quadric-tangency problem on G(k,n)."""
    if not 1 <= k <= n - 2:
        raise ValueError(f"require 1 <= k <= n-2, got k={k}, n={n}")
    dim = grassmannian_dimension(k, n)
    deg = grassmannian_degree(k, n)
    if k == 1:
        assert deg == catalan(n - 1)  # independent closed form for lines
    return Counts(k, n, dim, deg, (1 << dim) * deg)


def sphere_tangent_line_count(n: int) -> int:
    """Upper bound 3 * 2^(n-1) for lines tangent to 2n-2 general spheres."""
    return 3 * (1 << (n - 1))


# ---------------------------------------------------------------------------
# transversals to four lines in P^3


@dataclass(frozen=True)
class Transversal:
    vector: PluckerVector
    real: bool
    multiplicity: int = 1


@dataclass(frozen=True)
class TransversalResult:
    """Common transversal lines to four lines in P^3.

    ``infinite`` marks degenerate configurations with a positive-dimensional
    family; otherwise ``transversals`` holds the (at most two, possibly
    complex-conjugate) solutions exactly, with coordinates in Q(sqrt(disc)).
    """

    infinite: bool
    transversals: tuple[Transversal, ...]
    discriminant: Fraction | None

    @property
    def count(self) -> int | None:
        return None if self.infinite else len(self.transversals)

    @property
    def real_count(self) -> int | None:
        if self.infinite:
            return None
        return sum(t.multiplicity for t in self.transversals if t.real)


_PLUCKER_QUADRIC_PAIRS = (((0, 5), 1), ((1, 4), -1), ((2, 3), 1))

# the same relation as a symmetric 6x6 form: p^T PLUCKER_FORM p = Phi(p)
PLUCKER_FORM = np.zeros((6, 6))
for (_i, _j), _s in _PLUCKER_QUADRIC_PAIRS:
    PLUCKER_FORM[_i, _j] = PLUCKER_FORM[_j, _i] = _s / 2
PLUCKER_FORM.flags.writeable = False


def _plucker_quadric(u, v) -> Fraction | Surd:
    """Polarized Pluecker form: Phi(u,v) with Phi(p) = p01 p23 - p02 p13 + p03 p12."""
    total = Fraction(0)
    for (i, j), s in _PLUCKER_QUADRIC_PAIRS:
        total = total + s * (u[i] * v[j] + u[j] * v[i])
    return total


def transversals_to_4_lines(lines: Sequence[ProjFlat]) -> TransversalResult:
    """All lines meeting four given lines in P^3, exactly.

    The four incidence conditions are linear on the Pluecker quadric; when
    they are independent the solutions form the intersection of a pencil with
    the quadric, a binary quadratic whose roots are classified by the sign of
    its discriminant.  Dependent conditions (e.g. four concurrent or coplanar
    lines) yield an infinite family, reported as such rather than an error.
    """
    if len(lines) != 4:
        raise ValueError("exactly four lines required")
    for f in lines:
        if (f.n, f.k) != (3, 1):
            raise DimensionError("transversal solver works with lines in P^3")
    rows = [list(dual_plucker(f.dual()).coords) for f in lines]
    system = RatMatrix.from_rows(rows)
    basis = nullspace(system)
    if len(basis) > 2:
        return TransversalResult(True, (), None)
    v1, v2 = basis
    a = _plucker_quadric(v1, v1) / 2
    c = _plucker_quadric(v2, v2) / 2
    b = _plucker_quadric(v1, v2)
    if a == 0 and c == 0 and b == 0:
        return TransversalResult(True, (), None)
    disc = b * b - 4 * a * c

    def combine(s, t) -> PluckerVector:
        coords = tuple(s * x + t * y for x, y in zip(v1, v2))
        return PluckerVector(1, 3, coords).normalized()

    transversals: list[Transversal]
    if a == 0 and c == 0:
        transversals = [Transversal(combine(Fraction(1), Fraction(0)), True),
                        Transversal(combine(Fraction(0), Fraction(1)), True)]
    else:
        # roots of a s^2 + b s t + c t^2 = 0 in Q(sqrt(disc))
        root = Surd(0, 1, disc)
        if root.is_rational:
            root = root.a  # perfect-square discriminant: stay in Q
        if a != 0:
            pairs = [(-b + root, 2 * a), (-b - root, 2 * a)]
        else:
            pairs = [(2 * c, -b + root), (2 * c, -b - root)]
        real = disc > 0
        if disc == 0:
            s, t = pairs[0]
            transversals = [Transversal(combine(s, t), True, multiplicity=2)]
        else:
            transversals = [Transversal(combine(s, t), real) for s, t in pairs]
    return TransversalResult(False, tuple(transversals), disc)


# ---------------------------------------------------------------------------
# moment curve


def moment_curve_point(n: int, s) -> list[Fraction]:
    """Point (s, s^2, .., s^n) of the affine rational normal curve in R^n."""
    s = rational(s)
    return [s ** j for j in range(1, n + 1)]


def _moment_derivative(n: int, s: Fraction, order: int) -> list[Fraction]:
    out = []
    for j in range(1, n + 1):
        if order > j:
            out.append(Fraction(0))
        else:
            coeff = math.perm(j, order)
            out.append(coeff * s ** (j - order))
    return out


def moment_osculating_flat(n: int, s) -> ProjFlat:
    """The (n-2)-flat osculating the curve (s, s^2, .., s^n) at parameter s.

    Concretely: the affine flat through the curve point spanned by the first
    n-2 derivative directions, embedded in P^n via x -> (1, x).  For n=3 this
    is the tangent line of the twisted cubic.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    s = rational(s)
    cols = [[Fraction(1)] + moment_curve_point(n, s)]
    for order in range(1, n - 1):
        cols.append([Fraction(0)] + _moment_derivative(n, s, order))
    return ProjFlat(RatMatrix.from_rows(cols).transpose())
