"""Exact rational scalars, dense rational matrices, and the elimination,
determinant, exterior-power and signature kernels everything else builds on.

Scalars are arbitrary-precision rationals (``fractions.Fraction``: always in
lowest terms, positive denominator).  Matrices are immutable, dense and
row-major.  No operation in this module ever rounds, so results can serve as
ground truth for the floating-point layers.

Subset-indexed objects (exterior powers, and downstream of them Pluecker
coordinates) enumerate the r-element subsets of {0, .., m-1} in lexicographic
order of the sorted tuples.  This ordering is a package-wide contract:
serialized artifacts depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence


class DimensionError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class ShapeError(ValueError):
    """Matrix violates a structural requirement (e.g. symmetry)."""


def rational(x) -> Fraction:
    """Coerce to an exact rational.

    Accepts Fraction, int, or strings like ``"3"``, ``"-7/12"``, ``"0.17"``.
    Decimal strings become exact decimal fractions (0.17 -> 17/100), never
    binary floats.  Floats are rejected to keep exactness guarantees honest.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact rational")


@lru_cache(maxsize=None)
def subsets(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All r-element subsets of range(m), lexicographically ordered."""
    return tuple(combinations(range(m), r))


def exact_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense matrix of exact rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("matrix must have at least one row and column")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows")
        return cls(r, c, tuple(rational(x) for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(n, n, tuple(one if i == j else zero
                               for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Iterable) -> "RatMatrix":
        vals = [rational(v) for v in values]
        n = len(vals)
        zero = Fraction(0)
        return cls(n, n, tuple(vals[i] if i == j else zero
                               for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, values: Iterable) -> "RatMatrix":
        vals = tuple(rational(v) for v in values)
        return cls(len(vals), 1, vals)

    # -- access --------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j::self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_numpy(self):
        import numpy as np

        return np.array([[float(x) for x in self.row(i)]
                         for i in range(self.rows)])

    # -- algebra --------------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self[i, j] == self[j, i]
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         tuple(self[i, j]
                               for j in range(self.cols)
                               for i in range(self.rows)))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for c in cols:
                out.append(sum(a * b for a, b in zip(r, c)))
        return RatMatrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return RatMatrix(self.rows, self.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return RatMatrix(self.rows, self.cols,
                         tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scaled(self, c) -> "RatMatrix":
        c = rational(c)
        return RatMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        return RatMatrix(len(row_idx), len(col_idx),
                         tuple(self[i, j] for i in row_idx for j in col_idx))


# ---------------------------------------------------------------------------
# determinant and elimination


def det(m: RatMatrix) -> Fraction:
    """Exact determinant: the signed product of ``_row_reduce``'s pivots."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    a, rk, _, sign = _row_reduce(m.to_rows())
    if rk < m.rows:
        return Fraction(0)
    return sign * math.prod(a[k][k] for k in range(rk))


def exterior_power(m: RatMatrix, r: int) -> RatMatrix:
    """The r-th compound matrix: entry (I, J) is the r x r minor of ``m`` on
    rows I and columns J, with I, J running over the lex-ordered r-subsets.
    A 2 x 2 minor is a*d - b*c, taken fraction-free (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", 1968):
    over the integer matrix L*m, with L the common denominator, it is
    L^2 times the rational minor.  Larger minors go through ``det``.
    """
    if r < 1 or r > min(m.rows, m.cols):
        raise DimensionError(f"exterior power order {r} out of range for "
                             f"{m.rows}x{m.cols} matrix")
    row_sets = subsets(m.rows, r)
    col_sets = subsets(m.cols, r)
    if r == 2:
        lcd = math.lcm(*(x.denominator for x in m.entries))
        n = m.cols
        a = [x.numerator * (lcd // x.denominator) for x in m.entries]
        lcd2 = lcd * lcd
        out = [Fraction(a[i * n + k] * a[j * n + l] - a[i * n + l] * a[j * n + k], lcd2)
               for i, j in row_sets for k, l in col_sets]
    else:
        out = [det(m.submatrix(I, J)) for I in row_sets for J in col_sets]
    return RatMatrix(len(row_sets), len(col_sets), tuple(out))


def rank(m: RatMatrix) -> int:
    return _row_reduce(m.to_rows())[1]


def _row_reduce(a: list[list[Fraction]]) -> tuple[list[list[Fraction]], int, list[int], int]:
    """In-place forward elimination; returns (rows, rank, pivot columns, sign
    of the row permutation)."""
    n_rows = len(a)
    n_cols = len(a[0])
    piv_cols = []
    pr = 0
    sign = 1
    for pc in range(n_cols):
        piv = next((i for i in range(pr, n_rows) if a[i][pc] != 0), None)
        if piv is None:
            continue
        if piv != pr:
            a[pr], a[piv] = a[piv], a[pr]
            sign = -sign
        pk = a[pr][pc]
        for i in range(pr + 1, n_rows):
            if a[i][pc] == 0:
                continue
            f = a[i][pc] / pk
            for j in range(pc + 1, n_cols):
                a[i][j] -= f * a[pr][j]
            a[i][pc] = Fraction(0)
        piv_cols.append(pc)
        pr += 1
        if pr == n_rows:
            break
    return a, pr, piv_cols, sign


def _full_reduce(a: list[list[Fraction]]) -> tuple[list[list[Fraction]], int, list[int]]:
    a, rk, piv_cols, _ = _row_reduce(a)
    for r in range(rk - 1, -1, -1):
        pc = piv_cols[r]
        pk = a[r][pc]
        a[r] = [x / pk for x in a[r]]
        for i in range(r):
            f = a[i][pc]
            if f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
    return a, rk, piv_cols


@dataclass(frozen=True)
class LinearSolution:
    """Exact description of the solution set of A X = B.

    ``particular`` is one solution (None iff inconsistent); ``nullspace`` is a
    basis of ker A as a tuple of length-``A.cols`` vectors, so the full
    solution set is particular + span(nullspace).
    """

    consistent: bool
    particular: RatMatrix | None
    nullspace: tuple[tuple[Fraction, ...], ...]
    rank: int

    @property
    def unique(self) -> bool:
        return self.consistent and not self.nullspace


def solve_linear(a: RatMatrix, b: RatMatrix) -> LinearSolution:
    """Solve A X = B exactly: unique solution, affine family, or inconsistent."""
    if a.rows != b.rows:
        raise DimensionError("A and B must have the same number of rows")
    aug = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    reduced, rk, piv_cols = _full_reduce(aug)
    piv_cols = [c for c in piv_cols if c < a.cols]
    rk_a = len(piv_cols)
    # any pivot falling in the B block marks an inconsistent system
    consistent = rk_a == rk
    free_cols = [c for c in range(a.cols) if c not in piv_cols]

    null_basis = []
    for fc in free_cols:
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            v[pc] = -reduced[r][fc]
        null_basis.append(tuple(v))

    particular = None
    if consistent:
        sol = [[Fraction(0)] * b.cols for _ in range(a.cols)]
        for r, pc in enumerate(piv_cols):
            for j in range(b.cols):
                sol[pc][j] = reduced[r][a.cols + j]
        particular = RatMatrix.from_rows(sol)
    return LinearSolution(consistent, particular, tuple(null_basis), rk_a)


def nullspace(m: RatMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the kernel of ``m`` (exact)."""
    return solve_linear(m, RatMatrix.zeros(m.rows, 1)).nullspace


# ---------------------------------------------------------------------------
# signature


def signature(q: RatMatrix) -> tuple[int, int, int]:
    """Counts (pos, neg, zero) of eigenvalue signs of a symmetric matrix.

    Computed exactly by symmetric elimination on nonzero diagonal pivots, each
    contributing its sign by Sylvester's law of inertia.  When every remaining
    diagonal entry is 0 but some a[i][j] is not, adding row and column j to
    row and column i (a congruence) makes a[i][i] = 2 a[i][j] the pivot.
    """
    if not q.is_square:
        raise ShapeError("signature of a non-square matrix")
    if not q.is_symmetric:
        raise ShapeError("signature requires a symmetric matrix")
    a = q.to_rows()
    n = len(a)
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is None:
            piv, j = next(((i, j) for i in active for j in active if a[i][j] != 0),
                          (None, None))
            if piv is None:
                break
            for k in active:
                a[piv][k] = a[k][piv] = a[piv][k] + a[j][k]
            a[piv][piv] = 2 * a[piv][j]
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        # Schur complement on the remaining principal block
        for i in active:
            fi = a[i][piv] / d
            if fi == 0:
                continue
            for j in active:
                a[i][j] -= fi * a[piv][j]
        for i in active:
            a[piv][i] = a[i][piv] = Fraction(0)
    return pos, neg, len(active)


# ---------------------------------------------------------------------------
# quadratic-extension scalars


class Surd:
    """Exact scalar a + b*sqrt(d) with rational a, b, d.

    Closed under ring operations (and division) as long as all operands share
    the same radicand; perfect-square radicands collapse to plain rationals.
    Negative d is allowed and evaluates to a complex number.
    """

    __slots__ = ("a", "b", "d", "_hash")

    def __init__(self, a=0, b=0, d=0):
        a, b, d = rational(a), rational(b), rational(d)
        if d == 0 or b == 0:
            b, d = Fraction(0), Fraction(0)
        else:
            root = exact_sqrt(d)
            if root is not None:
                a, b, d = a + b * root, Fraction(0), Fraction(0)
        self.a, self.b, self.d = a, b, d
        self._hash = None

    def __eq__(self, other):
        try:
            other = self._lift(other)
        except (TypeError, ValueError, ArithmeticError):
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        # kept: hashing rationals with large terms takes microseconds
        if self._hash is None:
            self._hash = hash((self.a, self.b, self.d))
        return self._hash

    def __repr__(self):
        return f"Surd({self.a!r}, {self.b!r}, {self.d!r})"

    # -- predicates -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign, defined for real values only (d >= 0)."""
        if self.d < 0 and self.b != 0:
            raise ArithmeticError("sign of a non-real surd")
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        sa = 1 if self.a > 0 else -1
        sb = 1 if self.b > 0 else -1
        if sa == sb:
            return sa
        norm = self.a * self.a - self.b * self.b * self.d
        # norm = 0 would force sqrt(d) rational, which the constructor collapses
        return sa * ((norm > 0) - (norm < 0))

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _lift(x) -> "Surd":
        if isinstance(x, Surd):
            return x
        return Surd(rational(x))

    def _join(self, other: "Surd") -> Fraction:
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        if self.d != other.d:
            raise ArithmeticError(
                f"incompatible radicands {self.d} and {other.d}")
        return self.d

    def __add__(self, other):
        other = self._lift(other)
        d = self._join(other)
        return Surd(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        d = self._join(other)
        return Surd(self.a * other.a + self.b * other.b * d,
                    self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        norm = self.a * self.a - self.b * self.b * self.d
        return Surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    # -- numeric --------------------------------------------------------------

    def numeric(self):
        """float for real values, complex when d < 0; with a and b of opposite
        signs, the exact (a^2 - b^2 d) over a - b sqrt(d), which does not cancel."""
        if self.b == 0:
            return float(self.a)
        if self.d >= 0:
            if self.a * self.b < 0:
                return (float(self.a * self.a - self.b * self.b * self.d)
                        / (float(self.a) - float(self.b) * math.sqrt(float(self.d))))
            return float(self.a) + float(self.b) * math.sqrt(float(self.d))
        return complex(float(self.a), float(self.b) * math.sqrt(-float(self.d)))

    def __complex__(self):
        return complex(self.numeric())

    def __float__(self):
        v = self.numeric()
        if isinstance(v, complex):
            raise ValueError("non-real surd has no float value")
        return v

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        head = f"{self.a} + " if self.a else ""
        return f"{head}{self.b}*sqrt({self.d})"
