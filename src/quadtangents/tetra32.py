"""Closed-form enumeration of the 32 lines tangent to a tetrahedral family
of four quadrics in P^3.

For parameters (alpha, beta) the four diagonal quadrics

    Q1: x0^2 + x3^2 - beta  (x1^2 + x2^2)
    Q2: x0^2 + x1^2 - beta  (x2^2 + x3^2)
    Q3: x1^2 + x2^2 - alpha (x0^2 + x3^2)
    Q4: x2^2 + x3^2 - alpha (x0^2 + x1^2)

deform the four edge lines x0=x3=0, x0=x1=0, x1=x2=0, x2=x3=0 of the
coordinate tetrahedron (alpha = beta = 0 collapses each quadric onto the
squared plane pair through its line).  Because every quadric is diagonal,
the four tangency conditions are *linear* in the squared Pluecker
coordinates p_ij^2, and eliminating them against the Pluecker relation
splits the solutions into three disjoint cases:

  case 1 (p02 = 0, p13 = 1) and case 2 (p13 = 0, p02 = 1): eight solutions
  each, with p01^2 = p03^2 = beta/((1-alpha)(1-beta)) and
  p12^2 = p23^2 = alpha/((1-alpha)(1-beta)), the four signs constrained by
  p01 p23 = -p03 p12;

  case 3 (p02 = 1, p13 free): p01^2 solves the quadratic
  4 alpha t^2 - (1-alpha)(1-beta) t + beta = 0, whose discriminant is
  (1-alpha)^2 (1-beta)^2 - 16 alpha beta; each of the two roots carries
  eight sign choices with p01 p23 = +p03 p12, and p13 is recovered from the
  Pluecker relation.  Sixteen solutions.

All 32 are pairwise distinct whenever the genericity product

    alpha*beta*(1-alpha*beta)*(1-beta^2)*(1-alpha^2)*discriminant != 0,

and all 32 are real when 0 < alpha, beta < 3 - 2*sqrt(2).  Solutions are
kept symbolically as signs times square roots of exact radicands (one nested
radical for case 3), so reality is decided by exact sign tests and numeric
instantiation is a final, optional step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactnum import Surd, rational
from .quadrics import LineConditions, Quadric, TangentTo


class DegeneracyError(ValueError):
    """A genericity factor vanishes; the closed form does not apply."""

    def __init__(self, factors: list[str]):
        self.factors = factors
        super().__init__("degenerate parameters, vanishing factor(s): "
                         + ", ".join(factors))


@dataclass(frozen=True)
class TetraParams:
    alpha: Fraction
    beta: Fraction

    @classmethod
    def of(cls, alpha, beta) -> "TetraParams":
        return cls(rational(alpha), rational(beta))

    def discriminant(self) -> Fraction:
        a, b = self.alpha, self.beta
        return (1 - a) ** 2 * (1 - b) ** 2 - 16 * a * b

    def genericity_factors(self) -> list[tuple[str, Fraction]]:
        a, b = self.alpha, self.beta
        return [
            ("alpha", a),
            ("beta", b),
            ("1-alpha*beta", 1 - a * b),
            ("1-beta^2", 1 - b * b),
            ("1-alpha^2", 1 - a * a),
            ("(1-alpha)^2*(1-beta)^2-16*alpha*beta", self.discriminant()),
        ]

    @cached_property
    def conditions(self) -> LineConditions:
        """The family's four tangency conditions, compiled once."""
        return LineConditions.compile(
            (f"tangency_{q.label}", TangentTo(q)) for q in family(self))


def family(params: TetraParams) -> tuple[Quadric, Quadric, Quadric, Quadric]:
    """The four diagonal quadrics of the tetrahedral family."""
    a, b = params.alpha, params.beta
    return (
        Quadric.from_diagonal([1, -b, -b, 1], label="Q1"),
        Quadric.from_diagonal([1, 1, -b, -b], label="Q2"),
        Quadric.from_diagonal([-a, 1, 1, -a], label="Q3"),
        Quadric.from_diagonal([-a, -a, 1, 1], label="Q4"),
    )


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class SignedRadicalSolution:
    """One tangent line, stored symbolically.

    Coordinates in lex order (p01, p02, p03, p12, p13, p23) are

        p01 = s01 * sqrt(sq_out),  p03 = s03 * sqrt(sq_out),
        p12 = s12 * sqrt(sq_in),   p23 = s23 * sqrt(sq_in),

    with the radicands ``sq_out``/``sq_in`` exact (rational for cases 1-2,
    in Q(sqrt(disc)) for case 3).  ``p02`` and ``p13`` are the two
    distinguished coordinates; ``p13 = None`` means case 3, where it is
    recovered as p01*p23 + p03*p12 from the Pluecker relation.
    """

    case: int
    signs: tuple[int, int, int]  # (s01, s03, s12)
    branch: int                  # quadratic-root index for case 3, else 0
    sq_out: Surd
    sq_in: Surd
    p02: Fraction
    p13: Fraction | None

    @property
    def sign23(self) -> int:
        s01, s03, s12 = self.signs
        prod = s01 * s03 * s12
        return -prod if self.case in (1, 2) else prod

    def is_real(self) -> bool:
        """Exact reality test via signs of the radicands."""
        for sq in (self.sq_out, self.sq_in):
            if sq.d < 0 and sq.b != 0:
                return False
            if sq.sign() < 0:
                return False
        return True

    def numeric(self) -> np.ndarray:
        """Instantiate as a complex 6-vector (p01, p02, p03, p12, p13, p23):
        the one-solution case of ``numeric_vectors``."""
        return numeric_vectors([self])[0]


def _square_root(radicand: Surd) -> complex:
    """The principal square root of a radicand, complex for negative ones."""
    return np.emath.sqrt(complex(radicand))


def numeric_vectors(solutions) -> np.ndarray:
    """Instantiate solutions as an (N, 6) complex stack, one row
    (p01, p02, p03, p12, p13, p23) per solution, taking one square root per
    distinct radicand."""
    roots = {}

    def root(sq: Surd):
        if sq not in roots:
            roots[sq] = _square_root(sq)
        return roots[sq]

    out = np.empty((len(solutions), 6), dtype=complex)
    for i, sol in enumerate(solutions):
        u, v = root(sol.sq_out), root(sol.sq_in)
        s01, s03, s12 = sol.signs
        p01, p03 = s01 * u, s03 * u
        p12, p23 = s12 * v, sol.sign23 * v
        p13 = complex(sol.p13) if sol.p13 is not None else p01 * p23 + p03 * p12
        out[i] = (p01, complex(sol.p02), p03, p12, p13, p23)
    return out


def enumerate_tangents(params: TetraParams) -> list[SignedRadicalSolution]:
    """All 32 common tangent lines of the family, symbolically.

    Raises DegeneracyError (naming every vanishing factor) when the
    genericity product is zero.
    """
    vanishing = [name for name, value in params.genericity_factors() if value == 0]
    if vanishing:
        raise DegeneracyError(vanishing)
    a, b = params.alpha, params.beta
    pref = 1 / ((1 - a) * (1 - b))
    sq_out12 = Surd(b * pref)
    sq_in12 = Surd(a * pref)
    zero, one = Fraction(0), Fraction(1)
    sols = []
    for signs in itertools.product((1, -1), repeat=3):
        sols.append(SignedRadicalSolution(1, signs, 0, sq_out12, sq_in12, zero, one))
    for signs in itertools.product((1, -1), repeat=3):
        sols.append(SignedRadicalSolution(2, signs, 0, sq_out12, sq_in12, one, zero))
    disc = params.discriminant()
    mid = (1 - a) * (1 - b) / (8 * a)
    half = 1 / (8 * a)
    ratio = a / b
    for branch, sgn in ((0, 1), (1, -1)):
        x = Surd(mid, sgn * half, disc)
        y = ratio * x
        for signs in itertools.product((1, -1), repeat=3):
            sols.append(SignedRadicalSolution(3, signs, branch, x, y, one, None))
    return sols


def reality_flags(solutions) -> list[bool]:
    """Each solution's exact ``is_real``, decided once per distinct pair of
    radicands: the signs do not enter."""
    decided = {}
    for s in solutions:
        if (s.sq_out, s.sq_in) not in decided:
            decided[s.sq_out, s.sq_in] = s.is_real()
    return [decided[s.sq_out, s.sq_in] for s in solutions]


def reality_count(params: TetraParams) -> tuple[int, int]:
    """(real, nonreal) among the 32 tangent lines, by exact sign analysis."""
    sols = enumerate_tangents(params)
    real = sum(reality_flags(sols))
    return real, len(sols) - real


def below_reality_bound(x) -> bool:
    """Exact test of 0 < x < 3 - 2*sqrt(2), with no floating square roots."""
    x = rational(x)
    if x <= 0 or x >= 3:
        return False
    return (3 - x) ** 2 > 8


# ---------------------------------------------------------------------------
# verification


def verify_solution(sol: SignedRadicalSolution, params: TetraParams) -> dict:
    """Instantiate one solution and evaluate the family's compiled conditions
    at it: ``{label: residual}`` for the four tangencies and the Pluecker
    relation, the residuals a certificate's ``verify`` re-evaluates."""
    conditions = params.conditions
    return dict(zip(conditions.labels,
                    conditions.residual_table(numeric_vectors([sol]))[0].tolist()))
