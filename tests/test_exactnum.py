import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtangents.exactnum import (
    DimensionError,
    RatMatrix,
    ShapeError,
    Surd,
    det,
    exterior_power,
    nullspace,
    rational,
    signature,
    solve_linear,
)


# -- independent oracles ------------------------------------------------------


def det_cofactor(rows):
    """Cofactor expansion along the first row; independent of elimination."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def signature_char_poly(rows):
    """(pos, neg, zero) eigenvalue signs of a symmetric matrix from its
    characteristic polynomial (Faddeev-LeVerrier) and Descartes' rule of
    signs, which is exact when every root is real; independent of
    elimination."""
    n = len(rows)
    coeffs = [F(1)]
    mk = [row[:] for row in rows]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        shifted = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
        mk = [[sum(rows[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    signs = [c > 0 for c in coeffs if c != 0]
    pos = sum(s != t for s, t in zip(signs, signs[1:]))
    return pos, n - zero - pos, zero


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def st_matrix(n):
    return st.lists(st.lists(small_fraction, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(RatMatrix.from_rows)


# -- rational parsing ---------------------------------------------------------


def test_rational_parsing():
    assert rational("3") == 3
    assert rational("-7/12") == F(-7, 12)
    assert rational("0.17") == F(17, 100)  # exact decimal, not binary float
    with pytest.raises(TypeError):
        rational(0.1)


# -- determinant --------------------------------------------------------------


def test_det_identity():
    assert det(RatMatrix.identity(3)) == 1


def test_det_permutation_sign():
    assert det(RatMatrix.from_rows([[0, 1], [1, 0]])) == -1


def test_det_matches_cofactor_oracle_random():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[F(rng.randint(-9, 9)) for _ in range(4)] for _ in range(4)]
        assert det(RatMatrix.from_rows(rows)) == det_cofactor(rows)


def test_det_non_square_rejected():
    with pytest.raises(DimensionError):
        det(RatMatrix.zeros(2, 3))


@settings(max_examples=30, deadline=None)
@given(st_matrix(3), st_matrix(3))
def test_det_multiplicative(a, b):
    assert det(a @ b) == det(a) * det(b)


# -- exterior power -----------------------------------------------------------


def test_exterior_power_order_one_is_identity_map():
    m = RatMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert exterior_power(m, 1).entries == m.entries


def test_exterior_power_identity():
    assert exterior_power(RatMatrix.identity(4), 2).entries == \
        RatMatrix.identity(6).entries


def test_exterior_power_diagonal_lex_order():
    a, b, c, d = F(2), F(3), F(5), F(7)
    got = exterior_power(RatMatrix.diagonal([a, b, c, d]), 2)
    # pairwise products in lex order of the index pairs
    assert got.entries == RatMatrix.diagonal(
        [a * b, a * c, a * d, b * c, b * d, c * d]).entries


def test_exterior_power_range_checked():
    with pytest.raises(DimensionError):
        exterior_power(RatMatrix.identity(3), 4)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st_matrix(4), st_matrix(5)))
def test_exterior_power_two_matches_det_minors(m):
    # order 2 takes a*d - b*c; every entry equals det of its 2 x 2 minor
    pairs = list(combinations(range(m.rows), 2))
    assert exterior_power(m, 2).entries == tuple(
        det(m.submatrix(I, J)) for I in pairs for J in pairs)


# zeros, and rationals whose terms run to 40 digits
wide_fraction = st.one_of(
    st.just(F(0)), small_fraction,
    st.builds(F, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)))


@settings(max_examples=60, deadline=None)
@given(st.lists(wide_fraction, min_size=16, max_size=16))
def test_integer_minors_equal_the_det_compound(entries):
    # order 2 takes integer minors over the common denominator; the result
    # is the same canonical RatMatrix as the det of every 2 x 2 submatrix
    m = RatMatrix(4, 4, tuple(entries))
    pairs = list(combinations(range(4), 2))
    compound = RatMatrix(6, 6, tuple(det(m.submatrix(I, J)) for I in pairs for J in pairs))
    got = exterior_power(m, 2)
    assert got == compound
    assert [(x.numerator, x.denominator) for x in got.entries] == \
        [(x.numerator, x.denominator) for x in compound.entries]


@settings(max_examples=25, deadline=None)
@given(st_matrix(4), st_matrix(4))
def test_cauchy_binet(a, b):
    lhs = exterior_power(a @ b, 2)
    rhs = exterior_power(a, 2) @ exterior_power(b, 2)
    assert lhs.entries == rhs.entries


# -- signature ----------------------------------------------------------------


def test_signature_definite():
    assert signature(RatMatrix.diagonal([1, 1, 1, 1])) == (4, 0, 0)


def test_signature_mixed_diagonal():
    assert signature(RatMatrix.diagonal([-1, 0, 1, 1])) == (2, 1, 1)


def test_signature_zero_diagonal_fallback():
    # no nonzero diagonal pivot exists; the congruence step adds row and
    # column j to row and column i, making a[i][i] = 2 a[i][j] the pivot
    assert signature(RatMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    m = RatMatrix.from_rows([[0, 2, 0], [2, 0, 0], [0, 0, 5]])
    assert signature(m) == (2, 1, 0)
    # after pivot 1, the step on the zero-diagonal block J - I (eigenvalues
    # 2, -1, -1) must update the whole row and column, not just a[i][i]
    m = RatMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]])
    assert signature(m) == (2, 2, 0)


# n x n matrices, n = 1..6, with about two thirds of their entries 0
zero_heavy_matrix = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(F(0)), st.just(F(0)), small_fraction),
             min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(zero_heavy_matrix)
def test_signature_matches_char_poly_oracle(rows):
    # zero diagonals leave elimination without a pivot mid-way, so the
    # congruence step runs between ordinary pivots
    sym = [[rows[min(i, j)][max(i, j)] for j in range(len(rows))] for i in range(len(rows))]
    assert signature(RatMatrix.from_rows(sym)) == signature_char_poly(sym)


@settings(max_examples=150, deadline=None)
@given(zero_heavy_matrix)
def test_det_matches_cofactor_oracle_zero_heavy(rows):
    # zero-heavy columns force row swaps, each flipping the sign
    assert det(RatMatrix.from_rows(rows)) == det_cofactor(rows)


def test_signature_tetra_family_member():
    # x0^2 + x3^2 - (x1^2 + x2^2)/10: rank 4, balanced signature
    q = RatMatrix.diagonal([1, F(-1, 10), F(-1, 10), 1])
    assert signature(q) == (2, 2, 0)


def test_signature_requires_symmetry():
    with pytest.raises(ShapeError):
        signature(RatMatrix.from_rows([[1, 2], [0, 1]]))


@settings(max_examples=25, deadline=None)
@given(st_matrix(3), st_matrix(3))
def test_signature_congruence_invariant(m, s):
    sym = m + m.transpose()
    if det(s) == 0:
        return
    assert signature(s.transpose() @ sym @ s) == signature(sym)


# -- linear solving -----------------------------------------------------------


def test_solve_identity():
    b = RatMatrix.from_rows([[1], [2], [3]])
    sol = solve_linear(RatMatrix.identity(3), b)
    assert sol.unique and sol.particular.entries == b.entries


def test_solve_inconsistent():
    a = RatMatrix.from_rows([[1, 1], [1, 1]])
    b = RatMatrix.from_rows([[1], [2]])
    sol = solve_linear(a, b)
    assert not sol.consistent and sol.particular is None


def test_solve_rank_deficient_nullspace_by_substitution():
    a = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    b = RatMatrix.from_rows([[6], [12]])
    sol = solve_linear(a, b)
    assert sol.consistent and sol.rank == 1 and len(sol.nullspace) == 2
    assert (a @ sol.particular).entries == b.entries
    for v in sol.nullspace:
        image = a @ RatMatrix.column(v)
        assert all(x == 0 for x in image.entries)


def test_solve_substitution_random():
    rng = random.Random(3)
    for _ in range(20):
        a = RatMatrix.from_rows(
            [[F(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)])
        b = RatMatrix.from_rows([[F(rng.randint(-4, 4))] for _ in range(3)])
        sol = solve_linear(a, b)
        if sol.consistent:
            assert (a @ sol.particular).entries == b.entries


def test_nullspace_dimension():
    m = RatMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert len(nullspace(m)) == 2


def test_tangency_system_row_space_matches_eliminated_form():
    # four tangency conditions of the tetrahedral family at alpha=beta=1/10,
    # as linear equations in the squared Pluecker coordinates, reordered to
    # (p02, p13, p03, p12, p01, p23); their row space equals that of the
    # hand-eliminated triangular system, so their null spaces (a canonical
    # basis, read off the reduced row echelon form) are equal
    a = b = F(1, 10)
    full = RatMatrix.from_rows([
        [-b, -b, 1, b * b, -b, -b],
        [1, -b, -b, -b, -b, b * b],
        [-a, -a, a * a, 1, -a, -a],
        [a * a, -a, -a, -a, -a, 1],
    ])
    perm = [1, 4, 2, 3, 0, 5]
    reordered = RatMatrix.from_rows(
        [[row[j] for j in perm] for row in full.to_rows()])
    eliminated = RatMatrix.from_rows([
        [-b, -b, (1 - a) * (1 - b), 0, 0, 0],
        [0, 0, a, -b, 0, 0],
        [0, 0, 0, -b, a, 0],
        [0, 0, 0, 0, a, -b],
    ])
    assert nullspace(reordered) == nullspace(eliminated)


# -- surds --------------------------------------------------------------------


def test_surd_perfect_square_collapses():
    s = Surd(1, 2, 9)  # 1 + 2*sqrt(9) = 7
    assert s.is_rational and s.a == 7


def test_surd_arithmetic_and_inverse():
    s = Surd(1, 1, 2)      # 1 + sqrt(2)
    t = Surd(-1, 1, 2)     # -1 + sqrt(2)
    assert s * t == Surd(1)          # (sqrt2+1)(sqrt2-1) = 1
    assert s + t == Surd(0, 2, 2)
    assert (s / s) == Surd(1)
    assert s.inverse() == t          # 1/(1+sqrt2) = sqrt2 - 1


def test_surd_signs():
    assert Surd(1, 1, 2).sign() == 1
    assert Surd(-3, 1, 2).sign() == -1     # sqrt2 < 3
    assert Surd(-1, 1, 2).sign() == 1      # sqrt2 > 1
    assert Surd(3, -2, 2).sign() == 1      # 2*sqrt2 < 3
    assert Surd(0, 0, 0).sign() == 0
    with pytest.raises(ArithmeticError):
        Surd(1, 1, -2).sign()


def test_surd_incompatible_radicands():
    with pytest.raises(ArithmeticError):
        Surd(0, 1, 2) * Surd(0, 1, 3)


def test_surd_numeric():
    assert Surd(1, 1, 2).numeric() == pytest.approx(2.41421356, abs=1e-8)
    z = Surd(0, 1, -4).numeric()
    assert z == pytest.approx(2j)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-10**6, max_value=10**6).filter(bool),
       st.builds(F, st.integers(2, 10**12), st.integers(1, 10**6)),
       st.integers(-2**20, 2**20))
def test_surd_numeric_is_within_4_ulps(b, d, shift):
    # a + b*sqrt(d) with a close to -b*sqrt(d): the sum cancels to about
    # 1e-16 of its terms, so a float sum of the terms keeps no digit
    a = -b * F(math.sqrt(d)) * (1 + F(shift, 2 ** 60))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = (Decimal(a.numerator) / a.denominator + Decimal(b.numerator) / b.denominator
                 * (Decimal(d.numerator) / d.denominator).sqrt())
    value = Surd(a, b, d).numeric()
    assert abs(Decimal(value) - exact) <= 4 * Decimal(math.ulp(float(exact)))
