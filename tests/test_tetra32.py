import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from quadtangents.exactnum import RatMatrix, Surd, rank
from quadtangents.grassmann import PluckerVector, check_plucker_relations, chordal_distance
from quadtangents.quadrics import is_tangent, tangency_form
from quadtangents.scenes import Scene, solution_residuals
from quadtangents.tetra32 import (
    DegeneracyError,
    TetraParams,
    below_reality_bound,
    enumerate_tangents,
    family,
    numeric_vectors,
    reality_count,
    reality_flags,
    verify_solution,
)

P10 = TetraParams.of(F(1, 10), F(1, 10))


def pairwise_min_distance(solutions) -> float:
    """Smallest pairwise chordal distance between the solutions."""
    vecs = [s.numeric() for s in solutions]
    return min(chordal_distance(u, v) for u, v in itertools.combinations(vecs, 2))


def quartic_root_squares(params):
    """Oracle: squares p01^2 from the quartic
    -beta + (1-a)(1-b) x^2 - 4 a x^4 = 0, via numpy's companion matrix."""
    a, b = float(params.alpha), float(params.beta)
    roots = np.roots([-4 * a, 0.0, (1 - a) * (1 - b), 0.0, -b])
    return sorted(set(np.round(roots ** 2, 9)), key=lambda z: (z.real, z.imag))


def numeric_reality_count(params):
    """Oracle: instantiate all solutions numerically and count the real ones
    (a projective vector is real when some phase makes every entry real)."""
    real = 0
    for sol in enumerate_tangents(params):
        v = sol.numeric()
        v = v / v[np.argmax(np.abs(v))]
        real += bool(np.max(np.abs(v.imag)) < 1e-9)
    return real


# -- the family ---------------------------------------------------------------


def test_family_at_zero_collapses_to_squared_lines():
    quadrics = family(TetraParams.of(0, 0))
    expected_diagonals = [
        [1, 0, 0, 1],   # x0^2 + x3^2: the plane pair through x0=x3=0
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
    ]
    for q, diag in zip(quadrics, expected_diagonals):
        assert q.matrix.entries == RatMatrix.diagonal(diag).entries
        assert q.rank == 2


def test_family_signatures_balanced():
    for q in family(P10):
        assert q.signature == (2, 2, 0)


@pytest.mark.parametrize("alpha,beta",
                         [(F(1, 10), F(1, 10)), (F(3, 7), F(2, 9)), (F(-1, 2), F(5, 3))])
def test_tangency_matrix_closed_form(alpha, beta):
    a, b = alpha, beta
    expected = [
        [-b, -b, 1, b * b, -b, -b],
        [1, -b, -b, -b, -b, b * b],
        [-a, -a, a * a, 1, -a, -a],
        [a * a, -a, -a, -a, -a, 1],
    ]
    # the rows of the tangency conditions as linear equations in the squared
    # coordinates are the diagonals of the tangency forms
    for q, row in zip(family(TetraParams.of(a, b)), expected):
        form = tangency_form(q, 1)
        assert [form[i, i] for i in range(6)] == row


@pytest.mark.parametrize("alpha,beta",
                         [(F(1, 10), F(1, 20)), (F(1, 5), F(1, 5)), (F(3, 7), F(2, 9))])
def test_derivation_rows_lie_in_the_tangency_span(alpha, beta):
    # the eliminated row and the square chain (``closed_form_check``), as
    # rows in the squared coordinates, add nothing to the four tangency rows:
    # a certificate that bounds the tangencies bounds them too
    a, b = alpha, beta
    tangency = [[tangency_form(q, 1)[i, i] for i in range(6)]
                for q in family(TetraParams.of(a, b))]
    derived = [[0, -b, (1 - a) * (1 - b), 0, -b, 0],
               [a, 0, -a, 0, 0, 0], [0, 0, a, -b, 0, 0], [0, 0, 0, b, 0, -b]]
    assert rank(RatMatrix.from_rows(tangency)) == 4
    assert rank(RatMatrix.from_rows(tangency + derived)) == 4


# -- enumeration --------------------------------------------------------------


def test_enumerate_count_and_case_split():
    sols = enumerate_tangents(P10)
    assert len(sols) == 32
    by_case = {c: [s for s in sols if s.case == c] for c in (1, 2, 3)}
    assert (len(by_case[1]), len(by_case[2]), len(by_case[3])) == (8, 8, 16)
    assert len({(s.case, s.signs, s.branch) for s in sols}) == 32


def test_cases_one_and_two_share_coordinate_tuples():
    sols = enumerate_tangents(P10)
    tuples1 = {(s.signs, s.sq_out, s.sq_in) for s in sols if s.case == 1}
    tuples2 = {(s.signs, s.sq_out, s.sq_in) for s in sols if s.case == 2}
    assert tuples1 == tuples2
    # they differ only in the distinguished coordinates
    for s in sols:
        if s.case == 1:
            assert (s.p02, s.p13) == (0, 1)
        elif s.case == 2:
            assert (s.p02, s.p13) == (1, 0)


def test_sign_constraint_from_plucker_relation():
    for sol in enumerate_tangents(P10):
        v = sol.numeric()
        p01, p02, p03, p12, p13, p23 = v
        if sol.case in (1, 2):
            assert abs(p01 * p23 + p03 * p12) < 1e-14
        else:
            assert abs(p01 * p23 - p03 * p12) < 1e-14


def test_case1_magnitude_closed_form():
    sols = [s for s in enumerate_tangents(P10) if s.case == 1]
    for s in sols:
        assert abs(abs(s.numeric()[0]) - 0.3513642) < 1e-7


def test_case3_squares_match_quartic_oracle():
    sols = enumerate_tangents(P10)
    got = sorted({round(float(s.sq_out.numeric()), 9)
                  for s in sols if s.case == 3})
    # (0.81 +- sqrt(0.4961)) / 0.8, both positive, so all 16 are real
    assert got == [pytest.approx(0.13207, abs=1e-5),
                   pytest.approx(1.89293, abs=1e-5)]
    assert all(x > 0 for x in got)
    oracle = [z.real for z in quartic_root_squares(P10)]
    assert got == [pytest.approx(x, abs=1e-9) for x in sorted(oracle)]


def test_all_solutions_satisfy_all_equations():
    sols = enumerate_tangents(P10)
    quadrics = family(P10)
    for sol in sols:
        assert max(verify_solution(sol, P10).values()) < 1e-12
        assert max(closed_form_check(sol, P10).values()) < 1e-12
        # cross-check through the generic tangency machinery
        p = PluckerVector(1, 3, tuple(map(complex, sol.numeric())))
        assert check_plucker_relations(p) < 1e-12
        for q in quadrics:
            assert is_tangent(q, p) < 1e-12


def test_solutions_distinct():
    sols = enumerate_tangents(P10)
    assert pairwise_min_distance(sols) > 1e-6


def test_corrupted_sign_violates_plucker_relation():
    sol = next(s for s in enumerate_tangents(P10) if s.case == 1)
    v = sol.numeric()
    v[5] = -v[5]  # flip p23 against the forced sign pattern
    p01, p02, p03, p12, p13, p23 = v
    residual = abs(p01 * p23 - p02 * p13 + p03 * p12)
    assert residual > 1e-3


# -- reality ------------------------------------------------------------------


def test_reality_inside_bound():
    params = TetraParams.of(F(17, 100), F(17, 100))
    assert below_reality_bound(F(17, 100))
    assert reality_count(params) == (32, 0)


def test_reality_past_discriminant():
    params = TetraParams.of(F(1, 5), F(1, 5))
    assert params.discriminant() == F(4096, 10000) - F(64, 100)
    assert params.discriminant() < 0
    assert reality_count(params) == (16, 16)


def test_reality_figure_parameters():
    assert reality_count(TetraParams.of(F(1, 10), F(1, 20))) == (32, 0)


@pytest.mark.parametrize("alpha,beta", [
    (F(-1, 10), F(-1, 10)), (F(-1, 10), F(1, 10)), (F(1, 2), F(1, 2)),
    (F(3, 2), F(5, 2)), (F(1, 100), F(90, 100)),
])
def test_reality_matches_numeric_oracle(alpha, beta):
    params = TetraParams.of(alpha, beta)
    real, nonreal = reality_count(params)
    assert real + nonreal == 32
    assert real == numeric_reality_count(params)


def test_reality_counts_quantized_for_positive_parameters():
    for alpha, beta in [(F(1, 10), F(1, 10)), (F(1, 5), F(1, 5)),
                        (F(1, 2), F(2, 3)), (F(9, 10), F(9, 10))]:
        real, _ = reality_count(TetraParams.of(alpha, beta))
        assert real in (0, 16, 32)


def test_discriminant_monotone_on_reality_strip():
    # for fixed alpha below the bound, the discriminant stays positive on
    # 0 < beta <= alpha (sampled on a fine rational grid)
    for alpha in (F(1, 10), F(17, 100), F(1, 50)):
        assert below_reality_bound(alpha)
        for i in range(1, 101):
            beta = alpha * F(i, 100)
            params = TetraParams.of(alpha, beta)
            assert params.discriminant() > 0
            assert reality_count(params) == (32, 0)


def test_reality_bound_exact_comparisons():
    assert below_reality_bound(F(17, 100))
    assert not below_reality_bound(F(18, 100))  # 0.18 > 3 - 2 sqrt2
    assert not below_reality_bound(0)
    assert not below_reality_bound(F(-1, 10))


# -- degeneracies -------------------------------------------------------------


@pytest.mark.parametrize("alpha,beta,factor", [
    (0, F(1, 10), "alpha"),
    (F(1, 10), 0, "beta"),
    (1, F(1, 10), "1-alpha^2"),
    (F(1, 10), -1, "1-beta^2"),
    (F(2), F(1, 2), "1-alpha*beta"),
    (F(1, 9), F(1, 4), "(1-alpha)^2*(1-beta)^2-16*alpha*beta"),
])
def test_degeneracy_names_vanishing_factor(alpha, beta, factor):
    params = TetraParams.of(alpha, beta)
    with pytest.raises(DegeneracyError) as err:
        enumerate_tangents(params)
    assert factor in err.value.factors


def test_near_degenerate_parameters_still_verify():
    # just off the discriminant zero at (1/9, 1/4): tiny but nonzero gap,
    # 5.7e-9 at the closer point, below what sqrt(2 - 2|<u,v>|) resolves
    for offset in (F(1, 10 ** 7), F(1, 10 ** 17)):
        params = TetraParams.of(F(1, 9), F(1, 4) + offset)
        disc = params.discriminant()
        assert disc != 0 and abs(disc) < F(1, 10 ** 6)
        sols = enumerate_tangents(params)
        for sol in sols:
            assert max(verify_solution(sol, params).values()) < 1e-9
            assert max(closed_form_check(sol, params).values()) < 1e-9
        gap = pairwise_min_distance(sols)
        assert gap > 0  # distinctness gap shrinks with the discriminant


# -- the stacked closed-form check --------------------------------------------


def num(s: Surd) -> complex:
    return complex(s.numeric())


def per_solution_vector(sol) -> np.ndarray:
    """Reference: one solution instantiated on its own, two square roots."""
    u, v = np.emath.sqrt(num(sol.sq_out)), np.emath.sqrt(num(sol.sq_in))
    s01, s03, s12 = sol.signs
    p01, p03, p12, p23 = s01 * u, s03 * u, s12 * v, sol.sign23 * v
    p13 = num(Surd(sol.p13)) if sol.p13 is not None else p01 * p23 + p03 * p12
    return np.array([p01, num(Surd(sol.p02)), p03, p12, p13, p23], dtype=complex)


def per_solution_check(sol, params) -> dict:
    """Reference: the residual of each compiled condition at one solution,
    evaluated on its own."""
    p = per_solution_vector(sol)
    c = params.conditions
    norm = np.sqrt(np.sum(np.abs(p) ** 2))
    res = np.abs((c.quad @ p) @ p + c.lin @ p) / (c.scale * norm ** c.degree)
    return {label: float(r) for label, r in zip(c.labels, res)}


def closed_form_check(sol, params) -> dict:
    """Two equations of the closed form's derivation at one solution, each
    normalized by the squared coordinate norm: the eliminated linear row
    -beta p02^2 - beta p13^2 + (1-alpha)(1-beta) p03^2 and the equal-squares
    chain alpha p01^2 = alpha p03^2 = beta p12^2 = beta p23^2.  Both are
    linear combinations of the tangency rows (the forms are diagonal), so
    they check the derivation, not a certificate."""
    p = per_solution_vector(sol)
    a, b = num(Surd(params.alpha)), num(Surd(params.beta))
    norm2 = float(np.sum(np.abs(p) ** 2))
    p01, p02, p03, p12, p13, p23 = p
    row = -b * p02 ** 2 - b * p13 ** 2 + (1 - a) * (1 - b) * p03 ** 2
    chain = [a * p01 ** 2 - a * p03 ** 2, a * p03 ** 2 - b * p12 ** 2,
             b * p12 ** 2 - b * p23 ** 2]
    return {"eliminated row": abs(complex(row)) / norm2,
            "square chain": max(abs(complex(c)) for c in chain) / norm2}


def same_bits(x, y) -> bool:
    return (x.dtype == y.dtype and np.array_equal(x, y)
            and np.array_equal(np.signbit(x.real), np.signbit(y.real))
            and np.array_equal(np.signbit(x.imag), np.signbit(y.imag)))


# the case ids name the double precision the bits are compared in
@pytest.mark.parametrize("alpha,beta", [(F(1, 10), F(1, 20)), (F(1, 5), F(1, 5)),
                                        (F(3, 7), F(2, 9))],
                         ids=[f"alpha{i}-beta{i}-double" for i in range(3)])
def test_stacked_check_has_the_per_solution_bits(alpha, beta):
    # below the reality bound (32 real), above it (16 + 16), and far off
    params = TetraParams.of(alpha, beta)
    sols = enumerate_tangents(params)
    vectors = numeric_vectors(sols)
    scene = Scene(3, quadrics=list(family(params)))
    table = solution_residuals(scene, vectors)
    assert vectors.shape == (32, 6) and len(table) == 32
    assert reality_flags(sols) == [sol.is_real() for sol in sols]
    for sol, vec, residuals in zip(sols, vectors, table):
        assert same_bits(vec, per_solution_vector(sol))
        assert same_bits(sol.numeric(), vec)
        expected = per_solution_check(sol, params)
        assert list(residuals.items()) == list(expected.items())
        assert verify_solution(sol, params) == expected
        assert max(closed_form_check(sol, params).values()) < 1e-12
