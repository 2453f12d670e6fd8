import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtangents.exactnum import RatMatrix, Surd, det, rank
from quadtangents.grassmann import (
    TIE_TOL,
    DegenerateFlatError,
    DualFlat,
    PluckerVector,
    ProjFlat,
    check_plucker_relations,
    chordal_distance,
    close_pairs,
    counts,
    dual_plucker,
    incidence,
    line_through,
    moment_osculating_flat,
    normalize_endpoint,
    plucker,
    sphere_tangent_line_count,
    tetrahedron_lines,
    transversals_to_4_lines,
)

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return RatMatrix.from_rows(
        [[F(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)])


def meets_by_rank(u: ProjFlat, v_span: ProjFlat) -> bool:
    """Independent incidence oracle: two flats meet in P^n iff their stacked
    spans drop rank."""
    stacked = RatMatrix.from_rows(u.span.transpose().to_rows()
                                  + v_span.span.transpose().to_rows())
    return rank(stacked) < u.span.cols + v_span.span.cols


# -- Pluecker coordinates -----------------------------------------------------


def test_plucker_coordinate_line():
    line = ProjFlat.from_points([[0, 1, 0, 0], [0, 0, 0, 1]])  # span(e1, e3)
    p = plucker(line)
    assert p.coords == (F(0), F(0), F(0), F(0), F(1), F(0))  # p13 = 1


def test_plucker_tetrahedron_edge():
    # the edge x0 = x3 = 0 is spanned by e1, e2: only p12 survives
    p = plucker(tetrahedron_lines()[0])
    assert p.coords == (F(0), F(0), F(0), F(1), F(0), F(0))


def test_plucker_satisfies_relations_random():
    rng = random.Random(11)
    for _ in range(20):
        m = rand_matrix(rng, 4, 2)
        if rank(m) < 2:
            continue
        assert check_plucker_relations(plucker(ProjFlat(m))) == 0


def test_plucker_rejects_degenerate_span():
    with pytest.raises(DegenerateFlatError):
        ProjFlat(RatMatrix.from_rows([[1, 2], [2, 4], [0, 0], [0, 0]]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=2, max_size=2),
                min_size=4, max_size=4),
       st.lists(st.lists(small_fraction, min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_plucker_invariant_under_basis_change(span_rows, g_rows):
    span = RatMatrix.from_rows(span_rows)
    g = RatMatrix.from_rows(g_rows)
    if rank(span) < 2 or det(g) == 0:
        return
    p = plucker(ProjFlat(span))
    q = plucker(ProjFlat(span @ g))
    assert p.coords == q.coords  # both normalized to leading coordinate 1


def test_dual_plucker_coordinate_line():
    # x0 = x2 = 0 as the intersection of the hyperplanes x0 and x2
    dual = DualFlat(RatMatrix.from_rows([[1, 0], [0, 0], [0, 1], [0, 0]]))
    q = dual_plucker(dual)
    assert q.coords == (F(0), F(1), F(0), F(0), F(0), F(0))  # q02 = 1


def test_dual_plucker_second_tetrahedron_edge():
    # x0 = x1 = 0 has dual coordinates concentrated on q01
    edge = tetrahedron_lines()[1]
    q = dual_plucker(edge.dual())
    assert q.coords == (F(1), F(0), F(0), F(0), F(0), F(0))


def test_check_relations_detects_non_lines():
    p = PluckerVector(1, 3, (F(1), F(0), F(0), F(0), F(0), F(1)))
    assert check_plucker_relations(p) != 0
    q = PluckerVector(1, 3, (F(0), F(1), F(0), F(0), F(1), F(0)))
    assert check_plucker_relations(q) != 0


def test_incidence_matches_rank_oracle_random():
    rng = random.Random(23)
    tried_meet = tried_miss = 0
    while tried_meet < 12 or tried_miss < 12:
        m = rand_matrix(rng, 4, 2)
        w = rand_matrix(rng, 4, 2)
        if rank(m) < 2 or rank(w) < 2:
            continue
        if rng.random() < 0.5:
            # force an intersection: make both flats share a point
            shared = [list(m.col(0))]
            w = RatMatrix.from_rows(shared + [list(w.col(1))]).transpose()
            if rank(w) < 2:
                continue
        u, v = ProjFlat(m), ProjFlat(w)
        value = incidence(plucker(u), dual_plucker(v.dual()))
        meets = meets_by_rank(u, v)
        assert (value == 0) == meets
        tried_meet += meets
        tried_miss += not meets


def test_incidence_rank_oracle_in_higher_dimensions():
    # planes vs lines in P^4: the dual side is genuinely different from the
    # primal one here (k=2, so V is a 1-plane cut out by three hyperplanes)
    rng = random.Random(31)
    seen_meet = seen_miss = 0
    while seen_meet < 5 or seen_miss < 5:
        u_pts = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        v_pts = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(2)]
        if rng.random() < 0.5:
            v_pts[0] = u_pts[0]
        try:
            u = ProjFlat.from_points(u_pts)
            v = ProjFlat.from_points(v_pts)
        except DegenerateFlatError:
            continue
        value = incidence(plucker(u), dual_plucker(v.dual()))
        meets = rank(RatMatrix.from_rows(u_pts + v_pts)) < 5
        assert (value == 0) == meets
        seen_meet += meets
        seen_miss += not meets


def test_incidence_shape_mismatch():
    p = plucker(ProjFlat.from_points([[0, 1, 0, 0], [0, 0, 0, 1]]))
    q = PluckerVector(1, 4, tuple(F(int(i == 0)) for i in range(10)))
    with pytest.raises(Exception):
        incidence(p, q)


# -- counting -----------------------------------------------------------------


def test_counts_lines_in_p3():
    c = counts(1, 3)
    assert (c.dim, c.degree, c.total) == (4, 2, 32)


def test_counts_lines_in_p4():
    c = counts(1, 4)
    assert (c.dim, c.degree, c.total) == (6, 5, 320)


def test_counts_planes_in_p5():
    c = counts(2, 5)
    assert (c.dim, c.degree, c.total) == (9, 42, 21504)


def test_counts_degree_is_catalan_for_lines():
    for n in range(3, 13):
        catalan = math.comb(2 * (n - 1), n - 1) // n
        assert counts(1, n).degree == catalan


def test_counts_range_check():
    with pytest.raises(ValueError):
        counts(2, 3)


def test_sphere_count_row():
    assert [sphere_tangent_line_count(n) for n in range(3, 10)] == \
        [12, 24, 48, 96, 192, 384, 768]


# -- transversals -------------------------------------------------------------


def test_tetrahedron_transversals_exact():
    result = transversals_to_4_lines(tetrahedron_lines())
    assert not result.infinite
    assert result.count == 2 and result.real_count == 2
    got = sorted(tuple(t.vector.coords) for t in result.transversals)
    p02 = tuple(F(int(i == 1)) for i in range(6))
    p13 = tuple(F(int(i == 4)) for i in range(6))
    assert got == sorted([p02, p13])


def test_transversals_satisfy_incidence_exactly():
    lines = tetrahedron_lines()
    result = transversals_to_4_lines(lines)
    for t in result.transversals:
        for line in lines:
            value = incidence(t.vector, dual_plucker(line.dual()))
            assert value == 0
        assert check_plucker_relations(t.vector) == 0


def test_twisted_cubic_tangent_transversals():
    tangents = [moment_osculating_flat(3, s) for s in (0, 1, 2, 3)]
    result = transversals_to_4_lines(tangents)
    assert result.count == 2 and result.real_count == 2


def test_twisted_cubic_transversals_exact_in_radical_field():
    tangents = [moment_osculating_flat(3, F(s)) for s in (-2, F(1, 3), 1, 5)]
    result = transversals_to_4_lines(tangents)
    assert result.real_count == 2
    for t in result.transversals:
        for line in tangents:
            value = incidence(t.vector, dual_plucker(line.dual()))
            assert value == 0 or (isinstance(value, Surd) and value.is_zero)
        rel = check_plucker_relations(t.vector)
        assert rel == 0 or (isinstance(rel, Surd) and rel.is_zero)


def test_double_transversal_at_vanishing_discriminant():
    # four lines meeting span(e0, e1) whose incidence pencil is tangent to
    # the Grassmannian quadric: the two transversals collide into one line
    # of multiplicity two, detected by an exactly vanishing discriminant
    import itertools as it

    def span_from_plucker(p):
        pairs = list(it.combinations(range(4), 2))
        m = [[F(0)] * 4 for _ in range(4)]
        for (i, j), v in zip(pairs, p):
            m[i][j], m[j][i] = F(v), -F(v)
        mat = RatMatrix.from_rows(m)
        cols = [list(mat.col(j)) for j in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                cand = RatMatrix.from_rows([cols[a], cols[b]]).transpose()
                if rank(cand) == 2:
                    return ProjFlat(cand)
        raise AssertionError("not a line")

    lines = [span_from_plucker(p) for p in [
        (0, 0, 0, 1, 0, 0),
        (1, 0, 0, 1, 0, 0),
        (0, -1, -1, 1, 1, 0),
        (0, 1, -1, 1, -1, 0),
    ]]
    result = transversals_to_4_lines(lines)
    assert not result.infinite
    assert result.discriminant == 0
    assert result.count == 1
    (t,) = result.transversals
    assert t.multiplicity == 2 and t.real
    assert tuple(t.vector.coords) == tuple(F(int(i == 0)) for i in range(6))


def test_concurrent_lines_give_infinite_family():
    e0 = [1, 0, 0, 0]
    lines = [line_through(e0, [0, 1, 0, 0]),
             line_through(e0, [0, 0, 1, 0]),
             line_through(e0, [0, 0, 0, 1]),
             line_through(e0, [0, 1, 1, 1])]
    result = transversals_to_4_lines(lines)
    assert result.infinite


def test_complex_transversal_pair_detected():
    # four lines on a ruling of a quadric surface chosen so the pencil meets
    # the Pluecker quadric in conjugate points: perturb the tetrahedron
    lines = [
        line_through([0, 1, 0, 0], [0, 0, 1, 0]),
        line_through([0, 0, 1, 1], [1, 0, 0, 0]),
        line_through([1, 0, 0, 0], [0, 1, 0, 1]),
        line_through([1, 1, 0, 0], [0, 0, 0, 1]),
    ]
    result = transversals_to_4_lines(lines)
    if not result.infinite and result.discriminant < 0:
        assert result.real_count == 0
        assert all(not t.real for t in result.transversals)
    # in either case every transversal still satisfies all conditions
    for t in result.transversals:
        for line in lines:
            value = incidence(t.vector, dual_plucker(line.dual()))
            assert value == 0 or (isinstance(value, Surd) and value.is_zero)


# -- moment curve -------------------------------------------------------------


def test_moment_tangent_line_at_origin():
    flat = moment_osculating_flat(3, 0)
    # columns: homogenized point (1,0,0,0) and direction (0,1,0,0)
    assert flat.span.col(0) == (F(1), F(0), F(0), F(0))
    assert flat.span.col(1) == (F(0), F(1), F(0), F(0))


def test_moment_tangent_line_at_one():
    flat = moment_osculating_flat(3, 1)
    assert flat.span.col(0) == (F(1), F(1), F(1), F(1))
    assert flat.span.col(1) == (F(0), F(1), F(2), F(3))


def test_moment_osculating_plane_in_p4():
    flat = moment_osculating_flat(4, 0)
    assert (flat.n, flat.k) == (4, 2)
    assert flat.span.col(0) == (F(1), F(0), F(0), F(0), F(0))
    assert flat.span.col(1) == (F(0), F(1), F(0), F(0), F(0))
    assert flat.span.col(2) == (F(0), F(0), F(2), F(0), F(0))


@pytest.mark.parametrize("tol", [1e-6, 1e-3, 1e-9])
def test_close_pairs_matches_every_pair_distance(tol):
    rng = np.random.default_rng(4)
    base = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    vectors = []
    for v in base:  # each ray, rescaled copies of it at distances around tol
        for d in (0.0, 0.3 * tol, 0.9 * tol, 1.1 * tol, 3 * tol):
            w = v + d * np.linalg.norm(v) * rng.normal(size=6) / np.sqrt(6)
            vectors.append(w * (2.0 + rng.random()) * np.exp(2j * np.pi * rng.random()))
    expected = [(a, b) for a in range(len(vectors)) for b in range(a + 1, len(vectors))
                if chordal_distance(vectors[a], vectors[b]) < tol]
    assert close_pairs(vectors, tol) == expected
    assert len(expected) > len(base)
    # conjugate=True pairs b with the conjugate of a: conjugating every other
    # ray keeps the distances above between rays of opposite parity only
    mixed = [np.conj(w) if k % 2 else w for k, w in enumerate(vectors)]
    expected = [(a, b) for a in range(len(mixed)) for b in range(a + 1, len(mixed))
                if chordal_distance(np.conj(mixed[a]), mixed[b]) < tol]
    assert close_pairs(mixed, tol, conjugate=True) == expected
    assert expected and all((b - a) % 2 for a, b in expected)


def test_normalize_endpoint_ignores_ulp_ties():
    # p01 = -p03 tie for the largest magnitude: one ulp more on either must
    # not switch the coordinate rotated real-positive (which flips the sign)
    v = np.array([0.522217, 0.1 + 0.2j, -0.522217, 0.3, -0.4j, 0.05])
    plain = normalize_endpoint(v)
    assert plain[0] > 0
    for k in (0, 2):
        for toward in (-np.inf, np.inf):
            w = v.copy()
            w[k] = np.nextafter(v[k].real, toward)
            assert np.max(np.abs(normalize_endpoint(w) - plain)) < 1e-15


def test_stacked_normalization_and_distance_match_one_row_at_a_time():
    # the reality rule and `verify` normalize stacks; a certificate's numbers
    # must not depend on how many lines were normalized together, nor move
    # from those of the one-vector formula below
    def one_vector(v):
        v = v / np.linalg.norm(v)
        size = np.abs(v)
        z = v[int(np.argmax(size >= (1 - TIE_TOL) * size.max()))]
        return v * (z.conjugate() / abs(z))

    rng = np.random.default_rng(9)
    rows = (rng.normal(size=(200, 6)) + 1j * rng.normal(size=(200, 6))) \
        * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
    rows[::5] = rows[::5].real  # real lines
    rows[::7, 2] = -rows[::7, 0]  # ties for the largest magnitude
    stacked = normalize_endpoint(rows)
    assert all(np.array_equal(row, normalize_endpoint(v)) and np.array_equal(row, one_vector(v))
               for row, v in zip(stacked, rows))
    distances = chordal_distance(rows[:-1], rows[1:])
    assert all(distances[k] == chordal_distance(rows[k], rows[k + 1])
               for k in range(len(rows) - 1))
