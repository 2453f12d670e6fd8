"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line on the terminal (bypassing capture), so
a bare ``pytest tests/test_acceptance.py`` shows the per-criterion verdicts.
"""

import json
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtangents.cli import main
from quadtangents.exactnum import RatMatrix, exterior_power, rank
from quadtangents.grassmann import (
    ProjFlat,
    check_plucker_relations,
    dual_plucker,
    incidence,
    moment_osculating_flat,
    plucker,
    tetrahedron_lines,
    transversals_to_4_lines,
)
from quadtangents.quadrics import LineConditions, cylinder, is_tangent
from quadtangents.tetra32 import TetraParams, enumerate_tangents, family
from quadtangents.tracker import (
    TangentTo,
    TrackOptions,
    doubling_experiment,
    solve_tangency,
)

from test_quadrics import apply_isometry, line_flat, line_to_proj, \
    quaternion_rotation, squared_distance
from test_tracker import match_endpoints


@pytest.fixture
def announce(request, capsys):
    """Print the criterion verdict even under pytest's capture."""
    outcome = {"passed": True}
    yield outcome
    label = outcome.get("label", request.node.name)
    status = "PASS" if outcome["passed"] else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {label}: {status}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- criterion 1: counting table ----------------------------------------------


def test_criterion_1_counting_table(announce, capsys):
    announce["label"] = "1 counting table n=3..9"
    announce["passed"] = False
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "counts", "--table")
    elapsed = time.perf_counter() - t0
    assert code == 0
    totals = [int(x) for x in out.strip().splitlines()[-1].split()[1:]]
    assert totals == [32, 320, 3584, 43008, 540672, 7028736, 93716480]
    assert elapsed < 1.0
    announce["passed"] = True


# -- criterion 2: closed-form reality -----------------------------------------


@pytest.mark.parametrize("alpha,beta", [("1/10", "1/10"), ("1/10", "1/20")])
def test_criterion_2_closed_form_reality(announce, capsys, alpha, beta):
    announce["label"] = f"2 closed form alpha={alpha} beta={beta}"
    announce["passed"] = False
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "tetra", alpha, beta)
    elapsed = time.perf_counter() - t0
    assert code == 0
    cert = json.loads(out)
    assert cert["counts"] == {"total": 32, "real": 32, "nonreal": 0}
    assert len(cert["solutions"]) == 32
    for sol in cert["solutions"]:
        assert sol["real"] is True
        assert sol["residual"] < 1e-12
    # pairwise distinctness of the normalized solutions
    vecs = []
    for sol in cert["solutions"]:
        coords = sol["plucker"]["coords"]
        v = np.array([complex(*c) if isinstance(c, list) else complex(c)
                      for c in (coords[k] for k in ("01", "02", "03", "12", "13", "23"))])
        vecs.append(v / np.linalg.norm(v))
    for i in range(32):
        for j in range(i + 1, 32):
            ip = abs(np.vdot(vecs[i], vecs[j]))
            assert np.sqrt(max(0.0, 2 - 2 * ip)) > 1e-6
    assert elapsed < 1.0
    announce["passed"] = True


# -- criterion 3: reality boundary and degeneracy exits ------------------------


def test_criterion_3_reality_boundary(announce, capsys):
    announce["label"] = "3 reality boundary + degeneracy exits"
    announce["passed"] = False
    params = TetraParams.of(F(1, 5), F(1, 5))
    assert params.discriminant() == F(-2304, 10000)  # exactly -0.2304
    code, out, _ = run_cli(capsys, "tetra", "1/5", "1/5")
    cert = json.loads(out)
    assert code == 0
    assert cert["counts"] == {"total": 32, "real": 16, "nonreal": 16}

    for alpha, beta, factor in [
        ("0", "1/10", "alpha"),
        ("1/10", "0", "beta"),
        ("1", "1/10", "1-alpha^2"),
        ("-1", "1/10", "1-alpha^2"),
        ("1/10", "1", "1-beta^2"),
        ("2", "1/2", "1-alpha*beta"),
        ("1/9", "1/4", "(1-alpha)^2*(1-beta)^2-16*alpha*beta"),
    ]:
        code, _, err = run_cli(capsys, "tetra", alpha, beta)
        assert code == 2
        assert factor in err
    announce["passed"] = True


# -- criterion 4: tracker consistency -----------------------------------------


def test_criterion_4_tracker_consistency(announce):
    announce["label"] = "4 tracker vs closed form"
    announce["passed"] = False
    t0 = time.perf_counter()
    target = LineConditions.compile(
        enumerate(TangentTo(q) for q in family(TetraParams.of(F(1, 10), F(1, 20)))))
    res = solve_tangency(target, TrackOptions(seed=7))
    assert res.start_policy == "tetra" and res.converged_count == 32
    assert len(res.endpoints) == 32
    closed = [s.numeric() for s in enumerate_tangents(TetraParams.of(F(1, 10), F(1, 20)))]
    assert match_endpoints(res.endpoints, closed) < 1e-9
    # deterministic per seed
    res2 = solve_tangency(target, TrackOptions(seed=7))
    for a, b in zip(res.paths, res2.paths):
        assert a.steps == b.steps and np.array_equal(a.end, b.end)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce["passed"] = True


# -- criterion 5: doubling experiment ------------------------------------------


def test_criterion_5_doubling(announce):
    announce["label"] = "5 doubling experiment counts 2,4,8,16,32"
    announce["passed"] = False
    result = doubling_experiment("auto", TrackOptions(seed=5))
    assert result.counts == [2, 4, 8, 16, 32]
    assert result.exact_stage0_count == 2
    assert result.rows[0].real_count == result.exact_stage0_count
    announce["passed"] = True


# -- criterion 6: transversal exactness ----------------------------------------


def test_criterion_6_transversals(announce):
    announce["label"] = "6 transversal exactness (tetrahedron + 50 moment draws)"
    announce["passed"] = False
    result = transversals_to_4_lines(tetrahedron_lines())
    coords = sorted(tuple(t.vector.coords) for t in result.transversals)
    p02 = tuple(F(int(i == 1)) for i in range(6))
    p13 = tuple(F(int(i == 4)) for i in range(6))
    assert coords == sorted([p02, p13])

    rng = random.Random(2024)
    draws = 0
    while draws < 50:
        values = {F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(4)}
        if len(values) != 4:
            continue
        tangents = [moment_osculating_flat(3, s) for s in sorted(values)]
        res = transversals_to_4_lines(tangents)
        assert not res.infinite
        assert res.real_count == 2
        draws += 1
    announce["passed"] = True


# -- criterion 7: property suites ----------------------------------------------

small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def st_matrix(n):
    return st.lists(st.lists(small_fraction, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(RatMatrix.from_rows)


@settings(max_examples=40, deadline=None)
@given(st_matrix(4), st_matrix(4))
def test_criterion_7a_cauchy_binet(a, b):
    lhs = exterior_power(a @ b, 2)
    rhs = exterior_power(a, 2) @ exterior_power(b, 2)
    assert lhs.entries == rhs.entries


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=2, max_size=2),
                min_size=4, max_size=4))
def test_criterion_7b_plucker_closure(rows):
    m = RatMatrix.from_rows(rows)
    if rank(m) < 2:
        return
    assert check_plucker_relations(plucker(ProjFlat(m))) == 0


def test_criterion_7c_incidence_rank_equivalence(announce):
    announce["label"] = "7c incidence <-> rank drop, 200 instances"
    announce["passed"] = False
    rng = random.Random(99)
    checked = met = 0
    while checked < 200:
        pt = lambda: [F(rng.randint(-5, 5)) for _ in range(4)]
        u_pts = [pt(), pt()]
        v_pts = [pt(), pt()]
        if rng.random() < 0.5:
            v_pts[0] = u_pts[0]  # force an intersection point
        try:
            u = ProjFlat.from_points(u_pts)
            v = ProjFlat.from_points(v_pts)
        except Exception:
            continue
        stacked = RatMatrix.from_rows(u_pts + v_pts)
        meets = rank(stacked) < 4
        value = incidence(plucker(u), dual_plucker(v.dual()))
        assert (value == 0) == meets
        met += meets
        checked += 1
    assert met >= 50  # both branches of the equivalence get exercised
    announce["passed"] = True


def test_criterion_7d_tangency_distance_equivalence(announce):
    announce["label"] = "7d tangency <-> distance r (exact)"
    announce["passed"] = False
    rng = random.Random(41)
    tangents = others = 0
    while tangents < 10 or others < 20:
        m, n_ = rng.randint(1, 4), rng.randint(1, 4)
        if m == n_:
            continue
        scale = F(rng.randint(1, 3), rng.randint(1, 3))
        r = scale * (m * m + n_ * n_)
        a, b = scale * (m * m - n_ * n_), scale * (2 * m * n_)
        rot = quaternion_rotation(rng.randint(1, 3), rng.randint(-2, 2),
                                  rng.randint(-2, 2), rng.randint(-2, 2))
        shift = [F(rng.randint(-3, 3)) for _ in range(3)]
        axis_pt, axis_dir = apply_isometry(rot, shift, [0, 0, 0], [1, 0, 0])
        u = line_flat(axis_pt, axis_dir)
        q = cylinder(u, r)

        c = F(rng.randint(1, 3))
        pt, d = apply_isometry(rot, shift, [0, a, b],
                               [F(rng.randint(-2, 2)), -b * c, a * c])
        assert squared_distance(pt, d, u) == r * r
        assert is_tangent(q, plucker(line_to_proj(pt, d))) == 0
        tangents += 1

        pt = [F(rng.randint(-4, 4)) for _ in range(3)]
        d = [F(rng.randint(-3, 3)) for _ in range(3)]
        if all(x == 0 for x in d):
            continue
        dist2 = squared_distance(pt, d, u)
        res = is_tangent(q, plucker(line_to_proj(pt, d)))
        assert (res == 0) == (dist2 == r * r)
        others += 1
    announce["passed"] = True


def test_criterion_7e_conjugate_pairing(announce):
    announce["label"] = "7e conjugate pairing of nonreal endpoints"
    announce["passed"] = False
    for seed in (301, 302, 303):
        rng = np.random.default_rng(seed)
        conds = []
        for _ in range(4):
            m = rng.uniform(-1, 1, size=(4, 4))
            conds.append(TangentTo((m + m.T) / 2))
        res = solve_tangency(LineConditions.compile(enumerate(conds)),
                             TrackOptions(seed=seed))
        rep = res.reality()
        assert rep.nonreal_count % 2 == 0 and not rep.unpaired
    announce["passed"] = True


def test_criterion_7f_gamma_independence(announce):
    announce["label"] = "7f gamma independence of endpoint sets"
    announce["passed"] = False
    for scene_seed in (7, 8):
        rng = np.random.default_rng(scene_seed)
        conds = []
        for _ in range(4):
            m = rng.uniform(-1, 1, size=(4, 4))
            conds.append(TangentTo((m + m.T) / 2))
        system = LineConditions.compile(enumerate(conds))
        res1 = solve_tangency(system, TrackOptions(seed=1000 + scene_seed))
        res2 = solve_tangency(system, TrackOptions(seed=2000 + scene_seed))
        assert match_endpoints(res1.endpoints, res2.endpoints) < 1e-8
    announce["passed"] = True


# -- criterion 8: random-quadric robustness ------------------------------------


def test_criterion_8_random_scene_robustness(announce):
    announce["label"] = "8 random 4-quadric scenes, 100/100"
    announce["passed"] = False
    failures = []
    for scene_idx in range(100):
        rng = np.random.default_rng(1000 + scene_idx)
        conds = []
        for _ in range(4):
            m = rng.uniform(-1, 1, size=(4, 4))
            conds.append(TangentTo((m + m.T) / 2))
        res = solve_tangency(LineConditions.compile(enumerate(conds)),
                             TrackOptions(seed=scene_idx))
        rep = res.reality()
        ok = (res.converged_count == 32
              and len(res.endpoints) == 32
              and res.max_residual() < 1e-10
              and rep.nonreal_count % 2 == 0
              and not rep.unpaired)
        if not ok:
            failures.append((scene_idx, res.converged_count,
                             res.max_residual(), rep.nonreal_count))
    if failures:
        print("failing scenes:", failures)
    assert len(failures) == 0, f"{len(failures)} of 100 scenes failed"
    announce["passed"] = True
