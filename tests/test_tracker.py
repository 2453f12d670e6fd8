import ast
import dataclasses
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from quadtangents import grassmann
from quadtangents.grassmann import (
    RESIDUAL_TOL,
    PluckerVector,
    check_plucker_relations,
    chordal_distance,
    normalize_endpoint,
)
from quadtangents import quadrics, tracker
from quadtangents.exactnum import RatMatrix
from quadtangents.quadrics import LineConditions, Quadric, cylinder, is_tangent
from quadtangents.tetra32 import TetraParams, enumerate_tangents, family
from quadtangents.tracker import (
    Meets,
    TangentTo,
    classify_real,
    doubling_experiment,
    regular_tetrahedron_lines,
    solve_tangency,
    tetra_start,
    total_degree_start,
    track,
)

P10 = TetraParams.of(F(1, 10), F(1, 10))
P20 = TetraParams.of(F(1, 10), F(1, 20))


def line_system(conditions) -> LineConditions:
    return LineConditions.compile(enumerate(conditions))


def tetra_system(params) -> LineConditions:
    return params.conditions


def random_quadrics(seed) -> list[TangentTo]:
    rng = np.random.default_rng(seed)
    conds = []
    for _ in range(4):
        m = rng.uniform(-1, 1, size=(4, 4))
        conds.append(TangentTo((m + m.T) / 2))
    return conds


def random_quadric_system(seed) -> LineConditions:
    return line_system(random_quadrics(seed))


def match_endpoints(first, second) -> float:
    """Largest chordal distance in a minimum-cost one-to-one matching of two
    equally long endpoint sets."""
    from scipy.optimize import linear_sum_assignment

    assert len(first) == len(second)
    cost = np.array([[chordal_distance(u, v) for v in second] for u in first])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# -- systems -------------------------------------------------------------------


def test_root_bounds():
    lines = [ln.to_projective() for ln in regular_tetrahedron_lines()]
    meets = [Meets(p.dual()) for p in lines]
    assert line_system(meets).root_bound == 2
    assert tetra_system(P10).root_bound == 32
    for i in range(5):
        conds = [TangentTo(q) for q in family(P10)[:i]] + meets[i:]
        assert line_system(conds[:4]).root_bound == 2 ** i * 2


def test_root_bound_counts_sphere_tangents():
    def quadric(rows):
        return TangentTo(Quadric(RatMatrix.from_rows(rows)))

    spheres = [TangentTo(sphere(c, r)) for c, r in SPHERE_SCENES["plain"][1]]
    assert line_system(spheres).root_bound == 12
    # a scaled sphere, and one of imaginary radius (|x|^2 = -1), are spheres
    scaled = quadric([[-3 * x for x in row] for row in sphere((5, 1, -7), 40).matrix.to_rows()])
    imaginary = quadric([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert line_system(spheres[:2] + [scaled, imaginary]).root_bound == 12
    # so is a sphere given as a float array
    floats = TangentTo(sphere((5, 1, -7), 40).to_numpy())
    assert line_system(spheres[:3] + [floats]).root_bound == 12
    # an ellipsoid is not, however close to a sphere, nor is a quadric
    # whose Q[1:, 1:] is 0; the test is exact, so an ellipsoid whose
    # rounded tangency form is a sphere's is still no sphere
    ellipsoid = quadric([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    assert line_system(spheres[:3] + [ellipsoid]).root_bound == 32
    for eps in (F(1, 10**9), F(1, 10**20)):
        near = quadric([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1 + eps]])
        assert line_system(spheres[:3] + [near]).root_bound == 32
    big = quadric([[-1, 0, 0, 0], [0, 10**20, 0, 0], [0, 0, 10**20, 0], [0, 0, 0, 10**20 + 1]])
    assert np.array_equal(TangentTo(big.quadric).form()[3:, 3:],
                          TangentTo(big.quadric).form()[3, 3] * np.eye(3))
    assert line_system(spheres[:3] + [big]).root_bound == 32
    flat = quadric([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert line_system(spheres[:3] + [flat]).root_bound == 32
    assert [c.root_bound for c in doubling_stages()] == [2, 4, 8, 16, 32]


def test_total_degree_start_count_matches_root_bound():
    for i in range(5):
        lines = [ln.to_projective() for ln in regular_tetrahedron_lines()]
        conds = tuple([TangentTo(q) for q in family(P10)[:i]]
                      + [Meets(p.dual()) for p in lines][i:])[:4]
        system = line_system(conds)
        # the total-degree start has one point per root of the system
        _, sols = total_degree_start(system)
        assert len(sols) == system.root_bound


def test_systems_take_four_line_conditions():
    with pytest.raises(TypeError):
        line_system([TangentTo(np.eye(4)), "not a condition"])
    with pytest.raises(ValueError, match="exactly 4 conditions"):
        solve_tangency(line_system(TangentTo(q) for q in family(P10)[:3]))


def test_total_degree_start_solves_its_system():
    start, sols = total_degree_start(tetra_system(P10))
    # Bezout count of the system equals the root bound: no excess
    assert len(sols) == 32
    assert np.max(start.residual_table(sols)) < 1e-12


@pytest.mark.parametrize("stage", range(5))
def test_total_degree_start_is_a_system_like_any_other(stage):
    # four linear rows (stage 0), doubling's mixed stages, and four
    # quadratic rows (stage 4): the start's root bound is its start count,
    # and solving the start gives back its start points
    start, starts = total_degree_start(doubling_stages()[stage])
    assert start.spheres == (None,) * 5
    assert start.root_bound == len(starts) == 2 << stage
    res = solve_tangency(start, seed=0)
    assert len(res.endpoints) == len(starts)
    assert match_endpoints(res.endpoints, starts) < 1e-9


def test_tetra_start_satisfies_its_system():
    conditions, starts = tetra_start()
    assert len(starts) == 32
    assert np.max(conditions.residual_table(starts)) < 1e-12


# -- tracking -----------------------------------------------------------------


def test_constant_homotopy_returns_start_points():
    start, starts = tetra_start()
    paths = track(start, starts, start, seed=3)
    assert all(p.converged for p in paths)
    for p, x in zip(paths, starts):
        assert chordal_distance(p.endpoint, x) < 1e-12


def test_a_tracked_path_is_built_once():
    # a path's record is a value: the retrack and the jump flag build new
    # records rather than write into the ones they are handed
    start, starts = tetra_start()
    (path,) = track(start, starts[:1], start, seed=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        path.status = "path-jump-suspected"


def test_tracking_matches_closed_form():
    res = solve_tangency(tetra_system(P20), seed=7)
    assert res.start_policy == "tetra"
    assert len(res.endpoints) == 32
    closed = [s.numeric() for s in enumerate_tangents(P20)]
    assert match_endpoints(res.endpoints, closed) < 1e-9


def test_endpoints_are_the_normalized_distinct_endpoints():
    # one (N, 6) stack with the bits of each endpoint normalized alone: the
    # lines `track` certifies and `doubling` counts
    res = solve_tangency(random_quadric_system(5), seed=5)
    distinct = res.distinct_paths
    assert res.endpoints.shape == (len(distinct), 6) and len(distinct) == 32
    for row, p in zip(res.endpoints, distinct):
        assert np.array_equal(row, normalize_endpoint(p.endpoint))
    assert res.reality().is_real == classify_real(res.endpoints).is_real


def test_endpoints_are_normalized_once(monkeypatch):
    # `track` reads the stack for its certificate and for its reality flags
    calls = []

    def counted(v):
        calls.append(len(v))
        return normalize_endpoint(v)

    monkeypatch.setattr(tracker, "normalize_endpoint", counted)
    res = solve_tangency(random_quadric_system(5), seed=5)
    first, second = res.endpoints, res.endpoints
    res.reality()
    assert calls == [32] and second is first


def test_endpoints_satisfy_target_conditions():
    conditions = random_quadrics(5)
    res = solve_tangency(line_system(conditions), seed=5)
    for v in res.endpoints:
        w = normalize_endpoint(v)
        p = PluckerVector(1, 3, tuple(w))
        assert check_plucker_relations(p) < 1e-9
        for cond in conditions:
            form = cond.form()
            raw = abs(w @ form @ w) / np.linalg.norm(form)
            assert raw < 1e-9


def test_random_real_scene_counts():
    res = solve_tangency(random_quadric_system(12), seed=12)
    assert len(res.endpoints) == 32
    assert max(p.residual for p in res.distinct_paths) < 1e-10
    rep = res.reality()
    assert rep.real_count + rep.nonreal_count == 32
    assert rep.nonreal_count % 2 == 0 and not rep.unpaired


def test_closed_form_start_is_solved_once(monkeypatch):
    calls = []
    enumerate_ = tracker.enumerate_tangents

    def counted(params):
        calls.append(params)
        return enumerate_(params)

    monkeypatch.setattr(tracker, "enumerate_tangents", counted)
    for seed in (1, 2):
        res = solve_tangency(tetra_system(P20), seed=seed)
        assert res.start_policy == "tetra" and len(res.endpoints) == 32
    # the start family never changes, so its tangents are solved at most once
    assert len(calls) <= 1


def test_gamma_independence_of_endpoints():
    system = random_quadric_system(9)
    res1 = solve_tangency(system, seed=101)
    res2 = solve_tangency(system, seed=202)
    assert match_endpoints(res1.endpoints, res2.endpoints) < 1e-8


def test_round_trip_tracking():
    system_a, starts = tetra_start()
    system_b = tetra_system(P20)
    forth = track(system_a, starts, system_b, seed=8)
    assert all(p.converged for p in forth)
    back = track(system_b, [p.endpoint for p in forth], system_a, seed=9)
    assert all(p.converged for p in back)
    assert match_endpoints([p.endpoint for p in back], list(starts)) < 1e-8


def test_seed_determinism():
    system = random_quadric_system(4)
    res1 = solve_tangency(system, seed=77)
    res2 = solve_tangency(system, seed=77)
    for a, b in zip(res1.paths, res2.paths):
        assert a.steps == b.steps
        assert np.array_equal(a.endpoint, b.endpoint)


# -- reality classification ---------------------------------------------------


def test_classify_real_on_closed_form_sets():
    all_real = [s.numeric() for s in enumerate_tangents(P10)]
    rep = classify_real(all_real)
    assert rep.real_count == 32 and rep.nonreal_count == 0

    mixed = [s.numeric() for s in enumerate_tangents(TetraParams.of(F(1, 5), F(1, 5)))]
    rep = classify_real(mixed)
    assert rep.real_count == 16
    assert len(rep.conjugate_pairs) == 8 and not rep.unpaired
    # each pair is a nonreal line and the one line near its conjugate
    assert rep.conjugate_pairs == [
        (i, j) for i in range(32) for j in range(i + 1, 32)
        if not rep.is_real[i] and chordal_distance(np.conj(mixed[i]), mixed[j]) < 1e-8]


def test_tetrahedron_transversals_one_at_infinity():
    # transversals of the coordinate tetrahedron: x0=x2=0 lies at infinity
    # (all Pluecker coordinates involving index 0 vanish), x1=x3=0 does not
    from quadtangents.grassmann import tetrahedron_lines

    lines = tetrahedron_lines()
    sys0 = line_system(Meets(l.dual()) for l in lines)
    res = solve_tangency(sys0, seed=31)
    assert len(res.endpoints) == 2
    assert res.reality().real_count == 2
    at_infinity = np.max(np.abs(normalize_endpoint(res.endpoints)[:, :3]), axis=-1) < 1e-8
    assert at_infinity.tolist().count(True) == 1


def test_conjugate_pairing_across_random_scenes():
    for seed in (21, 22, 23):
        res = solve_tangency(random_quadric_system(seed), seed=seed)
        rep = res.reality()
        assert rep.nonreal_count % 2 == 0
        assert not rep.unpaired


# -- the doubling experiment --------------------------------------------------


def test_doubling_experiment_auto(monkeypatch):
    policies = []
    solve = tracker.solve_tangency

    def recorded(*args):
        result = solve(*args)
        policies.append(result.start_policy)
        return result

    monkeypatch.setattr(tracker, "solve_tangency", recorded)
    result = doubling_experiment(seed=5)
    assert result.counts == [2, 4, 8, 16, 32]
    assert result.exact_stage0_count == 2
    assert result.rows[0].real == result.exact_stage0_count
    # stage 0, four incidence conditions, is tracked from its total-degree
    # start; every later stage is split from the one before
    assert policies == ["total-degree"]


def test_doubling_reports_an_auto_stage_that_misses(monkeypatch):
    # stage 2 is made to miss its count at radius 1/10: no stage is solved
    # again, and the miss is reported
    bounds = []
    solve, reality = tracker.solve_tangency, tracker.TrackResult.reality

    def recorded(conditions, *args):
        bounds.append(conditions.root_bound)
        return solve(conditions, *args)

    def miss_stage_2(result):
        rep = reality(result)
        if result.conditions.root_bound == 8:
            rep = dataclasses.replace(rep, is_real=[False] + rep.is_real[1:])
        return rep

    monkeypatch.setattr(tracker, "solve_tangency", recorded)
    monkeypatch.setattr(tracker.TrackResult, "reality", miss_stage_2)
    result = doubling_experiment(seed=5)
    assert bounds == [2]
    assert result.counts == [2, 4, 7, 16, 32]
    assert result.rows[2].radii == (F(1, 10),) * 2
    assert result.misses == ["stage 2: 7 real lines, target 8 (8 of 8 paths converged)"]


def test_doubling_builds_each_cylinder_once(monkeypatch):
    built = []
    cylinder_ = tracker.cylinder

    def counted(line, r):
        built.append(r)
        return cylinder_(line, r)

    monkeypatch.setattr(tracker, "cylinder", counted)
    doubling_experiment([F(1, 10)] * 4, seed=6)
    # stages 1..4 use 1 + 2 + 3 + 4 cylinders, on 4 distinct (line, radius),
    # and each split the axis of one of them, its cylinder of radius 0
    assert built == [F(1, 10)] * 4 + [0] * 4


def test_doubling_rounds_each_cylinder_form_once(monkeypatch):
    forms = []
    form_ = quadrics.tangency_form

    def counted(q, k):
        forms.append(q)
        return form_(q, k)

    monkeypatch.setattr(quadrics, "tangency_form", counted)
    doubling_experiment([F(1, 10)] * 4, seed=6)
    # the 10 cylinder tangencies of stages 1..4 share 4 compiled forms, and
    # the 4 splits each round the form of one cylinder of radius 0
    assert len(forms) == 8 and len({id(q) for q in forms}) == 8


def test_doubling_explicit_radii():
    radii = [F(1, 10)] * 4
    result = doubling_experiment(radii, seed=6)
    assert result.counts == [2, 4, 8, 16, 32]


def test_doubling_huge_radii_reported_honestly():
    result = doubling_experiment([F(10)] * 4, seed=3)
    # huge cylinders break the small-radius hypothesis; counts may fall short
    # but must still be consistent and never exceed the bound
    for row in result.rows:
        assert 0 <= row.real <= row.target


def test_doubling_rejects_nonpositive_radii():
    with pytest.raises(ValueError):
        doubling_experiment([F(0)] * 4, seed=1)

def test_cylinder_stage_two_solutions_are_tangent():
    lines = regular_tetrahedron_lines()
    proj = [ln.to_projective() for ln in lines]
    r = F(1, 10)
    cyls = [cylinder(lines[0], r), cylinder(lines[1], r)]
    conds = (TangentTo(cyls[0]), TangentTo(cyls[1]),
             Meets(proj[2].dual()), Meets(proj[3].dual()))
    res = solve_tangency(line_system(conds), seed=13)
    assert len(res.endpoints) == 8
    assert res.reality().real_count == 8
    for v in res.endpoints:
        w = normalize_endpoint(v)
        p = PluckerVector(1, 3, tuple(w))
        for q in cyls:
            assert is_tangent(q, p) < 1e-9


def test_duplicate_endpoints_flagged():
    # force duplicates by feeding the same start twice
    start, starts = tetra_start()
    doubled = np.vstack([starts, starts[:1]])
    target = tetra_system(P20)
    paths = track(start, doubled, target, seed=14)
    dupes = [p for p in paths if p.duplicate_of is not None]
    assert len(dupes) == 1
    assert dupes[0].status == "path-jump-suspected"
    distinct = [p for p in paths if p.converged and p.duplicate_of is None]
    assert len(distinct) == 32


def test_cluster_retrack_recovers_forced_jumps(monkeypatch, lockstep_passes):
    # steps this coarse and a corrector this loose make paths jump: after the
    # first pass 4 endpoints of criterion-8 scene 62 coincide, and tracking
    # them again with RETRACK_STEPS separates them onto the missing lines
    for name, value in [("FIRST_STEP", 0.2), ("MAX_STEP", 1.0),
                        ("CORRECTOR_TOL", 1e-3), ("STEP_TOL", 1.0)]:
        monkeypatch.setattr(tracker, name, value)
    res = solve_tangency(random_quadric_system(1062), seed=62)
    assert lockstep_passes == [32, 4]
    assert len(res.endpoints) == 32
    assert "path-jump-suspected" not in {p.status for p in res.paths}


# -- lockstep batches -----------------------------------------------------------


def _tetra_to_random_scene(seed):
    return *tetra_start(), random_quadric_system(seed)


def test_batch_tracks_each_path_as_alone():
    start, starts, target = _tetra_to_random_scene(15)
    seed = 15
    together = track(start, starts, target, seed)
    assert len({p.steps for p in together}) > 1  # paths of unequal length
    for x, p in zip(starts, together):
        (alone,) = track(start, [x], target, seed)
        assert alone.status == p.status and alone.steps == p.steps
        assert np.max(np.abs(alone.endpoint - p.endpoint)) < 1e-12


def test_singular_start_fails_alone():
    # at x = 0 the Jacobian is 0, its patch row conj(x) too, so every stacked
    # solve holding this path raises; the path must fail without the others
    start, starts, target = _tetra_to_random_scene(16)
    seed = 16
    plain = track(start, starts, target, seed)
    padded = track(start, np.vstack([starts, np.zeros(6)]), target, seed)
    zero = padded[-1]
    # its stage-0 Jacobian is singular, which no smaller step cures: the
    # path ends after one step
    assert zero.status == "diverged" and zero.endpoint is None and zero.steps == 1
    for a, b in zip(plain, padded):
        assert a.status == b.status and a.steps == b.steps
        assert np.array_equal(a.endpoint, b.endpoint)


def test_path_solves_sum_to_solved_systems(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    start, starts, target = _tetra_to_random_scene(17)
    paths = track(start, starts, target, seed=17)
    assert all(p.solves > 0 for p in paths)
    assert sum(p.solves for p in paths) == sum(calls)
    assert len(calls) <= sum(calls) / 8  # stacked, not one call per system
    # a path leaves each Newton loop once converged, so batching adds no
    # solves: each start tracked alone solves as many systems
    total = sum(calls)
    calls.clear()
    alone = [track(start, [x], target, seed=17)[0] for x in starts]
    assert [p.solves for p in alone] == [p.solves for p in paths]
    assert sum(calls) == total

    # a singular path makes its stacks fall back to one call per row; those
    # systems are counted too
    calls.clear()
    paths = track(start, np.vstack([starts, np.zeros(6)]), target,
                  seed=17)
    assert sum(p.solves for p in paths) == sum(calls)


def test_singular_start_forces_one_fallback_per_pass(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    start, starts, target = _tetra_to_random_scene(17)
    track(start, starts, target, seed=17)
    plain = len(calls)
    calls.clear()
    track(start, np.vstack([starts, np.zeros(6)]), target, seed=17)
    # the singular path ends at its first stage-0 solve, so the one-call-per-
    # row fallback runs once (33 rows), and the path is not tracked again
    assert len(calls) <= plain + len(starts) + 2


# -- sphere scenes: lines at infinity -----------------------------------------


def sphere(centre, radius) -> Quadric:
    """|x - c|^2 = r^2 in P^3, centre and radius given in units of 1/32."""
    c = [F(x, 32) for x in centre]
    rows = [[sum(x * x for x in c) - F(radius, 32) ** 2] + [-x for x in c]]
    rows += [[-c[i]] + [F(int(i == j)) for j in range(3)] for i in range(3)]
    return Quadric(RatMatrix.from_rows(rows))


# seeded random rational scenes: centres in [-2, 2]^3 and radii in [1/2, 2],
# on the 1/32 grid, with the program seed each was solved under
SPHERE_SCENES = {
    "plain": (1622818716, [((-19, 45, 21), 49), ((19, -18, -21), 50),
                           ((38, -19, -8), 39), ((25, 8, 48), 30)]),
    "plain-2": (1410024443, [((-26, 56, 32), 46), ((-26, 6, 20), 44),
                             ((-33, 14, 34), 38), ((-31, -55, -8), 36)]),
    # one finite path takes 222 steps, the longest of 350 such scenes
    "long-finite-path": (1024293196, [((35, -36, -10), 30), ((46, 63, -41), 34),
                                      ((63, 43, 61), 44), ((60, -20, -15), 43)]),
    # paths to infinity stall near 1 - t = 6e-6, where the corrector's first
    # update is about 1e-10, its own noise
    "noisy-end": (1389274329, [((3, -57, -63), 39), ((-54, -19, 28), 34),
                               ((26, -61, 11), 56), ((-62, -5, -64), 30)]),
}


def sphere_system(spheres, shift=(0, 0, 0)) -> LineConditions:
    return line_system(TangentTo(sphere([x + 32 * d for x, d in zip(c, shift)], r))
                       for c, r in spheres)


def solve_spheres(seed, spheres, shift=(0, 0, 0)) -> tracker.TrackResult:
    return solve_tangency(sphere_system(spheres, shift), seed=seed)


def sphere_homotopy(spheres, shift=(0, 0, 0)):
    """The (start system, starts, target) that four spheres are tracked on
    when elimination falls back."""
    return *tetra_start(), sphere_system(spheres, shift)


def track_spheres(seed, spheres, shift=(0, 0, 0)) -> tracker.TrackResult:
    """Four spheres tracked from the tetra start through ``track``, as
    ``solve_tangency`` tracks them when elimination falls back."""
    paths = track(*sphere_homotopy(spheres, shift), seed=seed)
    return tracker.TrackResult(sphere_system(spheres, shift), paths, "tetra")


@pytest.fixture
def lockstep_passes(monkeypatch):
    """The number of starts of every ``_track_lockstep`` pass, as they run."""
    passes = []
    track_lockstep = tracker._track_lockstep

    def counted(h, starts, *args):
        passes.append(len(starts))
        return track_lockstep(h, starts, *args)

    monkeypatch.setattr(tracker, "_track_lockstep", counted)
    return passes


def rho(v) -> float:
    """Share of the direction part (p01, p02, p03) in a Pluecker vector."""
    return float(np.linalg.norm(v[:3]) / np.linalg.norm(v))


@pytest.mark.parametrize("name", sorted(SPHERE_SCENES))
def test_sphere_paths_end_at_infinity_once(lockstep_passes, name):
    passes = lockstep_passes
    res = track_spheres(*SPHERE_SCENES[name])
    # 3 * 2^(n-1) = 12 lines are tangent to four general spheres in R^3
    assert len(res.endpoints) == 12
    others = [p for p in res.paths if not p.converged]
    assert len(others) == 20
    assert all(p.status == "at-infinity" and p.endpoint is None for p in others)
    assert passes == [32]  # no path is re-tracked


@pytest.mark.parametrize("name", sorted(SPHERE_SCENES))
def test_four_spheres_are_eliminated_to_the_tracked_lines(lockstep_passes, name):
    # the 12 lines, each a converged path of no step, are the 12 that
    # tracking from the tetra start finds; no path is tracked
    res = solve_spheres(*SPHERE_SCENES[name])
    assert lockstep_passes == [] and res.start_policy == "elimination"
    assert res.fallback is None
    assert [(p.status, p.steps) for p in res.paths] == [("converged", 0)] * 12
    assert all(p.residual < RESIDUAL_TOL for p in res.paths)
    assert match_endpoints(res.endpoints, track_spheres(*SPHERE_SCENES[name]).endpoints) < 1e-9


def test_shifted_sweep_scene_64_has_its_twelve_lines():
    # moved by (100, 100, 0), tracking loses a nonreal line here; the exact
    # (Sturm) count of its resultant is 12 lines, 4 of them real
    spheres = [((26, 40, -4), 57), ((13, 14, -50), 35), ((64, -27, 30), 26),
               ((11, 52, -27), 58)]
    res = solve_spheres(1548815776, spheres, shift=(100, 100, 0))
    assert res.start_policy == "elimination" and len(res.endpoints) == 12
    reality = res.reality()
    assert reality.real_count == 4 and not reality.unpaired


def test_coplanar_centres_fall_back_to_tracking(lockstep_passes):
    spheres = [((33, -38, 0), 52), ((-1, -61, 0), 62), ((-9, 40, 0), 33),
               ((-18, 35, 0), 26)]
    res = solve_spheres(3, spheres)
    assert (res.start_policy, res.fallback) == ("tetra", "coplanar centres")
    assert lockstep_passes == [32] and len(res.endpoints) == 12
    assert [p.steps for p in res.paths] == [p.steps for p in track_spheres(3, spheres).paths]


# coplanar centres with mirror symmetry (units of 1/32): radii 5/4 at
# (0, 0, 0), (2, 0, 0) and (0, 2, 0), and 25/16 at (2, 2, 0)
MIRROR_SPHERES = [((0, 0, 0), 40), ((64, 0, 0), 40), ((0, 64, 0), 40), ((64, 64, 0), 50)]


def test_mirror_coplanar_scene_has_the_same_eight_lines_from_every_start():
    # the tetra start, the total-degree start and a parameter homotopy from
    # an eliminated generic scene's 12 lines each list the same 8 real
    # lines, short of the generic root bound 12
    target = sphere_system(MIRROR_SPHERES)
    seed, spheres = SPHERE_SCENES["plain"]
    generic = solve_spheres(seed, spheres)
    assert generic.start_policy == "elimination"
    runs = [("tetra", *tetra_start(), 3), ("total-degree", *total_degree_start(target), 0),
            ("parameter", generic.conditions, generic.endpoints, 0)]
    results = [tracker.TrackResult(target, track(start, starts, target, seed=s), policy)
               for policy, start, starts, s in runs]
    assert target.root_bound == 12
    assert [len(r.endpoints) for r in results] == [8, 8, 8]
    assert results[0].reality().real_count == 8
    for res in results[1:]:
        assert match_endpoints(res.endpoints, results[0].endpoints) < 1e-9


def test_diverged_path_is_tracked_once(lockstep_passes):
    seed, spheres = SPHERE_SCENES["plain"]
    start, starts, target = sphere_homotopy(spheres)
    padded = np.vstack([starts, np.zeros(6)])  # diverges at its first step
    paths = track(start, padded, target, seed)
    assert sum(p.converged for p in paths) == 12 and paths[-1].status == "diverged"
    assert lockstep_passes == [33]  # no retrack


@pytest.mark.parametrize("seed, spheres, lost", [
    (481978936, [((-35, -54, 9), 38), ((-61, 26, 27), 49),
                 ((50, -60, -57), 54), ((7, -27, 13), 48)], 28),
    (1220709249, [((8, -30, -14), 36), ((-53, -58, -47), 27),
                  ((58, 23, 63), 23), ((35, -54, -54), 29)], 18)])
def test_path_near_a_fixed_patch_infinity_converges_in_one_pass(
        lockstep_passes, seed, spheres, lost):
    # path `lost` nearly meets the hyperplane at infinity of one fixed affine
    # patch (|x| ~ 4e6 near t = 0.039 in the first scene, where tracking on
    # that patch underflowed, on a tight retrack too); on the moving patch
    # it is never near its patch's hyperplane, and it reaches the 12th line
    res = track_spheres(seed, spheres)
    assert lockstep_passes == [32]
    path = res.paths[lost]
    assert path.converged and len(res.endpoints) == 12
    assert path.residual < 1e-12


def test_steps_do_not_grow_on_corrector_noise():
    # a step that grew on an update at the corrector's noise floor would keep
    # such a path wandering: one path here took 550 steps that way
    res = track_spheres(*SPHERE_SCENES["noisy-end"])
    assert len(res.endpoints) == 12
    assert max(p.steps for p in res.paths) <= 250


def test_far_sphere_scene_keeps_its_finite_lines(lockstep_passes):
    # shifted by (100, 100, 0), every finite tangent has a direction share
    # rho near 8e-3, as small as a path to infinity has near t = 1; two of
    # them lie on paths whose valuation is near 1/2 for two decades
    spheres = [((-3, 55, -34), 24), ((-38, 28, -51), 45),
               ((-26, 59, -47), 60), ((38, 44, -20), 25)]
    res = track_spheres(568561213, spheres, shift=(100, 100, 0))
    assert lockstep_passes == [32]  # no path is re-tracked
    assert len(res.endpoints) == 12
    assert all(rho(v) < 1e-2 for v in res.endpoints)
    assert all(p.status == "at-infinity" for p in res.paths if not p.converged)


def test_finite_paths_decaying_like_infinite_ones_are_kept():
    # two finite tangents here have rho = 7.5e-3, reached along paths whose
    # rho falls like (1 - t)^0.3 for three decades: a valuation above 1/4
    # would end them at infinity
    res = track_spheres(1548815776, [((26, 40, -4), 57), ((13, 14, -50), 35),
                                     ((64, -27, 30), 26), ((11, 52, -27), 58)])
    assert len(res.endpoints) == 12
    assert sum(rho(v) < 1e-2 for v in res.endpoints) == 2


def raw_system(quad, lin) -> LineConditions:
    """The five rows v^T quad[i] v + lin[i] . v, built directly, each with
    its coefficient norm and its degree (2 where quad[i] is not 0)."""
    quad, lin = np.asarray(quad), np.asarray(lin, dtype=complex)
    scale = np.sqrt(np.sum(np.abs(quad) ** 2, axis=(1, 2)) + np.sum(np.abs(lin) ** 2, axis=1))
    degree = np.where(np.any(quad != 0, axis=(1, 2)), 2, 1)
    return LineConditions(tuple(f"row_{i}" for i in range(5)), quad, lin, scale, degree,
                          (None,) * 5)


def far_root_system(a) -> LineConditions:
    """Equal directions p01 = p02 = p03 = d and a_k u_k^2 = d u_k per moment
    coordinate u_k (a scalar a is every a_k): for small a_k the regular root
    u_k = d / a_k is a line far from the origin."""
    quad = np.zeros((5, 6, 6))
    lin = np.zeros((5, 6), dtype=complex)
    lin[0, [0, 1]] = lin[1, [0, 2]] = 1, -1
    for row, u, coefficient in zip((2, 3, 4), (3, 4, 5), np.broadcast_to(a, 3)):
        quad[row, u, u] = coefficient
        quad[row, 0, u] = quad[row, u, 0] = -0.5
    return raw_system(quad, lin)


def test_path_to_a_regular_far_endpoint_is_kept():
    # a_k -> (1e-6, 1e-6, 1e-4) at t = 1: rho ~ d / u_3 decays like (1 - t)^1,
    # not like (1 - t)^(1/2), while u_3 / u_5 ~ 1e-4 / (1 - t) keeps the
    # steps shrinking with 1 - t, which they halve down to about 1e-5: the
    # at-infinity test measures three decades past INFINITY_FROM
    eps = 1e-6
    (path,) = track(far_root_system(1.0), [np.ones(6)],
                    far_root_system([eps / (1 + eps)] * 2 + [1e-4]), seed=0)
    assert path.converged and path.steps > 30
    assert abs(path.endpoint[3] / path.endpoint[0] - (1 + eps) / eps) < 1e-3


def test_no_path_ends_at_infinity_without_spheres(monkeypatch):
    statuses = set()
    for seed in (12, 21):
        res = solve_tangency(random_quadric_system(seed), seed=seed)
        statuses.update(p.status for p in res.paths)
    # a regular line at infinity, from the coordinate tetrahedron, is kept
    from quadtangents.grassmann import tetrahedron_lines

    res = solve_tangency(line_system(Meets(l.dual()) for l in tetrahedron_lines()),
                         seed=31)
    assert sum(rho(v) < 1e-12 for v in res.endpoints) == 1
    statuses.update(p.status for p in res.paths)

    solve = tracker.solve_tangency

    def recorded(*args, **kwargs):
        res = solve(*args, **kwargs)
        statuses.update(p.status for p in res.paths)
        return res

    monkeypatch.setattr(tracker, "solve_tangency", recorded)
    assert doubling_experiment(seed=5).counts == [2, 4, 8, 16, 32]
    assert statuses == {"converged"}


# -- the doubling ladder's split stages ----------------------------------------


def doubling_stages(radius=F(1, 10)) -> list[LineConditions]:
    """The five doubling stages at one cylinder radius."""
    lines = regular_tetrahedron_lines()
    proj = [ln.to_projective() for ln in lines]
    return [line_system([TangentTo(cylinder(ln, radius)) for ln in lines[:stage]]
                        + [Meets(p.dual()) for p in proj[stage:]])
            for stage in range(5)]


def assert_same_paths(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a.status, a.steps, a.solves, a.duplicate_of) == \
            (b.status, b.steps, b.solves, b.duplicate_of)
        assert (a.endpoint is None and b.endpoint is None) or \
            np.array_equal(a.endpoint, b.endpoint)


@pytest.fixture
def splits(monkeypatch):
    """What every ``_split`` call returns, as the ladder runs."""
    returned = []
    split = tracker._split

    def recorded(*args):
        returned.append(split(*args))
        return returned[-1]

    monkeypatch.setattr(tracker, "_split", recorded)
    return returned


@pytest.mark.parametrize("radius", [F(1, 10), F(1, 2)])
def test_split_stages_are_the_tracked_lines(splits, radius):
    # every stage after the tracked stage 0 is split from the one before, as
    # converged paths of no step, onto the lines that tracking it finds
    assert doubling_experiment([radius] * 4, seed=5).counts == [2, 4, 8, 16, 32]
    assert [r.start_policy for r in splits] == ["split"] * 4
    for result, conditions in zip(splits, doubling_stages(radius)[1:]):
        assert [(p.status, p.steps) for p in result.paths] == \
            [("converged", 0)] * conditions.root_bound
        tracked = solve_tangency(conditions, seed=5)
        assert len(tracked.endpoints) == conditions.root_bound
        assert match_endpoints(result.endpoints, tracked.endpoints) <= 1e-10


def test_a_stage_the_split_misses_and_every_later_one_are_tracked_alone(splits, monkeypatch):
    # at radius 3/4 the cylinders are too wide for stage 3's split: the
    # polish of its 16 split points misses.  Stages 3 and 4 are then
    # tracked, each alone, from its own start with the ladder's seed; stage
    # 3's tracking finds all 16 lines, 14 of them real
    tracked = []
    solve = tracker.solve_tangency

    def recorded(*args):
        tracked.append(solve(*args))
        return tracked[-1]

    monkeypatch.setattr(tracker, "solve_tangency", recorded)
    result = doubling_experiment([F(3, 4)] * 4, seed=0)
    assert [r is None for r in splits] == [False, False, True]
    assert [r.start_policy for r in tracked] == ["total-degree", "total-degree", "tetra"]
    assert result.counts == [2, 4, 8, 14, 32]
    assert [row.converged for row in result.rows] == [2, 4, 8, 16, 32]
    stages = doubling_stages(F(3, 4))
    for res, stage, start in zip(tracked[1:], stages[3:],
                                 (total_degree_start(stages[3]), tetra_start())):
        assert_same_paths(res.paths, track(*start, stage, seed=0))


# -- the fused homotopy ---------------------------------------------------------


def evaluate(system, x):
    """Each equation's value at the points x, in double precision."""
    quad_x = (system.quad @ x[:, None, :, None])[..., 0]
    return (quad_x @ x[:, :, None])[..., 0] + (system.lin @ x[:, :, None])[..., 0]


def exact_terms(system, x):
    """Each equation's value and Jacobian row at the points x in extended
    precision, each with the sum of its terms' magnitudes."""
    quad_x = np.einsum("ijk,pk->pij", system.quad.astype(np.longdouble),
                       x.astype(np.clongdouble))
    value = np.einsum("pij,pj->pi", quad_x, x) + np.einsum("ij,pj->pi", system.lin, x)
    abs_quad_x = np.einsum("ijk,pk->pij", np.abs(system.quad), np.abs(x))
    size = (np.einsum("pij,pj->pi", abs_quad_x, np.abs(x))
            + np.abs(x) @ np.abs(system.lin).T)
    return value, size, 2 * quad_x + system.lin, 2 * abs_quad_x + np.abs(system.lin)


def test_fused_homotopy_matches_its_definition():
    rng = np.random.default_rng(40)

    def random_system():
        m = rng.normal(size=(5, 6, 6))
        lin = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
        return raw_system(m + m.swapaxes(1, 2), lin)

    eps = 1e-6
    pairs = [(random_system(), random_system()),
             (far_root_system(1.0), far_root_system(eps / (1 + eps)))]
    gamma = complex(np.exp(2j * np.pi * rng.random()))
    # three random points of pair 0; for pair 1, the far root of its target
    # (|x| ~ 1e6) at 1 - t = 1e-9, and its start point at t = 0.3
    u = (1 + eps) / eps * (1 + 1e-9j)
    points = [(rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6)), rng.random(3)),
              (np.array([[1, 1, 1, u, u, u], np.ones(6)]), np.array([1 - 1e-9, 0.3]))]
    for (start, target), (x, t) in zip(pairs, points):
        h = tracker._Homotopy.of(start, target, gamma)
        v = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)  # the patch rows
        for name in ("newton", "tangent"):
            fused = getattr(h, name)(x, t, v)
            # a point's arithmetic does not depend on the other points
            for k in range(len(x)):
                alone = getattr(h, name)(x[k:k + 1], t[k:k + 1], v[k:k + 1])
                for a, b in zip(alone, fused):
                    assert np.array_equal(a[0], b[k])
        jac, value = h.newton(x, t, v)
        _, dt = h.tangent(x, t, v)
        # at t = 1, H is the target: the polish's Newton
        jac_t, value_t = h.newton(x, np.ones(len(x)), v)
        for jacobian in (jac, jac_t):
            assert np.array_equal(jacobian[:, 5], v)
        # row 5, the patch row, is 0
        for values in (value, dt, value_t):
            assert not np.any(values[:, 5])
        s = t[:, None]
        sv, ss, sj, sjs = exact_terms(start, x)
        tv, ts, tj, tjs = exact_terms(target, x)
        # (1 - t) gamma S(x) + t T(x), its Jacobian and its t-derivative,
        # and T(x) and its Jacobian, above the patch row, each within 1e-14
        # of the magnitudes of the terms that make it up
        for got, want, size in [
                (value, (1 - s) * gamma * sv + s * tv, (1 - s) * ss + s * ts),
                (jac, (1 - s[..., None]) * gamma * sj + s[..., None] * tj,
                 (1 - s[..., None]) * sjs + s[..., None] * tjs),
                (dt, tv - gamma * sv, ts + ss),
                (value_t, tv, ts), (jac_t, tj, tjs)]:
            assert np.all(np.abs(got[:, :5] - want) <= 1e-14 * size)

    # the cancelling form gamma S + t (T - gamma S) misses that bound at the
    # far point, where (1 - t) gamma S(x) ~ 1e3 is a difference of terms ~ 1e12
    (start, target), (x, t) = pairs[1], points[1]
    xs, s = x[:1], t[0]
    start_x, target_x = evaluate(start, xs), evaluate(target, xs)
    cancelling = gamma * start_x + s * (target_x - gamma * start_x)
    sv, ss, _, _ = exact_terms(start, xs)
    tv, ts, _, _ = exact_terms(target, xs)
    error = np.abs(cancelling - ((1 - s) * gamma * sv + s * tv)) / ((1 - s) * ss + s * ts)
    assert np.max(error) > 1e-12


def test_zero_linear_blocks_are_skipped_without_moving_a_value():
    # four tangencies have S.lin = T.lin = 0, and their homotopy never adds
    # those blocks; forced on, they give equal arrays.  np.array_equal
    # counts -0 equal to 0, and adding a zero block can only flip a zero's
    # sign.  Points with zero coordinates, real points, t = 0 and t = 1
    # make zeros in the products
    stage0 = doubling_stages()[0]
    assert tracker._Homotopy.of(total_degree_start(stage0)[0], stage0, 1j).linear
    start, starts = tetra_start()
    gamma = complex(np.exp(0.7j))
    rng = np.random.default_rng(41)
    x = np.vstack([starts[:2], rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))])
    x[2, :3] = 0
    t = np.array([0.0, 1.0, 0.0, 1.0, 0.3, 0.9])
    v = x.conj()
    for seed in (3, 4):
        h = tracker._Homotopy.of(start, random_quadric_system(seed), gamma)
        assert not h.linear
        forced = dataclasses.replace(h, linear=True)
        for name in ("newton", "tangent"):
            for a, b in zip(getattr(h, name)(x, t, v), getattr(forced, name)(x, t, v)):
                assert np.array_equal(a, b)


# each path's steps, linear systems and status on a criterion-8 scene (scene
# 7) and on a sphere scene tracked from the tetra start, with paths to
# infinity and converged:
# any change to the order of a path's arithmetic moves some of them
PINNED_PATHS = {
    "criterion-8 scene 7": (
        [15, 20, 17, 12, 14, 14, 14, 9, 7, 16, 9, 12, 22, 12, 13, 14, 12, 18, 8, 21,
         12, 20, 9, 9, 27, 8, 9, 19, 16, 17, 19, 12],
        [105, 139, 118, 83, 97, 96, 96, 62, 48, 111, 62, 83, 153, 84, 90, 96, 82,
         124, 54, 146, 81, 140, 61, 63, 187, 55, 61, 131, 110, 117, 132, 82],
        "c" * 32),
    "long-finite-path": (
        [58, 13, 59, 52, 43, 12, 16, 44, 19, 49, 33, 32, 57, 100, 24, 52, 45, 53, 53,
         64, 43, 47, 28, 44, 45, 59, 19, 31, 30, 57, 58, 61],
        [397, 90, 404, 356, 293, 84, 112, 295, 132, 334, 231, 223, 391, 691, 168,
         351, 302, 363, 358, 447, 289, 318, 195, 295, 306, 405, 133, 216, 209, 390,
         393, 417],
        "iciiiccicicciiciiiiciiciiiccciii"),
}


@pytest.mark.parametrize("name", PINNED_PATHS)
def test_paths_keep_their_pinned_steps_and_solves(name):
    if name == "long-finite-path":
        result = track_spheres(*SPHERE_SCENES[name])
    else:
        result = solve_tangency(random_quadric_system(1007), seed=7)
    codes = {"converged": "c", "at-infinity": "i"}
    steps, solves, statuses = PINNED_PATHS[name]
    assert [p.steps for p in result.paths] == steps
    assert [p.solves for p in result.paths] == solves
    assert "".join(codes.get(p.status, "?") for p in result.paths) == statuses


def test_quadratic_forms_are_real():
    q = np.diag([1.0, 1.0, 1.0, -1.0])
    assert TangentTo(q.astype(complex)).form().dtype == float
    with pytest.raises(ValueError, match="real"):
        TangentTo(q + 1e-3j * np.eye(4)).form()
    with pytest.raises(ValueError, match="real"):
        line_system([TangentTo(q * 1j)] * 4)
    # the tracker takes only real forms, start or target: a nonreal one
    # fails when the homotopy is built
    real = line_system([TangentTo(q)] * 4)
    nonreal = dataclasses.replace(real, quad=real.quad + 0j)
    nonreal.quad[0, 0, 0] = 1j
    for pair in ((real, nonreal), (nonreal, real)):
        with pytest.raises(ValueError, match="real"):
            track(pair[0], [np.ones(6)], pair[1])
    # a complex form with zero imaginary part is taken as real
    assert track(real, [np.ones(6)], dataclasses.replace(real, quad=real.quad + 0j))
    assert line_system([TangentTo(q)] * 4).quad.dtype == float


def test_readme_names_tracker_constants():
    # every UPPER_CASE constant README names exists, with the value it gives
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = re.findall(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)(?: = ([^`]+))?`", readme)
    assert ({"MAX_STEP", "STEP_TOL", "MAX_GROWTH", "REAL_TOL", "RESIDUAL_TOL"}
            <= {n for n, _ in named})
    for name, value in named:
        module = tracker if hasattr(tracker, name) else grassmann
        assert hasattr(module, name), name
        if value:
            assert ast.literal_eval(value) == getattr(module, name), name
