from fractions import Fraction as F

import numpy as np
import pytest

from quadtangents.grassmann import (
    PluckerVector,
    check_plucker_relations,
    chordal_distance,
    normalize_endpoint,
)
from quadtangents import tracker
from quadtangents.exactnum import RatMatrix
from quadtangents.quadrics import LineConditions, Quadric, cylinder, is_tangent
from quadtangents.tetra32 import TetraParams, enumerate_tangents, family
from quadtangents.tracker import (
    Meets,
    TangentTo,
    TrackOptions,
    build_square_system,
    classify_real,
    doubling_experiment,
    random_patch,
    regular_tetrahedron_lines,
    solve_tangency,
    tetra_start_points,
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


# -- square systems -----------------------------------------------------------


def test_root_bounds():
    lines = [ln.to_projective() for ln in regular_tetrahedron_lines()]
    meets = [Meets(p.dual()) for p in lines]
    assert line_system(meets).root_bound == 2
    assert tetra_system(P10).root_bound == 32
    for i in range(5):
        conds = [TangentTo(q) for q in family(P10)[:i]] + meets[i:]
        assert line_system(conds[:4]).root_bound == 2 ** i * 2


def test_square_system_degrees_match_root_bound():
    rng = np.random.default_rng(0)
    for i in range(5):
        lines = [ln.to_projective() for ln in regular_tetrahedron_lines()]
        conds = tuple([TangentTo(q) for q in family(P10)[:i]]
                      + [Meets(p.dual()) for p in lines][i:])[:4]
        system = line_system(conds)
        # the total-degree start has one point per root of the patched system
        _, sols = total_degree_start(system, rng)
        assert len(sols) == system.root_bound


def test_systems_take_four_line_conditions():
    with pytest.raises(TypeError):
        line_system([TangentTo(np.eye(4)), "not a condition"])
    with pytest.raises(ValueError, match="exactly 4 conditions"):
        solve_tangency(line_system(TangentTo(q) for q in family(P10)[:3]))


def test_total_degree_start_solves_its_system():
    rng = np.random.default_rng(1)
    start, sols = total_degree_start(tetra_system(P10), rng)
    # Bezout count of the patched system equals the root bound: no excess
    assert len(sols) == 32
    for x in sols:
        assert np.max(np.abs(start.eval(x))) < 1e-12


def test_tetra_start_points_satisfy_their_system():
    rng = np.random.default_rng(2)
    patch = random_patch(rng)
    square, starts = tetra_start_points(patch)
    assert len(starts) == 32
    for x in starts:
        assert square.residual(x) < 1e-12


# -- tracking -----------------------------------------------------------------


def test_constant_homotopy_returns_start_points():
    rng = np.random.default_rng(3)
    patch = random_patch(rng)
    square, starts = tetra_start_points(patch)
    paths = track(square, starts, square, TrackOptions(seed=3))
    assert all(p.converged for p in paths)
    for p in paths:
        assert np.max(np.abs(p.end - p.start)) < 1e-12


def test_tracking_matches_closed_form():
    res = solve_tangency(tetra_system(P20), TrackOptions(seed=7))
    assert res.start_policy == "tetra"
    assert res.converged_count == 32 and len(res.endpoints) == 32
    closed = [s.numeric() for s in enumerate_tangents(P20)]
    assert match_endpoints(res.endpoints, closed) < 1e-9


def test_endpoints_satisfy_target_conditions():
    conditions = random_quadrics(5)
    res = solve_tangency(line_system(conditions), TrackOptions(seed=5))
    for v in res.endpoints:
        w = normalize_endpoint(v)
        p = PluckerVector(1, 3, tuple(w))
        assert check_plucker_relations(p) < 1e-9
        for cond in conditions:
            form = cond.form()
            raw = abs(w @ form @ w) / np.linalg.norm(form)
            assert raw < 1e-9


def test_random_real_scene_counts():
    res = solve_tangency(random_quadric_system(12), TrackOptions(seed=12))
    assert res.converged_count == 32
    assert len(res.endpoints) == 32
    assert res.max_residual() < 1e-10
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
        res = solve_tangency(tetra_system(P20), TrackOptions(seed=seed))
        assert res.start_policy == "tetra" and len(res.endpoints) == 32
    # the start family never changes, so its tangents are solved at most once
    assert len(calls) <= 1


def test_gamma_independence_of_endpoints():
    system = random_quadric_system(9)
    res1 = solve_tangency(system, TrackOptions(seed=101))
    res2 = solve_tangency(system, TrackOptions(seed=202))
    assert match_endpoints(res1.endpoints, res2.endpoints) < 1e-8


def test_round_trip_tracking():
    rng = np.random.default_rng(8)
    patch = random_patch(rng)
    sq_a, starts = tetra_start_points(patch)
    sq_b = build_square_system(tetra_system(P20), patch)
    forth = track(sq_a, starts, sq_b, TrackOptions(seed=8))
    assert all(p.converged for p in forth)
    back = track(sq_b, [p.end for p in forth], sq_a, TrackOptions(seed=9))
    assert all(p.converged for p in back)
    assert match_endpoints([p.end for p in back], list(starts)) < 1e-8


def test_seed_determinism():
    system = random_quadric_system(4)
    res1 = solve_tangency(system, TrackOptions(seed=77))
    res2 = solve_tangency(system, TrackOptions(seed=77))
    for a, b in zip(res1.paths, res2.paths):
        assert a.steps == b.steps
        assert np.array_equal(a.end, b.end)


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


def test_at_infinity_flag():
    # transversals of the coordinate tetrahedron: x0=x2=0 lies at infinity
    # (all Pluecker coordinates involving index 0 vanish), x1=x3=0 does not
    from quadtangents.grassmann import tetrahedron_lines

    lines = tetrahedron_lines()
    sys0 = line_system(Meets(l.dual()) for l in lines)
    res = solve_tangency(sys0, TrackOptions(seed=31))
    assert len(res.endpoints) == 2
    rep = res.reality()
    assert rep.real_count == 2 and rep.at_infinity == 1


def test_conjugate_pairing_across_random_scenes():
    for seed in (21, 22, 23):
        res = solve_tangency(random_quadric_system(seed), TrackOptions(seed=seed))
        rep = res.reality()
        assert rep.nonreal_count % 2 == 0
        assert not rep.unpaired


# -- the doubling experiment --------------------------------------------------


def test_doubling_experiment_auto(monkeypatch):
    policies = []
    solve = tracker.solve_tangency

    def recorded(*args):
        res = solve(*args)
        policies.append(res.start_policy)
        return res

    monkeypatch.setattr(tracker, "solve_tangency", recorded)
    result = doubling_experiment("auto", TrackOptions(seed=5))
    assert result.counts == [2, 4, 8, 16, 32]
    assert result.exact_stage0_count == 2
    assert result.rows[0].real_count == result.exact_stage0_count
    # stages 0-3 keep an incidence condition; stage 4, four cylinder
    # tangencies, is a parameter homotopy from the closed-form family
    assert policies == ["total-degree"] * 4 + ["tetra"]


def test_doubling_explicit_radii():
    radii = [F(1, 10)] * 4
    result = doubling_experiment(radii, TrackOptions(seed=6))
    assert result.counts == [2, 4, 8, 16, 32]


def test_doubling_huge_radii_reported_honestly():
    result = doubling_experiment([F(10)] * 4, TrackOptions(seed=3))
    # huge cylinders break the small-radius hypothesis; counts may fall short
    # but must still be consistent and never exceed the bound
    for row in result.rows:
        assert 0 <= row.real_count <= row.target_count


def test_doubling_rejects_nonpositive_radii():
    with pytest.raises(ValueError):
        doubling_experiment([F(0)] * 4, TrackOptions(seed=1))

def test_cylinder_stage_two_solutions_are_tangent():
    lines = regular_tetrahedron_lines()
    proj = [ln.to_projective() for ln in lines]
    r = F(1, 10)
    cyls = [cylinder(lines[0], r), cylinder(lines[1], r)]
    conds = (TangentTo(cyls[0]), TangentTo(cyls[1]),
             Meets(proj[2].dual()), Meets(proj[3].dual()))
    res = solve_tangency(line_system(conds), TrackOptions(seed=13))
    assert len(res.endpoints) == 8
    assert res.reality().real_count == 8
    for v in res.endpoints:
        w = normalize_endpoint(v)
        p = PluckerVector(1, 3, tuple(w))
        for q in cyls:
            assert is_tangent(q, p) < 1e-9


def test_duplicate_endpoints_flagged():
    # force duplicates by feeding the same start twice
    rng = np.random.default_rng(14)
    patch = random_patch(rng)
    square, starts = tetra_start_points(patch)
    doubled = np.vstack([starts, starts[:1]])
    target = build_square_system(tetra_system(P20), patch)
    paths = track(square, doubled, target, TrackOptions(seed=14))
    dupes = [p for p in paths if p.duplicate_of is not None]
    assert len(dupes) == 1
    assert dupes[0].status == "path-jump-suspected"
    distinct = [p for p in paths if p.converged and p.duplicate_of is None]
    assert len(distinct) == 32


# -- lockstep batches -----------------------------------------------------------


def _tetra_to_random_scene(seed):
    rng = np.random.default_rng(seed)
    patch = random_patch(rng)
    square, starts = tetra_start_points(patch)
    target = build_square_system(random_quadric_system(seed), patch)
    return square, starts, target


def test_batch_tracks_each_path_as_alone():
    square, starts, target = _tetra_to_random_scene(15)
    opts = TrackOptions(seed=15)
    together = track(square, starts, target, opts)
    assert len({p.steps for p in together}) > 1  # paths of unequal length
    for x, p in zip(starts, together):
        (alone,) = track(square, [x], target, opts)
        assert alone.status == p.status and alone.steps == p.steps
        assert np.max(np.abs(alone.end - p.end)) < 1e-12


def test_singular_start_fails_alone():
    # at x = 0 only the patch row of the Jacobian survives, so every stacked
    # solve holding this path raises; the path must fail without the others
    square, starts, target = _tetra_to_random_scene(16)
    opts = TrackOptions(seed=16)
    plain = track(square, starts, target, opts)
    padded = track(square, np.vstack([starts, np.zeros(6)]), target, opts)
    zero = padded[-1]
    # its stage-0 Jacobian is singular, which no smaller step cures: the
    # path ends after one step, and so does its tight retrack
    assert zero.status == "diverged" and zero.end is None and zero.steps == 1
    for a, b in zip(plain, padded):
        assert a.status == b.status and a.steps == b.steps
        assert np.array_equal(a.end, b.end)


def test_path_solves_sum_to_solved_systems(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    square, starts, target = _tetra_to_random_scene(17)
    paths = track(square, starts, target, TrackOptions(seed=17))
    assert all(p.solves > 0 for p in paths)
    assert sum(p.solves for p in paths) == sum(calls)
    assert len(calls) <= sum(calls) / 8  # stacked, not one call per system
    # a path leaves each Newton loop once converged, so batching adds no
    # solves: the one-path-at-a-time tracker solved 6697 systems here
    assert sum(calls) == 6697

    # a singular path makes its stacks fall back to one call per row; those
    # systems are counted too
    calls.clear()
    paths = track(square, np.vstack([starts, np.zeros(6)]), target,
                  TrackOptions(seed=17))
    assert sum(p.solves for p in paths) == sum(calls)


def test_singular_start_forces_one_fallback_per_pass(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    square, starts, target = _tetra_to_random_scene(17)
    track(square, starts, target, TrackOptions(seed=17))
    plain = len(calls)
    calls.clear()
    track(square, np.vstack([starts, np.zeros(6)]), target, TrackOptions(seed=17))
    # the singular path ends at its first stage-0 solve, so the one-call-per-
    # row fallback runs once in the first pass (33 rows) and once in the retrack
    assert len(calls) <= plain + 2 * (len(starts) + 2)


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
}


def solve_spheres(seed, spheres, shift=(0, 0, 0)) -> tracker.TrackResult:
    conditions = line_system(TangentTo(sphere([x + 32 * d for x, d in zip(c, shift)], r))
                             for c, r in spheres)
    return solve_tangency(conditions, TrackOptions(seed=seed))


def rho(v) -> float:
    """Share of the direction part (p01, p02, p03) in a Pluecker vector."""
    return float(np.linalg.norm(v[:3]) / np.linalg.norm(v))


@pytest.mark.parametrize("name", sorted(SPHERE_SCENES))
def test_sphere_paths_end_at_infinity_once(monkeypatch, name):
    passes = []
    track_lockstep = tracker._track_lockstep

    def counted(h, starts, *args):
        passes.append(len(starts))
        return track_lockstep(h, starts, *args)

    monkeypatch.setattr(tracker, "_track_lockstep", counted)
    res = solve_spheres(*SPHERE_SCENES[name])
    # 3 * 2^(n-1) = 12 lines are tangent to four general spheres in R^3
    assert len(res.endpoints) == 12 and res.converged_count == 12
    others = [p for p in res.paths if not p.converged]
    assert len(others) == 20
    assert all(p.status == "at-infinity" and p.end is None for p in others)
    assert passes == [32]  # no path is re-tracked


def test_far_sphere_scene_keeps_its_finite_lines():
    # shifted by (100, 100, 0), every finite tangent has a direction share
    # rho near 8e-3, as small as a path to infinity has near t = 1; two of
    # them lie on paths whose valuation is near 1/2 for two decades
    spheres = [((-3, 55, -34), 24), ((-38, 28, -51), 45),
               ((-26, 59, -47), 60), ((38, 44, -20), 25)]
    res = solve_spheres(568561213, spheres, shift=(100, 100, 0))
    assert len(res.endpoints) == 12
    assert all(rho(v) < 1e-2 for v in res.endpoints)
    assert all(p.status == "at-infinity" for p in res.paths if not p.converged)


def test_finite_paths_decaying_like_infinite_ones_are_kept():
    # two finite tangents here have rho = 7.5e-3, reached along paths whose
    # rho falls like (1 - t)^0.3 for three decades: a valuation above 1/4
    # would end them at infinity
    res = solve_spheres(1548815776, [((26, 40, -4), 57), ((13, 14, -50), 35),
                                     ((64, -27, 30), 26), ((11, 52, -27), 58)])
    assert len(res.endpoints) == 12
    assert sum(rho(v) < 1e-2 for v in res.endpoints) == 2


def test_path_to_a_regular_far_endpoint_is_kept():
    # a u^2 = u per moment coordinate with a -> 1e-6 at t = 1, directions
    # fixed at 1: u grows like 1 / (1 - t), so rho decays like (1 - t)^1 over
    # the decades the shrinking steps cross, not like (1 - t)^(1/2)
    def system(a):
        quad = np.zeros((6, 6, 6), dtype=complex)
        lin = np.eye(6, dtype=complex)
        const = np.zeros(6, dtype=complex)
        const[:3] = -1
        lin[3:] *= -1
        quad[3:, 3:, 3:][np.diag_indices(3, 3)] = a
        return tracker.SquareSystem(quad, lin, const)

    eps = 1e-6
    (path,) = track(system(1.0), [np.ones(6)], system(eps / (1 + eps)),
                    TrackOptions(seed=0))
    assert path.converged and path.steps > 50
    assert abs(path.end[3] - (1 + eps) / eps) < 1e-3


def test_no_path_ends_at_infinity_without_spheres(monkeypatch):
    statuses = set()
    for seed in (12, 21):
        res = solve_tangency(random_quadric_system(seed), TrackOptions(seed=seed))
        statuses.update(p.status for p in res.paths)
    # a regular line at infinity, from the coordinate tetrahedron, is kept
    from quadtangents.grassmann import tetrahedron_lines

    res = solve_tangency(line_system(Meets(l.dual()) for l in tetrahedron_lines()),
                         TrackOptions(seed=31))
    assert sum(rho(v) < 1e-12 for v in res.endpoints) == 1
    statuses.update(p.status for p in res.paths)

    solve = tracker.solve_tangency

    def recorded(*args, **kwargs):
        res = solve(*args, **kwargs)
        statuses.update(p.status for p in res.paths)
        return res

    monkeypatch.setattr(tracker, "solve_tangency", recorded)
    assert doubling_experiment("auto", TrackOptions(seed=5)).counts == [2, 4, 8, 16, 32]
    assert statuses == {"converged"}
