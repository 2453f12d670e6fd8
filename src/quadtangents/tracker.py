"""Numerical homotopy continuation for line systems in P^3.

A target problem is four conditions on a line -- tangency to a quadric
(quadratic in Pluecker coordinates) or incidence with a line (linear) --
plus the Pluecker quadric itself.  Adding one random complex affine patch
hyperplane squares the system: six polynomial equations of degree <= 2 in
the six Pluecker coordinates, with Bezout number 2^(#tangency) * 2, exactly
the generic root count on the Grassmannian (a quadric hypersurface in P^5).

Solving is by continuation: a start system with known solutions is deformed
into the target along H(x, t) = (1 - t) * gamma * S(x) + t * T(x), with a
random unit complex gamma keeping the path regular for t < 1 with
probability one.  Each path is advanced by a fourth-order Runge-Kutta
predictor on the implicit-derivative ODE  dx/dt = -J_x^{-1} dH/dt  and a
short Newton corrector, with adaptive step halving/growth, then the
endpoint is polished by Newton at t = 1.

Tracking is lockstep: all paths of a homotopy advance together as one
(P, 6) array with their own t, step size and counters, and every predictor
stage, corrector iteration and polish iteration is one stacked 6x6 solve
over the paths still live.  Each path keeps the step rule, acceptance and
iteration counts it would have alone; a path leaves each loop as soon as it
is done, and a singular Jacobian or non-finite prediction fails only its
own path.

Every path ends with one of these statuses:
  converged            polished at t = 1 to the endpoint tolerance;
  at-infinity          heading to a line at infinity, ended in flight and
                       never re-tracked (below);
  diverged             anything else without a certified endpoint: step
                       underflow, a singular Jacobian at an accepted point
                       (ended at once, as no smaller step can cure it), or
                       a polish that misses the tolerance;
  path-jump-suspected  converged onto an endpoint an earlier path holds.

At-infinity test.  Four spheres have 12 tangent lines, not 32: the other
paths go to lines at infinity tangent to the absolute conic (Sottile and
Theobald, "Lines tangent to 2n-2 spheres in R^n", 2002), where the tracker
would grind down to step underflow.  On those paths the share of the line's
direction, rho = |(p01, p02, p03)| / |p|, decays like (1 - t)^(1/2), while
on a path to a finite line it tends to a constant.  From 1 - t = 1e-2 on,
the valuation d log rho / d log(1 - t) is measured over each decade of
1 - t on accepted points (no extra solve).  Three decades in a row within
1/8 of 1/2 end the path as at-infinity, and so does step underflow right
after one such decade.  This is a cheap late-t test instead of a Cauchy
endgame (Morgan, Sommese and Wampler, Numer. Math. 1991); rho itself is
never thresholded, because finite tangents of a scene far from the origin
have rho near 1e-2 too.

Start systems: the 32 closed-form tangents of the tetrahedral quadric
family at alpha = beta = 1/10 (solved once per process) for four tangency
conditions, otherwise a total-degree start whose Bezout count already
equals the root bound, so no excess paths need discarding.

Determinism: gamma, the patch, and all start data are drawn from a seeded
generator; a fixed seed reproduces every path.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .grassmann import (
    DISTINCT_TOL,
    REAL_TOL,
    chordal_distance,
    close_pairs,
    normalize_endpoint,
    transversals_to_4_lines,
)
from .quadrics import AffineFlat, LineConditions, Meets, TangentTo, cylinder
from .tetra32 import TetraParams, enumerate_tangents, family

# ---------------------------------------------------------------------------
# systems


@dataclass
class SquareSystem:
    """Six complex equations x^T A_i x + b_i . x + c_i in six unknowns.

    ``eval``, ``jac`` and ``residual`` take one point (6,) or a stack of
    points (..., 6) and return one value per point.
    """

    quad: np.ndarray   # (6, 6, 6), symmetric in the trailing axes
    lin: np.ndarray    # (6, 6)
    const: np.ndarray  # (6,)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(2 if np.any(self.quad[i]) else 1 for i in range(6))

    @property
    def total_degree(self) -> int:
        out = 1
        for d in self.degrees:
            out *= d
        return out

    def _quad_x(self, x: np.ndarray) -> np.ndarray:
        """(..., 6, 6) with row i equal to quad[i] @ x, per point."""
        return (self.quad @ x[..., None, :, None])[..., 0]

    def eval(self, x: np.ndarray) -> np.ndarray:
        col = np.asarray(x)[..., None]
        return ((self._quad_x(col[..., 0]) @ col)[..., 0]
                + (self.lin @ col)[..., 0] + self.const)

    def jac(self, x: np.ndarray) -> np.ndarray:
        return 2 * self._quad_x(np.asarray(x)) + self.lin

    def residual(self, x: np.ndarray):
        """Relative infinity-norm residual (scales like the equations)."""
        scale = (1.0 + np.max(np.abs(x), axis=-1)) ** 2
        return np.max(np.abs(self.eval(x)), axis=-1) / scale


def build_square_system(conditions: LineConditions, patch: np.ndarray) -> SquareSystem:
    """Four conditions + Pluecker quadric + affine patch (patch . x = 1)."""
    quad = np.zeros((6, 6, 6), dtype=complex)
    lin = np.zeros((6, 6), dtype=complex)
    const = np.zeros(6, dtype=complex)
    quad[:5], lin[:5] = conditions.quad, conditions.lin
    lin[5] = np.asarray(patch, dtype=complex)
    const[5] = -1.0
    return SquareSystem(quad, lin, const)


def random_patch(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    return v / np.linalg.norm(v)


def total_degree_start(target: SquareSystem,
                       rng: np.random.Generator) -> tuple[SquareSystem, np.ndarray]:
    """Start system x_j^(d_j) = c_j matching the target degrees, plus all of
    its prod(d_j) solutions.  For patched tangency systems the Bezout count
    equals the generic root count, so every path is meaningful."""
    degrees = target.degrees
    phases = np.exp(2j * np.pi * rng.random(6))
    quad = np.zeros((6, 6, 6), dtype=complex)
    lin = np.zeros((6, 6), dtype=complex)
    const = -phases.astype(complex)
    for j, d in enumerate(degrees):
        if d == 2:
            quad[j, j, j] = 1.0
        else:
            lin[j, j] = 1.0
    roots_per_var = []
    for j, d in enumerate(degrees):
        c = phases[j]
        roots_per_var.append([c ** (1.0 / d) * np.exp(2j * np.pi * m / d)
                              for m in range(d)])
    starts = np.array([list(combo) for combo in itertools.product(*roots_per_var)])
    return SquareSystem(quad, lin, const), starts


# ---------------------------------------------------------------------------
# tracking


# a path diverges when its step falls below MIN_STEP; a step is accepted when
# Newton's update falls below CORRECTOR_TOL (relative) within CORRECTOR_ITERS
# iterations; steps halve on failure and grow by GROW_FACTOR after
# SUCCESSES_TO_GROW accepted steps in a row
MIN_STEP = 1e-14
CORRECTOR_ITERS = 3
CORRECTOR_TOL = 1e-10
SUCCESSES_TO_GROW = 5
GROW_FACTOR = 1.5
ENDPOINT_ITERS = 15  # Newton polish iterations at t = 1

# the at-infinity test of the module docstring: decade valuations of rho from
# 1 - t = INFINITY_FROM on, INFINITY_DECADES of them in a row inside
# INFINITY_VALUATION
INFINITY_FROM = 1e-2
INFINITY_VALUATION = (0.375, 0.625)
INFINITY_DECADES = 3


@dataclass(frozen=True)
class TrackOptions:
    """The tracker settings a caller chooses, with reproducible defaults."""

    seed: int = 0
    endpoint_tol: float = 1e-12
    first_step: float = 0.05
    max_step: float = 0.25


@dataclass
class TrackedPath:
    """One continuation path: start point, endpoint, and step statistics."""

    start: np.ndarray
    end: np.ndarray | None
    status: str            # "converged" | "at-infinity" | "diverged" | "path-jump-suspected"
    steps: int
    residual: float        # relative Newton residual at the endpoint
    cond: float            # endpoint Jacobian condition number; inf without one
    duplicate_of: int | None = None  # index of an earlier coinciding path
    solves: int = 0        # linear systems solved for this start, all attempts

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _Homotopy:
    """H(x,t) = (1-t) gamma S(x) + t T(x) for two quadratic systems, at one
    point or a stack of points with one t each."""

    def __init__(self, start: SquareSystem, target: SquareSystem, gamma: complex):
        self.start, self.target, self.gamma = start, target, gamma
        self.delta = SquareSystem(target.quad - gamma * start.quad,
                                  target.lin - gamma * start.lin,
                                  target.const - gamma * start.const)

    def eval(self, x, t):
        t = np.asarray(t)[..., None]
        return (1 - t) * self.gamma * self.start.eval(x) + t * self.target.eval(x)

    def jac(self, x, t):
        t = np.asarray(t)[..., None, None]
        return (1 - t) * self.gamma * self.start.jac(x) + t * self.target.jac(x)

    def dt(self, x):
        return self.delta.eval(x)


def _solve(a, b, solves, rows):
    """Solve the stack a[k] dx[k] = b[k] in one call and count one system
    per path in ``solves[rows]``.  numpy raises for the whole stack when one
    matrix is singular; only then are the rows solved (and counted) again
    one by one.  Returns dx and a mask of the rows solved; a singular row's
    dx is NaN."""
    solves[rows] += 1
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(rows), bool)
    except np.linalg.LinAlgError:
        pass
    solves[rows] += 1
    dx = np.full(b.shape, np.nan, dtype=complex)
    solved = np.zeros(len(rows), bool)
    for k in range(len(rows)):
        try:
            dx[k] = np.linalg.solve(a[k], b[k, :, None])[:, 0]
            solved[k] = True
        except np.linalg.LinAlgError:
            pass
    return dx, solved


def _predict(h: _Homotopy, x, t, step, solves, rows):
    """RK4 step of the given sizes on dx/dt = -J_x^{-1} dH/dt for each row.
    A row whose Jacobian is singular at some stage drops out of the later
    stages and comes back NaN.  Also returns the mask of rows singular at
    stage 0, the current point itself, which no smaller step can cure."""
    k = np.zeros((4,) + x.shape, dtype=complex)
    live = np.arange(len(x))
    for stage, c in enumerate((0.0, 0.5, 0.5, 1.0)):
        xs, ts = x[live], t[live]
        if stage:
            xs = xs + (c * step[live])[:, None] * k[stage - 1, live]
            ts = ts + c * step[live]
        k[stage, live], solved = _solve(h.jac(xs, ts), -h.dt(xs), solves, rows[live])
        if not stage:
            stuck = ~solved
        live = live[solved]
    pred = np.full(x.shape, np.nan, dtype=complex)
    k1, k2, k3, k4 = k[:, live]
    pred[live] = x[live] + (step[live] / 6)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
    return pred, stuck


def _correct(h: _Homotopy, x, t, solves, rows):
    """Newton at fixed t for each row.  A row stops when its update falls
    below the corrector tolerance (ok) or its Jacobian is singular."""
    x = x.copy()
    ok = np.zeros(len(x), bool)
    live = np.arange(len(x))
    for _ in range(CORRECTOR_ITERS):
        if not live.size:
            break
        xs, ts = x[live], t[live]
        dx, solved = _solve(h.jac(xs, ts), -h.eval(xs, ts), solves, rows[live])
        live, dx = live[solved], dx[solved]
        xs = xs[solved] + dx
        x[live] = xs
        done = (np.linalg.norm(dx, axis=-1)
                < CORRECTOR_TOL * np.maximum(1.0, np.linalg.norm(xs, axis=-1)))
        ok[live[done]] = True
        live = live[~done]
    return x, ok


def _track_lockstep(h: _Homotopy, starts: np.ndarray,
                    opts: TrackOptions) -> list[TrackedPath]:
    """Track all start points together, one stacked solve per stage."""
    n = len(starts)
    x = starts.copy()
    t = np.zeros(n)
    step = np.full(n, opts.first_step)
    steps = np.zeros(n, dtype=int)
    successes = np.zeros(n, dtype=int)
    solves = np.zeros(n, dtype=int)
    running = np.ones(n, bool)
    lost = np.zeros(n, bool)        # ended without an endpoint
    infinite = np.zeros(n, bool)    # ... and heading to a line at infinity
    mark = np.full((n, 2), np.nan)  # (log(1 - t), log rho) at the last decade mark
    decades = np.zeros(n, dtype=int)  # decades in a row up to it with rho ~ (1 - t)^(1/2)
    while True:
        # a path within min_step of t = 1 is there up to roundoff; the
        # polish below finishes it
        running &= (t < 1.0) & ~(1.0 - t < MIN_STEP)
        under = running & (step < MIN_STEP)
        infinite |= under & (decades > 0)
        lost |= under
        running &= ~under
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        step[rows] = np.minimum(step[rows], 1.0 - t[rows])
        s, t0 = step[rows], t[rows]
        pred, stuck = _predict(h, x[rows], t0, s, solves, rows)
        finite = np.all(np.isfinite(pred), axis=-1)
        corr, ok = _correct(h, pred[finite], t0[finite] + s[finite],
                            solves, rows[finite])
        accept = np.zeros(len(rows), bool)
        accept[finite] = ok
        steps[rows] += 1
        good, bad = rows[accept], rows[~accept]
        x[good] = corr[ok]
        t[good] = t0[accept] + s[accept]
        successes[good] += 1
        grow = good[successes[good] >= SUCCESSES_TO_GROW]
        step[grow] = np.minimum(step[grow] * GROW_FACTOR, opts.max_step)
        successes[grow] = 0
        step[bad] /= 2
        successes[bad] = 0
        lost[rows[stuck]] = True
        running[rows[stuck]] = False

        # late-t test on the accepted points, one decade of 1 - t at a time
        late = good[(1.0 - t[good] <= INFINITY_FROM) & (t[good] < 1.0)]
        if late.size:
            point = np.stack([np.log(1.0 - t[late]),
                              np.log(np.linalg.norm(x[late, :3], axis=-1)
                                     / np.linalg.norm(x[late], axis=-1))], axis=-1)
            first = np.isnan(mark[late, 0])
            decade = point[:, 0] <= mark[late, 0] - np.log(10)
            new = late[decade]
            rise = point[decade] - mark[new]
            valuation = rise[:, 1] / rise[:, 0]
            lo, hi = INFINITY_VALUATION
            half = (lo < valuation) & (valuation < hi)
            decades[new] = np.where(half, decades[new] + 1, 0)
            done = new[decades[new] >= INFINITY_DECADES]
            infinite[done] = lost[done] = True
            running[done] = False
            mark[late[first | decade]] = point[first | decade]

    # endpoint polish at t = 1
    target = h.target
    ends = np.flatnonzero(~lost)
    live = ends
    for _ in range(ENDPOINT_ITERS):
        live = live[~(target.residual(x[live]) < opts.endpoint_tol)]
        if not live.size:
            break
        xs = x[live]
        dx, solved = _solve(target.jac(xs), -target.eval(xs), solves, live)
        ok = solved & np.all(np.isfinite(dx), axis=-1)
        live = live[ok]
        x[live] += dx[ok]
    residual = np.full(n, np.inf)
    cond = np.full(n, np.inf)
    if ends.size:
        residual[ends] = target.residual(x[ends])
        jac = target.jac(x[ends])
        try:
            cond[ends] = np.linalg.cond(jac)
        except np.linalg.LinAlgError:  # an SVD failed: only its row is inf
            for i, a in zip(ends, jac):
                try:
                    cond[i] = np.linalg.cond(a)
                except np.linalg.LinAlgError:
                    cond[i] = np.inf
    return [TrackedPath(starts[i], None if lost[i] else x[i],
                        "at-infinity" if infinite[i] else
                        "converged" if residual[i] < opts.endpoint_tol else "diverged",
                        int(steps[i]), float(residual[i]), float(cond[i]),
                        solves=int(solves[i]))
            for i in range(n)]


def track(start_sys: SquareSystem, start_solutions, target_sys: SquareSystem,
          options: TrackOptions | None = None) -> list[TrackedPath]:
    """Track every start solution to the target system.

    All paths run as one lockstep batch.  Diverged paths are re-tracked,
    together, with 10x tighter step control (at-infinity ones are not); so
    are endpoints closer than the distinctness tolerance, and any that
    still coincide are flagged as suspected path jumps (``duplicate_of``)
    rather than silently counted as multiple solutions.
    """
    opts = options or TrackOptions()
    rng = np.random.default_rng(opts.seed)
    gamma = complex(np.exp(2j * np.pi * rng.random()))
    h = _Homotopy(start_sys, target_sys, gamma)
    starts = np.array(start_solutions, dtype=complex).reshape(len(start_solutions), 6)
    paths = _track_lockstep(h, starts, opts)

    tight = replace(opts, first_step=opts.first_step / 10,
                    max_step=opts.max_step / 10)

    def retrack(indices):
        if not indices:
            return
        again = _track_lockstep(h, np.array([paths[i].start for i in indices]), tight)
        for i, p in zip(indices, again):
            p.solves += paths[i].solves
            paths[i] = p

    retrack([i for i, p in enumerate(paths) if p.status == "diverged"])
    clusters = _coincident_clusters(paths)
    if clusters:
        retrack([i for cluster in clusters for i in cluster])
        for cluster in _coincident_clusters(paths):
            keep = cluster[0]
            for idx in cluster[1:]:
                paths[idx].status = "path-jump-suspected"
                paths[idx].duplicate_of = keep
    return paths


def _coincident_clusters(paths: list[TrackedPath]) -> list[list[int]]:
    """Greedy clusters of converged endpoints closer than DISTINCT_TOL: each
    path not yet taken, in order, collects every later untaken path close to it."""
    idx = [i for i, p in enumerate(paths) if p.converged and p.end is not None]
    members: dict[int, list[int]] = {}
    taken = set()
    for a, b in close_pairs([paths[i].end for i in idx], DISTINCT_TOL):
        if a not in taken and b not in taken:
            members.setdefault(a, [idx[a]]).append(idx[b])
            taken.add(b)
    return list(members.values())


# ---------------------------------------------------------------------------
# reality classification


@dataclass
class RealityReport:
    is_real: list[bool]  # one flag per endpoint, in endpoint order
    conjugate_pairs: list[tuple[int, int]]
    unpaired: list[int]
    at_infinity: int

    @property
    def real_count(self) -> int:
        return sum(self.is_real)

    @property
    def nonreal_count(self) -> int:
        return 2 * len(self.conjugate_pairs) + len(self.unpaired)


def classify_real(endpoints: list[np.ndarray]) -> RealityReport:
    """Split endpoints into real ones and conjugate pairs.

    Endpoints are normalized (unit norm, dominant coordinate real-positive);
    an endpoint is real when no imaginary part survives the normalization.
    Remaining endpoints are greedily matched with their complex conjugates;
    a leftover unpaired endpoint suggests a path jump.  Also counted: lines
    in the plane at infinity (all coordinates p_{0i} below tolerance), which
    an affine-reality claim must exclude.
    """
    normalized = [normalize_endpoint(v) for v in endpoints]
    is_real = [bool(np.max(np.abs(v.imag)) < REAL_TOL) for v in normalized]
    at_infinity = sum(1 for v in normalized if np.max(np.abs(v[:3])) < REAL_TOL)
    nonreal_idx = [i for i, real in enumerate(is_real) if not real]
    pairs, unpaired, used = [], [], set()
    for pos, i in enumerate(nonreal_idx):
        if i in used:
            continue
        best_j, best_d = None, REAL_TOL
        for j in nonreal_idx[pos + 1:]:
            if j in used:
                continue
            d = chordal_distance(normalized[i].conjugate(), normalized[j])
            if d < best_d:
                best_j, best_d = j, d
        if best_j is None:
            unpaired.append(i)
        else:
            pairs.append((i, best_j))
            used.update((i, best_j))
    return RealityReport(is_real, pairs, unpaired, at_infinity)


def match_endpoints(first, second) -> float:
    """Optimal one-to-one matching distance between two endpoint sets.

    Returns the largest chordal distance in a minimum-cost assignment;
    raises if the sets have different sizes.
    """
    from scipy.optimize import linear_sum_assignment

    a = [normalize_endpoint(v) for v in first]
    b = [normalize_endpoint(v) for v in second]
    if len(a) != len(b):
        raise ValueError(f"cannot match {len(a)} endpoints with {len(b)}")
    cost = np.array([[chordal_distance(u, v) for v in b] for u in a])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# high-level solving


@dataclass
class TrackResult:
    conditions: LineConditions
    paths: list[TrackedPath]
    patch: np.ndarray
    start_policy: str

    @property
    def distinct_paths(self) -> list[TrackedPath]:
        """Converged paths that are not suspected duplicates of another."""
        return [p for p in self.paths if p.converged and p.duplicate_of is None]

    @property
    def endpoints(self) -> list[np.ndarray]:
        return [p.end for p in self.distinct_paths]

    @property
    def converged_count(self) -> int:
        return sum(1 for p in self.paths if p.converged)

    def reality(self) -> RealityReport:
        """Reality of ``endpoints``, one flag per distinct path in order."""
        return classify_real(self.endpoints)

    def max_residual(self) -> float:
        res = [p.residual for p in self.paths if p.converged]
        return max(res) if res else float("inf")


# the closed-form start family, inside the region where all 32 lines are real
START_PARAMS = TetraParams.of(Fraction(1, 10), Fraction(1, 10))


@functools.cache
def _tetra_start() -> tuple[LineConditions, np.ndarray]:
    """The start family's conditions and 32 numeric tangents, shared read-only."""
    conditions = LineConditions.compile(
        enumerate(TangentTo(q) for q in family(START_PARAMS)))
    tangents = np.array([s.numeric() for s in enumerate_tangents(START_PARAMS)])
    tangents.flags.writeable = False
    return conditions, tangents


def tetra_start_points(patch: np.ndarray) -> tuple[SquareSystem, np.ndarray]:
    """The 32 closed-form tangents of the start family, rescaled onto the
    affine patch, together with their (patched) defining square system."""
    conditions, tangents = _tetra_start()
    return (build_square_system(conditions, patch),
            np.array([v / (patch @ v) for v in tangents]))


def solve_tangency(conditions: LineConditions,
                   options: TrackOptions | None = None,
                   start_policy: str = "auto") -> TrackResult:
    """Solve a four-condition line system by continuation.

    ``start_policy``: "tetra" tracks from the 32 certified closed-form
    tangents (only valid for four tangency conditions), "total-degree"
    tracks a Bezout-count start, "auto" picks "tetra" exactly when all four
    conditions are tangencies.
    """
    if len(conditions.labels) != 5:  # four conditions and the Pluecker row
        raise ValueError("tracking needs exactly 4 conditions, "
                         f"got {len(conditions.labels) - 1}")
    opts = options or TrackOptions()
    rng = np.random.default_rng(opts.seed)
    patch = random_patch(rng)
    target = build_square_system(conditions, patch)
    all_tangent = bool(np.all(conditions.degree == 2))
    policy = start_policy
    if policy == "auto":
        policy = "tetra" if all_tangent else "total-degree"
    if policy == "tetra":
        if not all_tangent:
            raise ValueError("tetra start policy needs four tangency conditions")
        start_sq, starts = tetra_start_points(patch)
    elif policy == "total-degree":
        start_sq, starts = total_degree_start(target, rng)
    else:
        raise ValueError(f"unknown start policy {policy!r}")
    paths = track(start_sq, starts, target, opts)
    return TrackResult(conditions, paths, patch, policy)


# ---------------------------------------------------------------------------
# the cylinder-radius doubling experiment


def affine_line(point, other_point) -> AffineFlat:
    p = [Fraction(x) for x in point]
    q = [Fraction(x) for x in other_point]
    return AffineFlat.from_point_directions(p, [[b - a for a, b in zip(p, q)]])


def regular_tetrahedron_lines() -> list[AffineFlat]:
    """Four edge lines of the regular tetrahedron with vertices at
    alternating corners of the cube [-1,1]^3, forming a 4-cycle.

    This is an affine realization of the coordinate-tetrahedron edge
    configuration (which puts two edges in the plane at infinity and so
    admits no Euclidean cylinders).  The two transversals are the remaining
    opposite edges.
    """
    a, b, c, d = (1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)
    return [affine_line(a, b), affine_line(b, c), affine_line(c, d), affine_line(d, a)]


@dataclass
class DoublingRow:
    stage: int                 # number of incidence conditions replaced
    target_count: int          # 2^stage * 2
    real_count: int
    converged: int
    radii: tuple[Fraction, ...]
    halvings: int


@dataclass
class DoublingResult:
    rows: list[DoublingRow]
    exact_stage0_count: int    # transversal count from the exact solver

    @property
    def counts(self) -> list[int]:
        return [row.real_count for row in self.rows]


MAX_HALVINGS = 20  # radius halvings per stage in "auto" mode


def doubling_experiment(radii="auto", seed: int = 0,
                        options: TrackOptions | None = None) -> DoublingResult:
    """Replace incidence conditions by cylinder tangencies one at a time.

    Stage i surrounds the first i tetrahedron edge lines with distance-r_i
    cylinders and keeps incidence conditions on the rest; each tangency
    doubles the solution count, so small enough radii give 2, 4, 8, 16, 32
    real lines at stages 0..4.  In "auto" mode all radii start at 1/10 and
    are halved together until the stage reaches its target count (at most
    MAX_HALVINGS times); explicit radii are used as given, and a stage that
    misses its target is reported honestly.
    """
    opts = options or TrackOptions(seed=seed)
    lines = regular_tetrahedron_lines()
    proj = [ln.to_projective() for ln in lines]
    exact = transversals_to_4_lines(proj)
    exact_count = exact.real_count if not exact.infinite else -1

    auto = isinstance(radii, str) and radii == "auto"
    if not auto:
        fixed = [Fraction(r) if not isinstance(r, Fraction) else r for r in radii]
        if len(fixed) != 4:
            raise ValueError("need four radii")
        if any(r <= 0 for r in fixed):
            raise ValueError("cylinder radii must be positive")

    rows = []
    for stage in range(5):
        target_count = (1 << stage) * 2
        r = Fraction(1, 10)
        halvings = 0
        while True:
            stage_radii = tuple([r] * stage) if auto else tuple(fixed[:stage])
            conditions = LineConditions.compile(
                (j, TangentTo(cylinder(lines[j], stage_radii[j])) if j < stage
                 else Meets(proj[j].dual()))
                for j in range(4))
            result = solve_tangency(conditions, opts, start_policy="total-degree")
            real_count = result.reality().real_count
            done = (real_count == target_count or not auto or stage == 0
                    or halvings >= MAX_HALVINGS)
            if done:
                rows.append(DoublingRow(stage, target_count, real_count,
                                        result.converged_count, stage_radii,
                                        halvings))
                break
            r, halvings = r / 2, halvings + 1
    return DoublingResult(rows, exact_count)
