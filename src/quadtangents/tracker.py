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

Start systems: the 32 closed-form tangents of the tetrahedral quadric
family when the target consists of four tangency conditions, otherwise a
total-degree start whose Bezout count already equals the root bound, so no
excess paths need discarding.

Determinism: gamma, the patch, and all start data are drawn from a seeded
generator; a fixed seed reproduces every path.  Paths share no mutable
state and may be tracked concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .grassmann import chordal_distance, normalize_endpoint, transversals_to_4_lines
from .quadrics import AffineFlat, LineConditions, Meets, TangentTo, cylinder
from .tetra32 import TetraParams, enumerate_tangents, family

# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class TangencySystem:
    """Four tangency/incidence conditions on lines in P^3."""

    conditions: tuple

    def __post_init__(self):
        if len(self.conditions) != 4:
            raise ValueError("exactly four conditions required")
        for c in self.conditions:
            if not isinstance(c, (TangentTo, Meets)):
                raise TypeError("conditions must be TangentTo or Meets")

    @property
    def tangency_count(self) -> int:
        return sum(1 for c in self.conditions if isinstance(c, TangentTo))

    @property
    def root_bound(self) -> int:
        """Bezout-style bound 2^(#tangency) * 2, attained generically."""
        return (1 << self.tangency_count) * 2


@dataclass
class SquareSystem:
    """Six complex equations x^T A_i x + b_i . x + c_i in six unknowns."""

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

    def eval(self, x: np.ndarray) -> np.ndarray:
        return (self.quad @ x) @ x + self.lin @ x + self.const

    def jac(self, x: np.ndarray) -> np.ndarray:
        return 2 * (self.quad @ x) + self.lin

    def residual(self, x: np.ndarray) -> float:
        """Relative infinity-norm residual (scales like the equations)."""
        scale = (1.0 + float(np.max(np.abs(x)))) ** 2
        return float(np.max(np.abs(self.eval(x)))) / scale


def build_square_system(system: TangencySystem, patch: np.ndarray) -> SquareSystem:
    """Four conditions + Pluecker quadric + affine patch (patch . x = 1)."""
    compiled = LineConditions.compile(enumerate(system.conditions))
    quad = np.zeros((6, 6, 6), dtype=complex)
    lin = np.zeros((6, 6), dtype=complex)
    const = np.zeros(6, dtype=complex)
    quad[:5], lin[:5] = compiled.quad, compiled.lin
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


@dataclass(frozen=True)
class TrackOptions:
    """All tracker tolerances, with reproducible defaults."""

    seed: int = 0
    first_step: float = 0.05
    max_step: float = 0.25
    min_step: float = 1e-14
    corrector_iters: int = 3
    corrector_tol: float = 1e-10
    successes_to_grow: int = 5
    grow_factor: float = 1.5
    endpoint_tol: float = 1e-12
    endpoint_iters: int = 15
    cond_limit: float = 1e12
    real_tol: float = 1e-8
    distinct_tol: float = 1e-6


@dataclass
class TrackedPath:
    """One continuation path: start point, endpoint, and step statistics."""

    start: np.ndarray
    end: np.ndarray | None
    status: str            # "converged" | "diverged" | "path-jump-suspected"
    steps: int
    residual: float        # relative Newton residual at the endpoint
    singular: bool = False     # endpoint Jacobian condition beyond the limit
    duplicate_of: int | None = None  # index of an earlier coinciding path

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _Homotopy:
    """H(x,t) = (1-t) gamma S(x) + t T(x) for two quadratic systems."""

    def __init__(self, start: SquareSystem, target: SquareSystem, gamma: complex):
        self.start, self.target, self.gamma = start, target, gamma
        self.dquad = target.quad - gamma * start.quad
        self.dlin = target.lin - gamma * start.lin
        self.dconst = target.const - gamma * start.const

    def eval(self, x, t):
        g = (1 - t) * self.gamma
        return g * self.start.eval(x) + t * self.target.eval(x)

    def jac(self, x, t):
        g = (1 - t) * self.gamma
        return g * self.start.jac(x) + t * self.target.jac(x)

    def dt(self, x):
        return (self.dquad @ x) @ x + self.dlin @ x + self.dconst


def _newton(h: _Homotopy, x: np.ndarray, t: float, iters: int, tol: float):
    for _ in range(iters):
        try:
            dx = np.linalg.solve(h.jac(x, t), -h.eval(x, t))
        except np.linalg.LinAlgError:
            return x, False
        x = x + dx
        if np.linalg.norm(dx) < tol * max(1.0, float(np.linalg.norm(x))):
            return x, True
    return x, False


def _rk4_predict(h: _Homotopy, x: np.ndarray, t: float, step: float):
    def slope(xx, tt):
        return np.linalg.solve(h.jac(xx, tt), -h.dt(xx))

    k1 = slope(x, t)
    k2 = slope(x + step / 2 * k1, t + step / 2)
    k3 = slope(x + step / 2 * k2, t + step / 2)
    k4 = slope(x + step * k3, t + step)
    return x + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _track_one(h: _Homotopy, x0: np.ndarray, opts: TrackOptions) -> TrackedPath:
    x = np.asarray(x0, dtype=complex)
    t, step, steps, successes = 0.0, opts.first_step, 0, 0
    while t < 1.0:
        remaining = 1.0 - t
        if remaining < opts.min_step:
            break  # at the target up to roundoff; the polish below finishes
        if step < opts.min_step:
            return TrackedPath(x0, None, "diverged", steps, float("inf"))
        step = min(step, remaining)
        try:
            pred = _rk4_predict(h, x, t, step)
        except np.linalg.LinAlgError:
            pred = None
        if pred is not None and np.all(np.isfinite(pred)):
            corr, ok = _newton(h, pred, t + step, opts.corrector_iters,
                               opts.corrector_tol)
        else:
            ok = False
        steps += 1
        if ok:
            x, t = corr, t + step
            successes += 1
            if successes >= opts.successes_to_grow:
                step, successes = min(step * opts.grow_factor, opts.max_step), 0
        else:
            step, successes = step / 2, 0
    # endpoint polish at t = 1
    target = h.target
    for _ in range(opts.endpoint_iters):
        if target.residual(x) < opts.endpoint_tol:
            break
        try:
            dx = np.linalg.solve(target.jac(x), -target.eval(x))
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
    res = target.residual(x)
    try:
        cond = float(np.linalg.cond(target.jac(x)))
    except np.linalg.LinAlgError:
        cond = float("inf")
    singular = cond > opts.cond_limit
    status = "converged" if res < opts.endpoint_tol else "diverged"
    return TrackedPath(x0, x, status, steps, res, singular=singular)


def track(start_sys: SquareSystem, start_solutions, target_sys: SquareSystem,
          options: TrackOptions | None = None) -> list[TrackedPath]:
    """Track every start solution to the target system.

    Endpoints closer than the distinctness tolerance are re-tracked with
    10x tighter step control; any that still coincide are flagged as
    suspected path jumps (``duplicate_of``) rather than silently counted
    as multiple solutions.
    """
    opts = options or TrackOptions()
    rng = np.random.default_rng(opts.seed)
    gamma = complex(np.exp(2j * np.pi * rng.random()))
    h = _Homotopy(start_sys, target_sys, gamma)
    paths = [_track_one(h, np.asarray(x, dtype=complex), opts)
             for x in start_solutions]

    tight = replace(opts, first_step=opts.first_step / 10,
                    max_step=opts.max_step / 10)
    for i, p in enumerate(paths):
        if not p.converged:
            paths[i] = _track_one(h, p.start, tight)

    clusters = _coincident_clusters(paths, opts.distinct_tol)
    if clusters:
        for cluster in clusters:
            for idx in cluster:
                paths[idx] = _track_one(h, paths[idx].start, tight)
        for cluster in _coincident_clusters(paths, opts.distinct_tol):
            keep = cluster[0]
            for idx in cluster[1:]:
                paths[idx].status = "path-jump-suspected"
                paths[idx].duplicate_of = keep
    return paths


def _coincident_clusters(paths: list[TrackedPath], tol: float) -> list[list[int]]:
    idx = [i for i, p in enumerate(paths) if p.converged and p.end is not None]
    used = set()
    clusters = []
    for a_pos, i in enumerate(idx):
        if i in used:
            continue
        cluster = [i]
        for j in idx[a_pos + 1:]:
            if j in used:
                continue
            if chordal_distance(paths[i].end, paths[j].end) < tol:
                cluster.append(j)
                used.add(j)
        if len(cluster) > 1:
            clusters.append(cluster)
            used.update(cluster)
    return clusters


def distinct_endpoints(paths: list[TrackedPath]) -> list[np.ndarray]:
    return [p.end for p in paths if p.converged and p.duplicate_of is None]


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


def classify_real(paths: list[TrackedPath] | list[np.ndarray],
                  tol: float = 1e-8) -> RealityReport:
    """Split converged endpoints into real ones and conjugate pairs.

    Endpoints are normalized (unit norm, dominant coordinate real-positive);
    an endpoint is real when no imaginary part survives the normalization.
    Remaining endpoints are greedily matched with their complex conjugates;
    a leftover unpaired endpoint suggests a path jump.  Also counted: lines
    in the plane at infinity (all coordinates p_{0i} below tolerance), which
    an affine-reality claim must exclude.
    """
    if paths and isinstance(paths[0], TrackedPath):
        endpoints = distinct_endpoints(paths)
    else:
        endpoints = list(paths)
    normalized = [normalize_endpoint(v) for v in endpoints]
    is_real = [bool(np.max(np.abs(v.imag)) < tol) for v in normalized]
    at_infinity = sum(1 for v in normalized if np.max(np.abs(v[:3])) < tol)
    nonreal_idx = [i for i, real in enumerate(is_real) if not real]
    pairs, unpaired, used = [], [], set()
    for pos, i in enumerate(nonreal_idx):
        if i in used:
            continue
        best_j, best_d = None, tol
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
    system: TangencySystem
    paths: list[TrackedPath]
    patch: np.ndarray
    seed: int
    start_policy: str

    @property
    def endpoints(self) -> list[np.ndarray]:
        return distinct_endpoints(self.paths)

    @property
    def converged_count(self) -> int:
        return sum(1 for p in self.paths if p.converged)

    def reality(self, tol: float = 1e-8) -> RealityReport:
        return classify_real(self.paths, tol)

    def max_residual(self) -> float:
        res = [p.residual for p in self.paths if p.converged]
        return max(res) if res else float("inf")


DEFAULT_START_PARAMS = (Fraction(1, 10), Fraction(1, 10))


def tetra_start_points(params: TetraParams, patch: np.ndarray) -> tuple[SquareSystem, np.ndarray]:
    """The 32 closed-form tangents of the tetrahedral family, rescaled onto
    the affine patch, together with their (patched) defining square system."""
    system = TangencySystem(tuple(TangentTo(q) for q in family(params)))
    square = build_square_system(system, patch)
    sols = enumerate_tangents(params)
    pts = []
    for s in sols:
        v = s.numeric()
        v = v / (patch @ v)
        pts.append(v)
    return square, np.array(pts)


def solve_tangency(system: TangencySystem,
                   options: TrackOptions | None = None,
                   start_policy: str = "auto",
                   start_params=DEFAULT_START_PARAMS) -> TrackResult:
    """Solve a four-condition line system by continuation.

    ``start_policy``: "tetra" tracks from the 32 certified closed-form
    tangents (only valid for four tangency conditions), "total-degree"
    tracks a Bezout-count start, "auto" picks "tetra" exactly when all four
    conditions are tangencies.
    """
    opts = options or TrackOptions()
    rng = np.random.default_rng(opts.seed)
    patch = random_patch(rng)
    target = build_square_system(system, patch)
    policy = start_policy
    if policy == "auto":
        policy = "tetra" if system.tangency_count == 4 else "total-degree"
    if policy == "tetra":
        if system.tangency_count != 4:
            raise ValueError("tetra start policy needs four tangency conditions")
        start_sq, starts = tetra_start_points(TetraParams.of(*start_params), patch)
    elif policy == "total-degree":
        start_sq, starts = total_degree_start(target, rng)
    else:
        raise ValueError(f"unknown start policy {policy!r}")
    paths = track(start_sq, starts, target, opts)
    return TrackResult(system, paths, patch, opts.seed, policy)


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


def doubling_experiment(radii="auto", seed: int = 0,
                        options: TrackOptions | None = None,
                        max_halvings: int = 20) -> DoublingResult:
    """Replace incidence conditions by cylinder tangencies one at a time.

    Stage i surrounds the first i tetrahedron edge lines with distance-r_i
    cylinders and keeps incidence conditions on the rest; each tangency
    doubles the solution count, so small enough radii give 2, 4, 8, 16, 32
    real lines at stages 0..4.  In "auto" mode all radii start at 1/10 and
    are halved together until the stage reaches its target count (up to
    ``max_halvings``); explicit radii are used as given, and a stage that
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
            conditions = tuple(
                TangentTo(cylinder(lines[j], stage_radii[j])) if j < stage
                else Meets(proj[j].dual())
                for j in range(4))
            result = solve_tangency(TangencySystem(conditions), opts,
                                    start_policy="total-degree")
            real_count = result.reality(opts.real_tol).real_count
            done = (real_count == target_count or not auto or stage == 0
                    or halvings >= max_halvings)
            if done:
                rows.append(DoublingRow(stage, target_count, real_count,
                                        result.converged_count, stage_radii,
                                        halvings))
                break
            r, halvings = r / 2, halvings + 1
    return DoublingResult(rows, exact_count)
