"""Numerical homotopy continuation for line systems in P^3, and elimination
for four spheres.

A target problem is four conditions on a line -- tangency to a quadric
(quadratic in Pluecker coordinates) or incidence with a line (linear) --
plus the Pluecker quadric itself: five homogeneous equations of degree <= 2
in the six Pluecker coordinates, with Bezout number 2^(#tangency) * 2,
exactly the generic root count on the Grassmannian (a quadric hypersurface
in P^5).  Paths are followed in P^5 on a moving patch (the orthogonal patch
of Breiding and Timme, "HomotopyContinuation.jl", ICMS 2018): points are
kept at unit norm, and a step from x adds the sixth equation conj(x) . y = 1,
the affine patch through x orthogonal to it.  Each update of a step -- a
predictor stage or a corrector iteration -- is solved with conj(x) as the
Jacobian's sixth row and 0 as the value's, so it is orthogonal to x and
the patch equation holds along the whole step.  The accepted point is
scaled back to unit norm, and the polish at t = 1 puts the patch through
each iterate.  So a point is always as far as it can be from its patch's
hyperplane at infinity, conj(x) . y = 0: no path can come near it.

Solving is by continuation: a start system with known solutions is deformed
into the target along H(x, t) = (1 - t) * gamma * S(x) + t * T(x), with a
random unit complex gamma keeping the path regular for t < 1 with
probability one.  Each path is advanced by a fourth-order Runge-Kutta
predictor on the implicit-derivative ODE  dx/dt = -J_x^{-1} dH/dt  and a
short Newton corrector, then the endpoint is polished by the same Newton
at t = 1.  Steps start at FIRST_STEP and stay below MAX_STEP.  A rejected
step halves.  After an accepted one, the corrector's first update,
relative to the point, estimates the predictor's local error e, which goes
like step^5; the step grows by (STEP_TOL / e)^(1/5), clipped to
[1, MAX_GROWTH] (an error-driven step rule as in Deuflhard, "Newton Methods
for Nonlinear Problems", 2004).  It does not grow right after a rejection,
nor when e is within 10x the corrector tolerance, where the update
measures the corrector's own noise near a singular endpoint rather than
the predictor.

Every system tracked, start or target, is a ``LineConditions`` of five
rows; the homotopy appends the zero patch row.  The polish stops once the
endpoint's residual is below ``RESIDUAL_TOL``, and that residual is the
one a certificate records and ``verify`` bounds: each target row's |value|
over the row's coefficient norm times ||x||^degree
(``quadrics.row_residuals``), largest over the rows.  So whether a path
converges does not depend on how the target's rows are scaled.

Every quadratic form here is real (wedge^2 Q of a real quadric, the
Pluecker form, both starts; building a homotopy from any other raises
ValueError), so each point costs one real matmul of the start's and
target's forms, stacked, against x viewed as (6, 2) real pairs; J, H and
dH/dt follow elementwise.  The linear blocks enter only when some row of
the homotopy is linear: four tangencies have none, and adding their zero
blocks would change no value, at most the sign of a zero.  H is weighted
as (1 - t) gamma S + t T, never as gamma S + t (T - gamma S), which
cancels as t -> 1 far from the origin.

Tracking is lockstep: all paths of a homotopy advance together as one
(P, 6) array with their own t, step size and counters, and every predictor
stage, corrector iteration and polish iteration is one stacked 6x6 solve
over the paths still live, against the homotopy's tensors broadcast.  A
round's rows are narrowed only when one of them fails or finishes; until
then every stage and iteration reuses them as they are.  The stacked matmul
(one small product per point, never one GEMM over all points) and the
stacked solve reproduce the one-point arithmetic bit for bit, so each path
keeps the steps and endpoint it would have alone, and its solve count
unless a singular path sends a stack to the one-by-one fallback of
``_solve``; a path leaves each loop as soon as it is done, and a singular
Jacobian or non-finite prediction fails only its own path.

Every path ends once, and its record (an immutable ``TrackedPath``) is built
there; the cluster retrack only replaces a record by a new one.  A status is
one of these:
  converged            polished at t = 1 to a residual below RESIDUAL_TOL;
  at-infinity          heading to a line at infinity, ended in flight
                       (below);
  diverged             anything else without a certified endpoint: step
                       underflow, a singular Jacobian at an accepted point
                       (ended at once, as no smaller step can cure it),
                       MAX_STEPS steps taken, accepted or not, short of
                       t = 1 (the work budget, which ends with no
                       endpoint), or a polish that misses the tolerance;
  path-jump-suspected  converged onto an endpoint an earlier path holds.

At-infinity test.  Three spheres with a quadric or a line, and four spheres
whose elimination falls back (below), have fewer finite tangent lines than
paths: the rest go to lines at infinity tangent to the absolute conic
(Sottile and Theobald, "Lines tangent to 2n-2 spheres in R^n", 2002), where
the tracker would grind down to step underflow.  On those paths the share
of the line's direction, rho = |(p01, p02, p03)| / |p|, decays like
(1 - t)^(1/2), while on a path to a finite line it tends to a constant.
From 1 - t = 1e-2 on, the valuation d log rho / d log(1 - t) is measured
over each decade of 1 - t on accepted points (no extra solve).  Three
decades in a row within 1/8 of 1/2 end the path as at-infinity, and so
does step underflow right after one such decade.  This is a cheap late-t
test instead of a Cauchy endgame (Morgan, Sommese and Wampler, Numer.
Math. 1991); rho itself is never thresholded, because finite tangents of a
scene far from the origin have rho near 1e-2 too.

The problem picks the start.  Four tangencies are a parameter homotopy
(Morgan and Sommese, "Coefficient-parameter polynomial continuation", 1989)
from the 32 closed-form tangents of the tetrahedral family at alpha = beta =
1/10, solved once per process.  Anything else starts from the homogeneous
total-degree system x_j^(d_j) - x_5^(d_j) = 0, j < 5, with the degrees of
the conditions' rows; its prod(d_j) roots have x_5 = 1 and each x_j = +-1
(1 for a linear row), none of them at x_5 = 0, and their count equals the
root bound: no path is in excess.  The random gamma alone makes this start
sound (Sommese and Wampler, "The Numerical Solution of Systems of
Polynomials Arising in Engineering and Science", 2005).

Four spheres are solved without paths.  Their 12 common tangents (Sottile
and Theobald 2002, above) come from the reduction of Macdonald, Pach and
Theobald ("Common tangents to four unit balls in R^3", Discrete Comput.
Geom. 26, 2001).  With centre c_0 moved exactly to the origin, a line of
direction d and foot p (p . d = 0) is tangent to all four spheres iff
2 (d . d) C p = b(d) and |p|^2 = r_0^2, where C holds the other centres as
rows and b_i(d) = (|c_i|^2 - r_i^2 + r_0^2)(d . d) - (c_i . d)^2.  With
U(d) = adj(C) b(d), eliminating p leaves the cubic d . U(d) = 0 and the
quartic |U(d)|^2 = 4 r_0^2 det(C)^2 (d . d)^2 in P^2, which meet in 12
points.  In a random orthogonal chart d = R (x, y, 1), drawn from the seed,
their resultant in x has degree 12; it is interpolated from 7x7 Sylvester
determinants at the 13th roots of unity, each root x takes as y the
cubic's root where the quartic is smallest, and p = U(d) / (2 (d . d)
det C).  The line through (1, c_0 + p) and (0, d) takes one Newton step
and the polish of a path's endpoint.  Coplanar centres (det C = 0), a
resultant of degree below 12 (fewer than 12 roots from np.roots), a missed
polish or fewer than 12 distinct lines (where a near-zero x^12 coefficient
leads) send the system to the tetra start instead; its result names why.

Determinism: gamma and the chart are drawn from seeded generators, and the
start data are fixed; a fixed seed reproduces every path and every line.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grassmann import (
    DISTINCT_TOL,
    RESIDUAL_TOL,
    RealityReport,
    classify_real,
    close_pairs,
    normalize_endpoint,
    transversals_to_4_lines,
)
from .quadrics import AffineFlat, LineConditions, Meets, TangentTo, cylinder, row_residuals
from .tetra32 import TetraParams, enumerate_tangents, numeric_vectors

# ---------------------------------------------------------------------------
# systems


def total_degree_start(conditions: LineConditions) -> tuple[LineConditions, np.ndarray]:
    """Start system x_j^(d_j) - x_5^(d_j) = 0 with the degrees of the
    conditions' rows, plus all prod(d_j) of its solutions, each with x_5 = 1:
    the generic root count of the target, so every path is meaningful."""
    m = len(conditions.degree)
    quad = np.zeros((m, 6, 6))
    lin = np.zeros((m, 6), dtype=complex)
    for j, d in enumerate(conditions.degree):
        if d == 2:
            quad[j, j, j], quad[j, 5, 5] = 1.0, -1.0
        else:
            lin[j, j], lin[j, 5] = 1.0, -1.0
    roots = [(1.0, -1.0) if d == 2 else (1.0,) for d in conditions.degree]
    starts = np.array([(*combo, 1.0) for combo in itertools.product(*roots)], dtype=complex)
    start = LineConditions(tuple(f"start_{j}" for j in range(m)), quad, lin,
                           np.full(m, np.sqrt(2)), conditions.degree, (None,) * m)
    return start, starts


# ---------------------------------------------------------------------------
# tracking


# steps start at FIRST_STEP and stay below MAX_STEP (RETRACK_STEPS when re-
# tracking coinciding endpoints); a path diverges below MIN_STEP; a step is
# accepted when Newton's update falls below CORRECTOR_TOL (relative) within
# CORRECTOR_ITERS; steps halve on failure and, after an accepted step whose
# first Newton update had relative size e, grow by (STEP_TOL / e)^(1/5),
# clipped to [1, MAX_GROWTH] (not right after a rejection, nor when e is
# within 10x CORRECTOR_TOL)
FIRST_STEP = 0.05
MAX_STEP = 0.25
RETRACK_STEPS = (FIRST_STEP / 10, MAX_STEP / 10)
MIN_STEP = 1e-14
CORRECTOR_ITERS = 3
CORRECTOR_TOL = 1e-10
STEP_TOL = 3e-4
MAX_GROWTH = 2.0
ENDPOINT_ITERS = 15  # Newton polish iterations at t = 1
# a path's work budget: steps taken, accepted or not, before it ends diverged
MAX_STEPS = 20_000

# the at-infinity test of the module docstring: decade valuations of rho from
# 1 - t = INFINITY_FROM on, INFINITY_DECADES of them in a row inside
# INFINITY_VALUATION
INFINITY_FROM = 1e-2
INFINITY_VALUATION = (0.375, 0.625)
INFINITY_DECADES = 3

# _track_lockstep's status codes: 0 until the path ends, at its polish at t = 1
# or, from AT_INFINITY on, short of t = 1 with no endpoint
STATUSES = ("", "converged", "diverged", "at-infinity", "diverged")
CONVERGED, MISSED, AT_INFINITY, DIVERGED = range(1, 5)


@dataclass(frozen=True, eq=False)
class TrackedPath:
    """One continuation path, built once, where it ends; its index is its start's.
    `track --path-log` writes these fields, in order: a new counter is one field."""

    status: str            # "converged" | "at-infinity" | "diverged"; or,
                           # by the retrack, "path-jump-suspected"
    steps: int
    solves: int            # linear systems solved for this start, all attempts
    residual: float        # the endpoint's residual, as LineConditions normalizes it
    cond: float            # endpoint Jacobian condition number; inf without one
    endpoint: np.ndarray | None
    duplicate_of: int | None = None  # index of an earlier coinciding path

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class _Homotopy:
    """H(x,t) = (1-t) gamma S(x) + t T(x) for a start S and a target T,
    five-row ``LineConditions`` each, at a stack of points with one t each,
    and each point's patch row v (the module docstring's moving patch):
    row 5 of every Jacobian is v, and row 5 of H and dH/dt is 0.

    ``quad`` stacks the real forms, with the zero patch row appended, as one
    (72, 6) matrix, the rows of S's then of T's, so one real matmul per
    point against x viewed as (6, 2) real pairs gives A = S.quad x and
    B = T.quad x; everything else is elementwise.  ``lin`` holds
    (gamma S, T)'s, and ``scale`` and ``degree`` T's, for its residual.
    ``linear`` records whether S or T has a linear row; without one, the
    all-zero ``lin`` blocks are never added, which changes no value (at most
    the sign of a zero).  The tensors are broadcast over the points."""

    quad: np.ndarray   # (72, 6) real
    lin: np.ndarray    # (2, 6, 6) complex
    gamma: complex
    scale: np.ndarray  # (5,) the target's
    degree: np.ndarray  # (5,) the target's
    linear: bool

    @classmethod
    def of(cls, start: LineConditions, target: LineConditions, gamma: complex) -> _Homotopy:
        quad = np.array([start.quad, target.quad])
        if np.iscomplexobj(quad) and np.any(quad.imag):
            raise ValueError("quadratic forms must be real")
        patch = [(0, 0), (0, 1), (0, 0)]  # row 5, the patch row, is 0
        quad = np.pad(quad.real, patch + [(0, 0)])
        lin = np.pad(np.array([gamma * start.lin, target.lin], dtype=complex), patch)
        return cls(quad.reshape(72, 6), lin, gamma, target.scale, target.degree,
                   bool(np.any(lin)))

    def _contract(self, x):
        """quad @ x per point, one stacked real matmul (never one GEMM over
        all points, whose bits could depend on the batch), as (P, 2, 6, 6)
        complex: block 0 is A, block 1 is B."""
        pairs = np.ascontiguousarray(x).view(float).reshape(len(x), 6, 2)
        return (self.quad @ pairs).view(complex).reshape(len(x), 2, 6, 6)

    def _combine(self, x, t, v):
        """A, B, K = M + L and the Jacobian J = 2M + L with row 5 set to v,
        where M = (1-t) gamma A + t B and L = (1-t) gamma S.lin + t T.lin,
        at each (x, t)."""
        a, b = self._contract(x).swapaxes(0, 1)
        s, u = (1 - t)[:, None, None], t[:, None, None]
        k = m = (s * self.gamma) * a + u * b
        if self.linear:
            k = m + (s * self.lin[0] + u * self.lin[1])
        jac = k + m
        jac[:, 5] = v
        return a, b, k, jac

    def newton(self, x, t, v):
        """J_x and H at each (x, t), for the corrector and, at t = 1, where
        H is T, the polish."""
        _, _, k, jac = self._combine(x, t, v)
        return jac, (k @ x[..., None])[..., 0]

    def tangent(self, x, t, v):
        """J_x and dH/dt = T(x) - gamma S(x) at each (x, t), for the predictor."""
        a, b, _, jac = self._combine(x, t, v)
        d = b - self.gamma * a
        if self.linear:
            d += self.lin[1] - self.lin[0]
        return jac, (d @ x[..., None])[..., 0]

    def residual(self, x, value):
        """The target's residual at each x, from T(x) = ``value``: its rows'
        largest, normalized as ``LineConditions.residual_table`` does."""
        return np.max(row_residuals(value[:, :5], x, self.scale, self.degree), axis=-1)


def _unit(x):
    """x scaled to unit norm, row by row; an all-zero row is left as it is."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.divide(x, norm, out=np.array(x, dtype=complex), where=norm > 0)


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
    """RK4 step of the given sizes on dx/dt = -J_x^{-1} dH/dt for each row,
    on the patch through its unit-norm point x, ``h`` being evaluated at
    the rows.  A row whose Jacobian is singular at some stage drops out of
    the later stages and comes back NaN; the rows are narrowed only then.
    Also returns the mask of rows singular at stage 0, the current point
    itself, which no smaller step can cure."""
    pred = np.full(x.shape, np.nan, dtype=complex)
    index, v, k = np.arange(len(x)), x.conj(), []
    for stage, c in enumerate((0.0, 0.5, 0.5, 1.0)):
        xs, ts = (x + (c * step)[:, None] * k[-1], t + c * step) if stage else (x, t)
        jac, dt = h.tangent(xs, ts, v)
        dx, solved = _solve(jac, -dt, solves, rows)
        k.append(dx)
        if not stage:
            stuck = ~solved
        if not solved.all():
            index, x, t, step, v, rows, *k = (a[solved] for a in (index, x, t, step, v, rows, *k))
    k1, k2, k3, k4 = k
    pred[index] = x + (step / 6)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
    return pred, stuck


def _correct(h: _Homotopy, x, t, v, solves, rows, live):
    """Newton at fixed t for the rows ``live`` (a mask), on the patch
    v . x = 1.  A row stops when its update falls below the corrector
    tolerance (ok) or its Jacobian is singular, and the rows are narrowed
    only then.  Returns each row's corrected point (NaN unless ok), ok, and
    its first update relative to its point, which estimates the predictor's
    error (NaN where the first solve failed)."""
    out = np.full(x.shape, np.nan, dtype=complex)
    ok = np.zeros(len(x), bool)
    first = np.full(len(x), np.nan)
    index = np.arange(len(x))
    for iteration in range(CORRECTOR_ITERS):
        if not live.all():
            if not live.any():
                break
            index, x, t, v, rows = (a[live] for a in (index, x, t, v, rows))
        jac, value = h.newton(x, t, v)
        dx, live = _solve(jac, -value, solves, rows)
        x = x + dx
        # |x| >= 1 on the patch through a unit-norm point
        update = np.linalg.norm(dx, axis=-1) / np.linalg.norm(x, axis=-1)
        if not iteration:
            first[index] = update
        done = update < CORRECTOR_TOL
        ok[index[done]] = True
        out[index[done]] = x[done]
        live &= ~done
    return out, ok, first


def _polish(h: _Homotopy, x, rows, solves):
    """Newton on the target at t = 1 for the points ``rows`` (ascending),
    in place, until each one's residual (``_Homotopy.residual``) is below
    RESIDUAL_TOL, for at most ENDPOINT_ITERS iterations.  Returns
    each row's residual and endpoint Jacobian condition number.  A point
    already within the tolerance is left as it is, so polishing again
    changes no bit."""

    def at_one(rows):  # the target's Jacobian and value at x[rows]
        return h.newton(x[rows], np.ones(len(rows)), x[rows].conj())

    live = rows
    for _ in range(ENDPOINT_ITERS):
        if not live.size:
            break
        jac, value = at_one(live)
        far = ~(h.residual(x[live], value) < RESIDUAL_TOL)
        live = live[far]
        if not live.size:
            break
        dx, solved = _solve(jac[far], -value[far], solves, live)
        ok = solved & np.all(np.isfinite(dx), axis=-1)
        live = live[ok]
        x[live] += dx[ok]
    if not rows.size:
        return np.zeros(0), np.zeros(0)
    jac, value = at_one(rows)
    try:
        cond = np.linalg.cond(jac)
    except np.linalg.LinAlgError:  # an SVD failed: only its row is inf
        cond = np.full(len(rows), np.inf)
        for k, a in enumerate(jac):
            try:
                cond[k] = np.linalg.cond(a)
            except np.linalg.LinAlgError:
                pass
    return h.residual(x[rows], value), cond


def _track_lockstep(h: _Homotopy, starts: np.ndarray, steps) -> list[TrackedPath]:
    """Track all start points together, one stacked solve per stage, with
    ``steps`` = (first step, largest step).  A path's status is written
    once, where it ends."""
    first_step, max_step = steps
    n = len(starts)
    x = starts.copy()
    t = np.zeros(n)
    step = np.full(n, first_step)
    steps = np.zeros(n, dtype=int)
    rejected = np.zeros(n, bool)    # the path's last step was rejected
    solves = np.zeros(n, dtype=int)
    status = np.zeros(n, dtype=int)  # an index into STATUSES, 0 until the path ends
    mark = np.full((n, 2), np.nan)  # (log(1 - t), log rho) at the last decade mark
    decades = np.zeros(n, dtype=int)  # decades in a row up to it with rho ~ (1 - t)^(1/2)

    while True:
        # a path within min_step of t = 1 is there up to roundoff: it has
        # arrived, and waits for its polish
        short = (t < 1.0) & ~(1.0 - t < MIN_STEP)
        running = short & (status == 0)
        # step underflow (at infinity right after a half-valuation decade),
        # or out of budget
        ended = running & ((step < MIN_STEP) | (steps >= MAX_STEPS))
        if ended.any():
            status[ended] = np.where((step[ended] < MIN_STEP) & (decades[ended] > 0),
                                     AT_INFINITY, DIVERGED)
        rows = np.flatnonzero(running & (status == 0))  # less those ended above
        if not rows.size:
            break
        step[rows] = np.minimum(step[rows], 1.0 - t[rows])
        s, t0, x0 = step[rows], t[rows], x[rows]
        pred, stuck = _predict(h, x0, t0, s, solves, rows)
        corr, accept, error = _correct(h, pred, t0 + s, x0.conj(), solves, rows,
                                       np.all(np.isfinite(pred), axis=-1))
        steps[rows] += 1
        good, bad = rows[accept], rows[~accept]
        x[good] = _unit(corr[accept])
        t[good] = t0[accept] + s[accept]
        # RK4's local error goes like step^5.  No step grows right after a
        # rejection, nor on an error within 10x the corrector tolerance (an
        # exact prediction included): that is the corrector's noise floor
        # near a singular endpoint, not the predictor's error, and growing
        # on it keeps such a path from ever reaching MIN_STEP
        error = error[accept]
        with np.errstate(divide="ignore"):
            growth = np.clip((STEP_TOL / error) ** (1 / 5), 1.0, MAX_GROWTH)
        growth[rejected[good] | (error < 10 * CORRECTOR_TOL)] = 1.0
        step[good] = np.minimum(step[good] * growth, max_step)
        step[bad] /= 2
        rejected[rows] = ~accept
        if stuck.any():
            status[rows[stuck]] = DIVERGED

        # late-t test on the accepted points, one decade of 1 - t at a time
        late = good[(1.0 - t[good] <= INFINITY_FROM) & (t[good] < 1.0)]
        if late.size:
            # (log(1 - t), log rho) of unit-norm points
            point = np.stack([np.log(1.0 - t[late]),
                              np.log(np.linalg.norm(x[late, :3], axis=-1))], axis=-1)
            first = np.isnan(mark[late, 0])
            decade = point[:, 0] <= mark[late, 0] - np.log(10)
            new = late[decade]
            rise = point[decade] - mark[new]
            valuation = rise[:, 1] / rise[:, 0]
            lo, hi = INFINITY_VALUATION
            half = (lo < valuation) & (valuation < hi)
            decades[new] = np.where(half, decades[new] + 1, 0)
            status[new[decades[new] >= INFINITY_DECADES]] = AT_INFINITY
            mark[late[first | decade]] = point[first | decade]

    # the arrivals at t = 1 end at their polish
    residual, cond = np.full(n, np.inf), np.full(n, np.inf)
    rows = np.flatnonzero(status == 0)
    residual[rows], cond[rows] = _polish(h, x, rows, solves)
    status[rows] = np.where(residual[rows] < RESIDUAL_TOL, CONVERGED, MISSED)
    return [TrackedPath(status=STATUSES[code], steps=int(steps[i]), solves=int(solves[i]),
                        residual=float(residual[i]), cond=float(cond[i]),
                        endpoint=x[i] if code < AT_INFINITY else None)
            for i, code in enumerate(status.tolist())]


def track(start: LineConditions, start_solutions, target: LineConditions,
          seed: int = 0) -> list[TrackedPath]:
    """Track every start solution of the five-row system ``start`` to
    ``target``, all paths as one lockstep batch, with gamma drawn from
    ``seed``; every path takes the steps and reaches the endpoint it would
    alone.

    Starts are scaled to unit norm (an all-zero one is kept, and fails at
    its first step).  Every path is tracked once, except endpoints closer
    than the distinctness tolerance: those are tracked again, together,
    with RETRACK_STEPS, and any that still coincide are flagged as
    suspected path jumps (``duplicate_of``, the index of the path kept)
    rather than silently counted as multiple solutions.
    """
    rng = np.random.default_rng(seed)
    h = _Homotopy.of(start, target, complex(np.exp(2j * np.pi * rng.random())))
    starts = _unit(np.reshape(np.array(start_solutions, dtype=complex), (-1, 6)))
    paths = _track_lockstep(h, starts, (FIRST_STEP, MAX_STEP))
    first = _coincident_clusters(paths)
    if first:
        indices = sorted(i for cluster in first for i in cluster)
        again = _track_lockstep(h, starts[indices], RETRACK_STEPS)
        for i, p in zip(indices, again):
            paths[i] = dataclasses.replace(p, solves=p.solves + paths[i].solves)
        for keep, *others in _coincident_clusters(paths):
            for i in others:
                paths[i] = dataclasses.replace(paths[i], status="path-jump-suspected",
                                               duplicate_of=keep)
    return paths


def _coincident_clusters(paths: list[TrackedPath]) -> list[list[int]]:
    """Greedy clusters of converged endpoints closer than DISTINCT_TOL: each
    path not yet taken, in order, collects every later untaken path close to it."""
    idx = [i for i, p in enumerate(paths) if p.converged and p.endpoint is not None]
    members: dict[int, list[int]] = {}
    taken = set()
    for a, b in close_pairs([paths[i].endpoint for i in idx], DISTINCT_TOL):
        if a not in taken and b not in taken:
            members.setdefault(a, [idx[a]]).append(idx[b])
            taken.add(b)
    return list(members.values())


# ---------------------------------------------------------------------------
# high-level solving


@dataclass
class TrackResult:
    conditions: LineConditions
    paths: list[TrackedPath]
    start_policy: str        # "elimination", "tetra", "total-degree" or "split"
    fallback: str | None = None  # why four spheres were tracked, not eliminated

    @property
    def distinct_paths(self) -> list[TrackedPath]:
        """Converged paths; a suspected duplicate of another is marked
        "path-jump-suspected" instead."""
        return [p for p in self.paths if p.converged]

    @functools.cached_property
    def endpoints(self) -> np.ndarray:
        """The distinct paths' endpoints as one read-only (N, 6) stack, each
        row put through ``normalize_endpoint`` once: the lines ``track``
        certifies."""
        stack = normalize_endpoint(np.reshape([p.endpoint for p in self.distinct_paths], (-1, 6)))
        stack.flags.writeable = False
        return stack

    def reality(self) -> RealityReport:
        """``classify_real`` of the ``endpoints`` stack, one flag per row."""
        return classify_real(self.endpoints)


# the closed-form start family, inside the region where all 32 lines are real
START_PARAMS = TetraParams.of(Fraction(1, 10), Fraction(1, 10))


@functools.cache
def tetra_start() -> tuple[LineConditions, np.ndarray]:
    """The start family's conditions and its 32 numeric tangents, solved
    once per process and shared read-only."""
    tangents = numeric_vectors(enumerate_tangents(START_PARAMS))
    tangents.flags.writeable = False
    return START_PARAMS.conditions, tangents


def _times(p, q):
    """Products of stacked polynomials, coefficients on the last axis."""
    out = np.zeros(np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
                   + (p.shape[-1] + q.shape[-1] - 1,), dtype=complex)
    for i in range(q.shape[-1]):
        out[..., i:i + p.shape[-1]] += p * q[..., i:i + 1]
    return out


def _in_y(forms, r0_sq, chart, x):
    """The direction d = chart (x, y, 1) at each x, as (d_y, d_0) with d =
    d_y y + d_0, and the cubic d . U(d) and the quartic |U(d)|^2 -
    4 r0_sq (d . d)^2 there as polynomials in y, highest power first; U(d)'s
    components are the quadratic ``forms`` over det C."""
    e, a = chart[:, 1], np.outer(x, chart[:, 0]) + chart[:, 2]
    fe = forms @ e
    d = np.stack(np.broadcast_arrays(e, a), axis=-1)
    u = np.stack(np.broadcast_arrays(fe @ e, 2 * a @ fe.T,
                                     np.einsum("ni,kij,nj->nk", a, forms, a)), axis=-1)
    dd = _times(d, d).sum(axis=1)
    return d, _times(d, u).sum(axis=1), _times(u, u).sum(axis=1) - 4 * r0_sq * _times(dd, dd)


def _eliminate(conditions: LineConditions, seed: int) -> list[TrackedPath] | str:
    """The 12 tangent lines of four spheres, by the module docstring's
    elimination, as converged paths of no step, polished on
    ``conditions``; or, where elimination cannot give them, why."""
    (c0, r0_sq), *others = conditions.spheres[:4]
    # C's rows and the (d . d) coefficients of b(d), scaled by lam to integers
    rows = [[a - b for a, b in zip(c, c0)] for c, _ in others]
    shift = [sum(a * a for a in row) - r_sq + r0_sq for row, (_, r_sq) in zip(rows, others)]
    lam = math.lcm(*(x.denominator for x in itertools.chain(*rows, shift)))
    rows = [[int(a * lam) for a in row] for row in rows]
    shift = [int(x * lam * lam) for x in shift]
    adj = [[rows[(j + 1) % 3][(k + 1) % 3] * rows[(j + 2) % 3][(k + 2) % 3]
            - rows[(j + 1) % 3][(k + 2) % 3] * rows[(j + 2) % 3][(k + 1) % 3]
            for j in range(3)] for k in range(3)]  # adj(C)[k][j]: a cross product
    det = sum(a * b for a, b in zip(rows[0], (adj[k][0] for k in range(3))))
    if det == 0:
        return "coplanar centres"
    # U_k(d) / det C = d^T forms[k] d, exact in integers, rounded once by
    # the division (lam scales C by lam, U by lam^4 and det C by lam^3)
    forms = np.array([[[sum(adj[k][i] * (shift[i] * (a == b) - rows[i][a] * rows[i][b])
                            for i in range(3)) / (lam * det) for b in range(3)]
                       for a in range(3)] for k in range(3)])
    chart = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    unity = np.exp(2j * np.pi * np.arange(13) / 13)
    _, cubic, quartic = _in_y(forms, float(r0_sq), chart, unity)
    sylvester = np.zeros((13, 7, 7), dtype=complex)
    for i in range(4):
        sylvester[:, i, i:i + 4] = cubic
    for i in range(3):
        sylvester[:, 4 + i, i:i + 5] = quartic
    # the resultant's coefficients, lowest first: the inverse DFT of its
    # values at the 13th roots of unity (a 13x13 product; numpy.fft would
    # be one more module to load).  The scene is real
    resultant = (np.linalg.det(sylvester) @ unity[:, None] ** -np.arange(13)).real / 13
    roots = np.roots(resultant[::-1])
    if len(roots) < 12:
        return "resultant of degree below 12"
    d, cubic, quartic = _in_y(forms, float(r0_sq), chart, roots)
    companion = np.zeros((12, 3, 3), dtype=complex)
    companion[:, 1, 0] = companion[:, 2, 1] = 1
    # a cubic that drops its degree at a root (a chart of measure zero)
    # gives no finite y there, and that line's polish misses
    with np.errstate(divide="ignore", invalid="ignore"):
        companion[:, 0] = -cubic[:, 1:] / cubic[:, :1]
    y = np.linalg.eigvals(np.nan_to_num(companion))
    size = np.abs(np.sum([c[:, None] * y ** (4 - m) for m, c in enumerate(quartic.T)], axis=0))
    y = np.take_along_axis(y, np.argmin(size, axis=1)[:, None], axis=1)
    d = d[..., 0] * y + d[..., 1]
    foot = np.array([float(c) for c in c0]) + (
        np.einsum("ni,kij,nj->nk", d, forms, d) / (2 * np.sum(d * d, axis=1))[:, None])
    # the line through (1, foot) and (0, d)
    moment = np.stack([foot[:, i] * d[:, j] - foot[:, j] * d[:, i]
                       for i, j in ((0, 1), (0, 2), (1, 2))], axis=1)
    return _settle(conditions, _unit(np.concatenate([d, moment], axis=1)))


def _settle(conditions: LineConditions, x) -> list[TrackedPath] | str:
    """The lines of ``conditions`` at the unit-norm points ``x``, as
    converged paths of no step: one Newton step on the system's own rows,
    as the corrector takes, then the polish of a path's endpoint, since
    lines computed in floats have residuals near 1e-13, which the polish
    alone would keep.  Or, unless all of them are certified and distinct,
    why not."""
    n = len(x)
    h, rows, solves = _Homotopy.of(conditions, conditions, 1.0), np.arange(n), np.zeros(n, int)
    jac, value = h.newton(x, np.ones(n), x.conj())
    x = x + _solve(jac, -value, solves, rows)[0]
    residual, cond = _polish(h, x, rows, solves)
    if not np.all(residual < RESIDUAL_TOL):
        return "a polish missed"
    if close_pairs(x, DISTINCT_TOL):
        return f"fewer than {n} distinct lines"
    return [TrackedPath("converged", 0, int(solves[i]), float(residual[i]), float(cond[i]), x[i])
            for i in range(n)]


def solve_tangency(conditions: LineConditions, seed: int = 0) -> TrackResult:
    """Solve a four-condition line system.

    Four spheres are solved by elimination ("elimination").  Other four
    tangencies, and four spheres where elimination falls back
    (``TrackResult.fallback`` says why), are tracked from the 32
    closed-form tangents of the start family ("tetra"); any other problem
    from a total-degree start ("total-degree").  ``TrackResult.start_policy``
    names the route; ``doubling_experiment``'s split stages are the one
    other ("split").
    """
    if len(conditions.labels) != 5:  # four conditions and the Pluecker row
        raise ValueError("tracking needs exactly 4 conditions, "
                         f"got {len(conditions.labels) - 1}")
    lines = _eliminate(conditions, seed) if None not in conditions.spheres[:-1] else None
    if isinstance(lines, list):
        return TrackResult(conditions, lines, "elimination")
    policy = "tetra" if np.all(conditions.degree == 2) else "total-degree"
    start, starts = tetra_start() if policy == "tetra" else total_degree_start(conditions)
    # lines: None, or why elimination fell back
    return TrackResult(conditions, track(start, starts, conditions, seed), policy, lines)


# ---------------------------------------------------------------------------
# the cylinder-radius doubling experiment


def regular_tetrahedron_lines() -> list[AffineFlat]:
    """Four edge lines of the regular tetrahedron with vertices at
    alternating corners of the cube [-1,1]^3, forming a 4-cycle.

    This is an affine realization of the coordinate-tetrahedron edge
    configuration (which puts two edges in the plane at infinity and so
    admits no Euclidean cylinders).  The two transversals are the remaining
    opposite edges.
    """
    corners = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    return [AffineFlat.from_point_directions(p, [[b - a for a, b in zip(p, q)]])
            for p, q in zip(corners, corners[1:] + corners[:1])]


@dataclass
class DoublingRow:
    """One stage of the ladder: a row of `doubling --format json`, field by field."""

    stage: int                 # number of incidence conditions replaced
    target: int                # 2^stage * 2
    real: int                  # real lines found
    converged: int
    radii: tuple[Fraction, ...]


@dataclass
class DoublingResult:
    rows: list[DoublingRow]
    exact_stage0_count: int    # transversal count from the exact solver

    @property
    def counts(self) -> list[int]:
        return [row.real for row in self.rows]

    @property
    def misses(self) -> list[str]:
        """Each stage whose real count misses its target, named with how many
        of its paths converged: all of them when the cylinders are too wide
        for real lines, fewer when paths were lost.  A stage tracks as many
        paths as its target, and real <= converged, so a stage that loses a
        path always misses its target."""
        return [f"stage {r.stage}: {r.real} real lines, target {r.target} "
                f"({r.converged} of {r.target} paths converged)"
                for r in self.rows if r.real != r.target]


# `doubling --auto`'s cylinder radii
AUTO_RADII = (Fraction(1, 10),) * 4


def _split(lines, target: LineConditions, row: int, degenerate: np.ndarray,
           radius: Fraction) -> TrackResult | None:
    """The lines of ``target`` split from ``lines``, those of the system
    that meets the axis of the cylinder of ``target``'s row ``row`` instead.

    ``degenerate`` is that cylinder's form at radius 0, A (the incidence
    with the axis, squared: rank 1), and its form at ``radius`` r is
    exactly A + r^2 B.  Each line x0 meets the axis, a double root at
    r = 0, and splits as x0 +- r lambda w: w spans the kernel of the
    Jacobian of the other rows and the patch row conj(x0), and lambda^2 =
    -x0^T B x0 / w^T A w.  The split points are settled on ``target``
    (``_settle``) as converged paths of no step ("split"); None unless all
    2 len(lines) of them are certified and distinct."""
    r = float(radius)
    b = (target.quad[row] - degenerate) / r ** 2
    jac = 2 * (target.quad @ lines[:, None, :, None])[..., 0] + target.lin
    jac[:, row] = lines.conj()
    w = np.linalg.svd(jac)[2][:, -1].conj()
    lam = np.sqrt(-np.einsum("ni,ij,nj->n", lines, b, lines)
                  / np.einsum("ni,ij,nj->n", w, degenerate, w))
    step = (r * lam)[:, None] * w
    paths = _settle(target, _unit(np.stack([lines + step, lines - step], axis=1).reshape(-1, 6)))
    return TrackResult(target, paths, "split") if isinstance(paths, list) else None


def doubling_experiment(radii=AUTO_RADII, seed: int = 0) -> DoublingResult:
    """Replace incidence conditions by cylinder tangencies one at a time.

    Stage i surrounds the first i tetrahedron edge lines with distance-r_j
    cylinders and keeps incidence conditions on the rest; each tangency
    doubles the solution count, so small enough radii give 2, 4, 8, 16, 32
    real lines at stages 0..4.  The ladder follows the paper's
    degeneration: at radius 0, tangency to a cylinder is meeting its axis,
    counted twice, so each line of stage i splits into two of stage i + 1
    (``_split``).  Stage 0 is tracked from its total-degree start with
    ``seed``.  A later stage is split while every stage before it has all
    its lines, certified and distinct, and the split gives all of its own;
    from the first stage where that fails, each stage is tracked alone with
    ``seed``.  A stage that misses its target count is reported as it
    stands (``misses``).
    """
    radii = [Fraction(r) for r in radii]
    if len(radii) != 4 or any(r <= 0 for r in radii):
        raise ValueError("need four cylinder radii > 0")
    lines = regular_tetrahedron_lines()
    proj = [ln.to_projective() for ln in lines]
    cylinders = [TangentTo(cylinder(ln, r)) for ln, r in zip(lines, radii)]
    axes = [TangentTo(cylinder(ln, 0)) for ln in lines]
    incidences = [Meets(p.dual()) for p in proj]
    results, splitting = [], False
    for stage in range(5):
        conditions = LineConditions.compile(enumerate(cylinders[:stage] + incidences[stage:]))
        result = (_split(results[-1].endpoints, conditions, stage - 1, axes[stage - 1].form(),
                         radii[stage - 1]) if stage and splitting else None)
        if result is None:
            result = solve_tangency(conditions, seed)
            splitting = stage == 0 and len(result.endpoints) == 2
        results.append(result)
    rows = [DoublingRow(stage, 2 << stage, result.reality().real_count,
                        len(result.endpoints), tuple(radii[:stage]))
            for stage, result in enumerate(results)]
    return DoublingResult(rows, transversals_to_4_lines(proj).real_count)
