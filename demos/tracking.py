"""Carrying the 32 known tangents to arbitrary quadrics by continuation.

The tetrahedral family gives 32 certified tangent lines in closed form.
A homotopy deforms that system into any target system of four quadrics;
tracking each solution along the deformation finds all 32 tangents of the
target.  Endpoints are polished by Newton, checked against the Pluecker
relation, and classified as real or conjugate pairs.
"""

import numpy as np

from quadtangents import (
    LineConditions,
    PluckerVector,
    TangentTo,
    TetraParams,
    check_plucker_relations,
    enumerate_tangents,
    solve_tangency,
)
from quadtangents.grassmann import close_pairs, normalize_endpoint


def agreeing(first, second, tol=1e-9) -> int:
    """How many endpoints of ``first`` lie within ``tol`` of one of ``second``."""
    pairs = close_pairs(list(first) + list(second), tol)
    return len({a for a, b in pairs if a < len(first) <= b})


# %% sanity run: track between two members of the closed-form family

target_params = TetraParams.of("1/10", "1/20")
system = target_params.conditions  # the family's four tangencies, compiled
result = solve_tangency(system, seed=7)  # starts from the closed form
print(f"{len(result.endpoints)}/32 paths converged; "
      f"max endpoint residual {max(p.residual for p in result.distinct_paths):.2e}")

closed_form = [s.numeric() for s in enumerate_tangents(target_params)]
print(f"{agreeing(result.endpoints, closed_form)}/32 endpoints agree with "
      "the closed-form solutions to 1e-9")

# %% four random real quadrics

rng = np.random.default_rng(20240517)
conditions = []
for _ in range(4):
    m = rng.uniform(-1, 1, size=(4, 4))
    conditions.append(TangentTo((m + m.T) / 2))
system = LineConditions.compile(enumerate(conditions))
result = solve_tangency(system, seed=1)

report = result.reality()
print(f"\nrandom scene: {len(result.endpoints)} tangent lines, "
      f"{report.real_count} real, {len(report.conjugate_pairs)} conjugate pairs")

# every endpoint satisfies the defining equations
worst_rel = worst_tan = 0.0
for v in result.endpoints:
    w = normalize_endpoint(v)
    p = PluckerVector(1, 3, tuple(w))
    worst_rel = max(worst_rel, check_plucker_relations(p))
    for cond in conditions:
        form = cond.form()
        worst_tan = max(worst_tan, float(abs(w @ form @ w) / np.linalg.norm(form)))
print(f"worst Pluecker residual {worst_rel:.2e}, worst tangency {worst_tan:.2e}")

# %% the same endpoints from a different random homotopy

again = solve_tangency(system, seed=99)
print(f"\nendpoint set is homotopy-independent: "
      f"{agreeing(result.endpoints, again.endpoints)}/{len(result.endpoints)} "
      "endpoints agree to 1e-9")

# %% path statistics

steps = [p.steps for p in result.paths]
print(f"\nsteps per path: min {min(steps)}, median {sorted(steps)[16]}, "
      f"max {max(steps)}")
