"""The 32 real tangent lines of the tetrahedral quadric family.

Four diagonal quadrics Q1..Q4(alpha, beta) deform the edge lines of the
coordinate tetrahedron.  Because all four are diagonal, their tangency
conditions are linear in the squared Pluecker coordinates, and the common
tangent lines come out in closed form: 8 + 8 solutions from two symmetric
coordinate cases and 16 more from a quadratic in p01^2.

Everything below is exact until the final printing step.
"""

from fractions import Fraction as F

from quadtangents import (
    TetraParams,
    below_reality_bound,
    enumerate_tangents,
    family,
    reality_count,
    verify_solution,
)

# %% the family at small positive parameters: smooth ruled surfaces

params = TetraParams.of(F(1, 10), F(1, 10))
for q in family(params):
    print(f"{q.label}: signature {q.signature}, rank {q.rank}")

# %% all 32 tangents, with one fully printed

solutions = enumerate_tangents(params)
print(f"\n{len(solutions)} tangent lines; by case:",
      {c: sum(s.case == c for s in solutions) for c in (1, 2, 3)})

sol = solutions[0]
print(f"\na case-{sol.case} solution, signs {sol.signs}:")
print("  squared outer coordinate:", sol.sq_out)
print("  squared inner coordinate:", sol.sq_in)
print("  numeric Pluecker vector:", sol.numeric().round(6))
print("  residual report:", {k: f"{v:.2e}"
                             for k, v in verify_solution(sol, params).items()})

# %% reality across the parameter plane

print("\nreality counts (real, nonreal):")
for a, b in [(F(1, 10), F(1, 10)), (F(1, 10), F(1, 20)), (F(17, 100), F(17, 100)),
             (F(1, 5), F(1, 5)), (F(1, 2), F(1, 2)), (F(-1, 10), F(-1, 10))]:
    real, nonreal = reality_count(TetraParams.of(a, b))
    inside = below_reality_bound(a) and below_reality_bound(b)
    marker = "  <- inside the guaranteed-real box" if inside else ""
    print(f"  alpha={a}, beta={b}: ({real}, {nonreal}){marker}")

# The guaranteed region is 0 < alpha, beta < 3 - 2*sqrt(2) ~ 0.17157; the
# comparison is done on exact squares, never with floating square roots.
print("\n0.17 below the bound?", below_reality_bound(F(17, 100)))
print("0.18 below the bound?", below_reality_bound(F(18, 100)))

# %% what breaks at degenerate parameters

from quadtangents import DegeneracyError

try:
    enumerate_tangents(TetraParams.of(F(1, 9), F(1, 4)))
except DegeneracyError as exc:
    print("\ndegenerate parameters (1/9, 1/4):", exc.factors)
