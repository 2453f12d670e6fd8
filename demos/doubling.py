"""Doubling the solution count, one cylinder at a time.

Four lines in general position have two transversals.  Fattening one line
into a thin cylinder splits every transversal into two nearby tangents,
so replacing the incidence conditions one by one gives 2, 4, 8, 16, 32
real lines.  This is the geometric mechanism behind the count 32 being
attained by real solutions.

The experiment uses the edge lines of a regular tetrahedron (the projective
coordinate tetrahedron puts two edges at infinity, where no Euclidean
cylinder exists).  Stage 0 is cross-checked against the exact transversal
solver; every cylinder has radius 1/10, small enough for each stage to
reach its target count.
"""

from fractions import Fraction as F

from quadtangents import cylinder, doubling_experiment, transversals_to_4_lines
from quadtangents.tracker import regular_tetrahedron_lines

# %% the affine tetrahedron and its cylinders

lines = regular_tetrahedron_lines()
for i, line in enumerate(lines, 1):
    print(f"U{i}: point {tuple(map(str, line.point))}, "
          f"direction {tuple(map(str, line.directions.col(0)))}")

exact = transversals_to_4_lines([l.to_projective() for l in lines])
print(f"\nexact transversal count: {exact.real_count} "
      f"(the two opposite edges of the tetrahedron)")

q = cylinder(lines[0], F(1, 10))
print(f"cylinder around U1 at r=1/10: signature {q.signature} "
      f"(singular in P^3, vertex at infinity)")

# %% run the ladder

result = doubling_experiment(seed=5)
print("\nstage  cylinders  target  real found  radii")
for row in result.rows:
    radii = ",".join(str(r) for r in row.radii) or "-"
    print(f"{row.stage:>5}  {row.stage:>9}  {row.target:>6}  "
          f"{row.real:>10}  {radii}")

print("\ncounts:", result.counts)
