"""The sphere sweeps: `track`'s solve on random scenes of four spheres.

Scene i draws four spheres from ``random.Random(f"sweep/{i}")`` with
``perfbench.workloads.random_sphere`` (centres in [-2, 2]^3, radii in
[1/2, 2], step 1/32), then its program seed, as perfbench's sphere-scenes
ops do.  Two sweeps run: scenes 0..349, and scenes 0..99 with every centre
shifted by (100, 100, 0).  Each scene is solved as
`track --seed <program seed>` solves it, and one line per scene gives its
certified line count (12 for general spheres), its steps per path, its
lockstep rounds (one predictor call each, over all passes) and its
cluster-retrack passes (of coinciding endpoints; 0 or 1).  Each sweep ends
with a line counting its paths by status, so that a path whose status moves
shows even where line counts, steps and rounds hold.  Deterministic:
runs on the same sources agree line for line, so a change is compared with
its parent by diffing the outputs.

    python tools/sphere_sweep.py > sweep.txt
"""

from __future__ import annotations

import random
import statistics
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import random_sphere  # noqa: E402
from quadtangents import tracker  # noqa: E402
from quadtangents.exactnum import RatMatrix  # noqa: E402
from quadtangents.quadrics import LineConditions, Quadric, TangentTo  # noqa: E402

# (scene count, centre shift) of each sweep
SWEEPS = [(350, (0, 0, 0)), (100, (100, 100, 0))]
# the statuses a path can end with, in the order each sweep tallies them
STATUSES = ("converged", "at-infinity", "surplus", "diverged", "path-jump-suspected")
# a known scene's program seed, so a run can check that it draws the sweep
KNOWN_SEED = (64, 1548815776)


def shifted(matrix, shift) -> Quadric:
    """The sphere of ``random_sphere``'s matrix with its centre moved."""
    c = [-x + Fraction(d) for x, d in zip(matrix[0][1:], shift)]
    r2 = sum(x * x for x in matrix[0][1:]) - matrix[0][0]
    rows = [[sum(x * x for x in c) - r2] + [-x for x in c]]
    rows += [[-c[i]] + [Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    return Quadric(RatMatrix.from_rows(rows))


def scene(i: int, shift) -> tuple[list[Quadric], int]:
    """Scene i's four spheres and its program seed."""
    rng = random.Random(f"sweep/{i}")
    spheres = [shifted(random_sphere(rng), shift) for _ in range(4)]
    return spheres, rng.randrange(2 ** 31)


def counted(name: str) -> list[int]:
    """Count the calls of the tracker's function ``name`` in the returned
    one-element list."""
    counter, original = [0], getattr(tracker, name)

    def wrapper(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    setattr(tracker, name, wrapper)
    return counter


def main() -> int:
    if scene(KNOWN_SEED[0], (0, 0, 0))[1] != KNOWN_SEED[1]:
        print(f"error: scene {KNOWN_SEED[0]} does not draw seed {KNOWN_SEED[1]}",
              file=sys.stderr)
        return 1
    rounds, passes = counted("_predict"), counted("_track_lockstep")
    for scenes, shift in SWEEPS:
        print(f"# scenes 0..{scenes - 1}, centres shifted by {shift}")
        print("scene seed lines steps_per_path rounds retracks")
        lines, all_rounds, statuses = [], [], Counter()
        for i in range(scenes):
            spheres, seed = scene(i, shift)
            conditions = LineConditions.compile(
                (f"Q{k + 1}", TangentTo(q)) for k, q in enumerate(spheres))
            rounds[0] = passes[0] = 0
            result = tracker.solve_tangency(conditions, seed=seed)
            steps = sum(p.steps for p in result.paths) / len(result.paths)
            lines.append(len(result.endpoints))
            statuses.update(p.status for p in result.paths)
            all_rounds.append(rounds[0])
            print(f"{i} {seed} {lines[-1]} {steps:.2f} {rounds[0]} {passes[0] - 1}",
                  flush=True)
        print(f"# {sum(n == 12 for n in lines)} of {scenes} scenes give 12 lines; "
              f"median rounds {statistics.median(all_rounds)}")
        print("# paths: " + ", ".join(f"{statuses[s]} {s}" for s in STATUSES))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
