"""The hard-scene set: `track`'s solve on scenes with a scaled first quadric.

Two families of ten scenes each, drawn as the tests and the sphere sweep
draw them:

- quadric scene i: four criterion-8 matrices (``random_symmetric``, entries
  k/1000 in [-1, 1]) from ``random.Random(f"scaled/quadric/{i}")``, as
  ``scaled_quadric_scene`` in `tests/test_cli.py` draws them;
- sphere scene i: the four spheres of ``sphere_sweep.scene(i, (0, 0, 0))``.

The first matrix is scaled by 10^-6, 10^-3 and 1 at program seeds 0..9, and
by 10^3 and 10^6 at seed 0.  The scaled-up runs crawl toward the work
budget, so for them ``tracker.MAX_STEPS`` is patched to ``SCALED_UP_STEPS``,
well above the longest unscaled path (60 steps on these scenes); each set's
header prints the budget it runs with.  Each run is `track --seed <seed>`
itself, called in process through ``quadtangents.cli.main`` with its
stderr captured, on the scene written to a temporary directory.  One line
gives the run's certified line count, root bound and paths by status (from
its certificate), its lockstep rounds (predictor calls, over all passes),
its longest path in steps (from its path log) and `track`'s exit code.
Each set ends with a line counting its complete runs, its runs that lose
lines and those of them that exit 0, and its runs that list more lines
than the root bound.  Deterministic: runs on the same sources agree line for
line, so a change is compared with its parent by diffing the outputs.

    python tools/hard_scenes.py > hard.txt
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import random_symmetric  # noqa: E402
from quadtangents import cli, tracker  # noqa: E402
from quadtangents.exactnum import RatMatrix  # noqa: E402
from quadtangents.quadrics import Quadric  # noqa: E402
from quadtangents.scenes import PATH_KEYS, Scene, write_json  # noqa: E402
from sphere_sweep import counted, scene as sweep_scene  # noqa: E402

SCENES = range(10)
# (power of ten scaling Q1, program seeds) of each set
SCALES = [(-6, range(10)), (-3, range(10)), (0, range(10)), (3, range(1)), (6, range(1))]
# the work budget of the scaled-up runs, in steps per path
SCALED_UP_STEPS = 1000


def quadric_scene(i: int) -> list[Quadric]:
    rng = random.Random(f"scaled/quadric/{i}")
    return [Quadric(RatMatrix.from_rows(random_symmetric(rng))) for _ in range(4)]


def sphere_scene(i: int) -> list[Quadric]:
    return sweep_scene(i, (0, 0, 0))[0]


FAMILIES = [("quadric", quadric_scene), ("sphere", sphere_scene)]


def run(quadrics: list[Quadric], seed: int, rounds: list[int]) -> tuple:
    """(lines, root bound, status tally, rounds, longest path, exit code) of
    `track --seed seed` on the scene of ``quadrics``."""
    rounds[0] = 0
    with tempfile.TemporaryDirectory() as tmp:
        scene, cert, log = (str(Path(tmp, name))
                            for name in ("scene.json", "cert.json", "paths.jsonl"))
        write_json(scene, Scene(3, quadrics=quadrics).to_dict())
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["track", "--scene", scene, "--seed", str(seed),
                             "--output", cert, "--path-log", log])
        written = json.loads(Path(cert).read_text())
        steps = [json.loads(line)["steps"] for line in Path(log).read_text().splitlines()]
    metadata = written["metadata"]
    return (written["counts"]["total"], metadata["root_bound"],
            [metadata["paths"][key] for key in PATH_KEYS.values()], rounds[0], max(steps), code)


def main() -> int:
    rounds = counted("_predict")
    budget = tracker.MAX_STEPS
    for family, draw in FAMILIES:
        for power, seeds in SCALES:
            tracker.MAX_STEPS = SCALED_UP_STEPS if power > 0 else budget
            print(f"# {family} scenes {SCENES[0]}..{SCENES[-1]}, Q1 x 10^{power}, "
                  f"seeds {seeds[0]}..{seeds[-1]}, MAX_STEPS {tracker.MAX_STEPS}")
            print("scene seed lines bound " + " ".join(PATH_KEYS.values())
                  + " rounds longest exit")
            complete = losing = silent = over = 0
            for i in SCENES:
                quadrics = draw(i)
                q1 = Quadric(quadrics[0].matrix.scaled(Fraction(10) ** power))
                for seed in seeds:
                    lines, bound, tally, n, longest, code = run(
                        [q1, *quadrics[1:]], seed, rounds)
                    print(f"{i} {seed} {lines} {bound} {' '.join(map(str, tally))} "
                          f"{n} {longest} {code}", flush=True)
                    complete += lines == bound
                    losing += lines < bound
                    silent += lines < bound and code == 0
                    over += lines > bound
            print(f"# {complete} of {len(SCENES) * len(seeds)} runs complete, "
                  f"{losing} lose lines ({silent} of them exit 0), "
                  f"{over} list more lines than the bound")
    tracker.MAX_STEPS = budget
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
