"""The gate set: what a checkout writes on fixed inputs, so that two
checkouts can be compared by one diff.

    python tools/gate.py TREE OUTDIR
    python tools/gate.py PARENT CHANGE OUTDIR

The first form imports TREE's ``src`` (and its ``perfbench`` inputs) and
writes TREE's gate set into OUTDIR.  The second runs the first on each tree,
into OUTDIR/parent and OUTDIR/change, each in its own subprocess with one
BLAS thread; it prints each tree's wall time, then ``diff -rq`` of the two
directories, and exits with diff's status (0 when the sets are identical,
1 when they differ; 2 when a tree's run fails).
Both forms exit 2, before any run, when OUTDIR exists and is not empty, so
that no stale file hides a run that stopped writing it.

Every command runs in process through TREE's ``quadtangents.cli.main`` and
leaves a ``.txt`` record of its command line, exit code, stdout and stderr;
command lines name files relative to OUTDIR (``fixed/``'s relative to
``fixed/``), so equal runs write equal bytes.  The sets:

- ``fixed/``, the fixed-seed set: the first 6 ops of perfbench stream
  ``seed-1`` of ``closed-form``, ``quadric-scenes`` and ``sphere-scenes``,
  each followed by ``verify --scene`` on its certificate, and the first 3
  of ``doubling``; ``doubling --auto --format json`` at seeds 0..19; a
  ``tetra`` and a ``track`` CSV certificate, and ``verify`` without
  ``--scene``; ``tetra`` at three numeric edges of the closed form
  (``EDGE_TETRA``); the exit-rule set, ``track`` runs each followed by
  ``verify --scene``: two perfbench sphere-scenes ops and a sweep scene
  with Q1 x 10^-6, all three eliminated (exit 0; tracked, before
  elimination, each lost a path), three quadric scenes with Q1 x 10^-6
  whose lost paths take lines (exit 4), and two four-sphere scenes with
  coplanar centres, which elimination cannot serve, tracked from the
  tetra start (``COPLANAR``: 12 lines, exit 0; and a mirror-symmetric
  scene, 8 lines, exit 4); ``doubling --radii 1,1,1,1 --seed 3`` as a
  table and as JSON, whose cylinders are too wide for stages 3 and 4
  (exit 4); ``track`` on a scene whose Q1 has rank 1 (exit 3); and the
  JSON of the commands that take no scene (``SCENELESS``): ``counts 1 3``
  and ``counts --table``, and ``transversals`` of the tetrahedron and of
  the moment curve at 0, 1, 2, 3.  Every ``track`` also writes its
  ``--path-log``.
- ``sweep/`` and ``sweep-shifted/``: the sphere sweeps.  Scene i draws
  four spheres from ``random.Random(f"sweep/{i}")`` with perfbench's
  ``random_sphere``, then its program seed; the sweeps are scenes 0..349,
  and scenes 0..99 with every centre moved by (100, 100, 0).
- ``mix-quadric/`` and ``mix-line/``: the three-sphere mixes, which the
  tracker solves.  Scene i draws three spheres from
  ``random.Random(f"mix-KIND/{i}")`` with ``random_sphere``, then a
  ``random_symmetric`` quadric, or a line through two points of the
  spheres' centre grid, then its program seed; scenes 0..99 of each.
- ``hard-quadric-1eP/`` and ``hard-sphere-1eP/``: the hard-scene sets,
  ten scenes each with Q1 scaled by 10^P.  Quadric scene i is four
  ``random_symmetric`` draws from ``random.Random(f"scaled/quadric/{i}")``,
  sphere scene i is sweep scene i.  P = -6, -3 and 0 run program seeds
  0..9; P = 3 and 6 run seed 0 with ``tracker.MAX_STEPS`` set to
  ``SCALED_UP_STEPS``, since their paths crawl toward the work budget.
- ``perfbench/W.txt``: the counters of ``perfbench/run.py --workload W
  --seed 1 --seconds 5 --trace 1`` run in TREE, those in count or per-path
  units (the converged ratio is converged lines per path).

Each scene of a sweep, mix or hard set is ``track --seed S --output ...
--path-log ...`` on its scene file, and leaves ``NAME.scene.json``,
``NAME.cert.json``, ``NAME.paths.jsonl`` and ``NAME.track.txt``, where
NAME is ``scene-I-seed-S`` for scene I: every run of a set keeps its own
files, the ten seeds of a hard scene included.  The
set's ``summary.txt`` has a header naming the set and its step budget,
then one line per run:

    scene seed lines bound TALLY... mean longest exit

(lines and root bound from the certificate, its ``metadata.paths`` tally
under TREE's ``scenes.PATH_KEYS`` keys, in their order,
the mean and the longest path's steps from the path log, and ``track``'s
exit code; a path steps in every round from the first until it ends, so
the longest path is the run's round count when no cluster retrack runs).
Two lines end it: the runs that are complete, that lose lines, of them
those that exit 0, and that list more lines than the bound, with the
median longest path; and the set's path totals by status.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

# (workload, ops taken from its stream seed-1)
STREAMS = [("closed-form", 6), ("quadric-scenes", 6), ("sphere-scenes", 6),
           ("doubling", 3)]
# beta = 1e-16 << alpha, where p01 ~ 1e-8 makes lines that differ only in
# their signs coincide (exit 4); a discriminant of -7.6e-16, where case 3's
# two roots agree to 8 digits (exit 4); and beta = 1e-5 << alpha, where case
# 3's small root is a sum that cancels unless the closed form evaluates it
# without cancellation (exit 0)
EDGE_TETRA = [("1/10", "1/10000000000000000"),
              ("0.171572875253810", "0.171572875253810"),
              ("1/10", "1/100000")]
# (workload, stream, op index) of perfbench sphere ops whose tracking lost a
# path once all their lines were certified, a suspected jump and a diverged
# path, before four spheres were eliminated
EXIT_RULE_OPS = [("sphere-scenes", "seed-20", 180), ("sphere-scenes", "seed-11", 241)]
# (name prefix, family, scene, program seed) of hard scenes with Q1 x 10^-6
# whose diverged paths take their lines with them (the sphere scene's, once
# tracked, now eliminated)
EXIT_RULE_SCALED = [("scaled-quadric-4", "quadric", 4, 9), ("scaled-quadric-7", "quadric", 7, 3),
                    ("scaled-quadric-7", "quadric", 7, 4), ("sweep-4", "sphere", 4, 2)]
# (name, spheres as (centre, radius) in units of 1/32, program seed) of
# four-sphere scenes with coplanar centres: tests/test_tracker.py's
# test_coplanar_centres_fall_back_to_tracking's, and one with mirror
# symmetry, whose tracking lists 8 lines of root bound 12
COPLANAR = [("coplanar-fallback", [((33, -38, 0), 52), ((-1, -61, 0), 62),
                                   ((-9, 40, 0), 33), ((-18, 35, 0), 26)], 3),
            ("coplanar-mirror", [((0, 0, 0), 40), ((64, 0, 0), 40), ((0, 64, 0), 40),
                                 ((64, 64, 0), 50)], 3)]
DOUBLING_MISS = ["doubling", "--radii", "1,1,1,1", "--seed", "3"]
# (record name, argv) of the commands that take no scene, each writing JSON
SCENELESS = [("counts/single", ["counts", "1", "3", "--format", "json"]),
             ("counts/table", ["counts", "--table", "--format", "json"]),
             ("transversals/tetrahedron", ["transversals", "--tetrahedron"]),
             ("transversals/moment", ["transversals", "--moment", "0,1,2,3"])]
# (directory, scene count, centre shift) of each sweep
SWEEPS = [("sweep", 350, (0, 0, 0)), ("sweep-shifted", 100, (100, 100, 0))]
# the fourth condition of each three-sphere mix, and its scene count
MIXES, MIX_SCENES = ("quadric", "line"), 100
# a known scene's program seed, so a run can check that it draws the sweep
KNOWN_SEED = (64, 1548815776)
# (power of ten scaling Q1, program seeds) of each hard set
SCALES = [(-6, range(10)), (-3, range(10)), (0, range(10)), (3, range(1)), (6, range(1))]
# the work budget of the scaled-up runs, in steps per path
SCALED_UP_STEPS = 1000
KEPT_UNITS = ("count", "solves/path", "steps/path", "ratio")
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def load(tree: Path) -> None:
    """Import TREE's ``cli``, ``tracker`` and perfbench ``workloads``, and
    take TALLY, the ``metadata.paths`` keys a summary lists, from its
    ``scenes.PATH_KEYS``."""
    global cli, tracker, workloads, TALLY
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from perfbench import workloads
    from quadtangents import cli, scenes, tracker
    TALLY = tuple(scenes.PATH_KEYS.values())


def record(name: str, argv: list[str]) -> int:
    """Run one command and write ``name``.txt with its command line, exit
    code, stdout and stderr; returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    Path(f"{name}.txt").write_text(
        f"$ quadtangents {' '.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return code


def with_path_log(argv: list[str], stem) -> list[str]:
    """``argv``, with ``--path-log stem.paths.jsonl`` added to a ``track``."""
    return [*argv, "--path-log", f"{stem}.paths.jsonl"] if argv[0] == "track" else argv


def track_run(stem: str, scene: dict, seed: int) -> int:
    """Write ``scene`` to stem.scene.json and run `track --seed seed` on it,
    with its certificate and path log beside it."""
    Path(f"{stem}.scene.json").write_text(json.dumps(scene))
    return record(f"{stem}.track", with_path_log(
        ["track", "--scene", f"{stem}.scene.json", "--seed", str(seed),
         "--output", f"{stem}.cert.json"], stem))


def sweep_scene(i: int, shift) -> tuple[list, int]:
    """Sweep scene i's four spheres, centres moved by ``shift``, and its
    program seed."""
    rng = random.Random(f"sweep/{i}")
    spheres = []
    for _ in range(4):
        m = workloads.random_sphere(rng)
        c = [d - x for x, d in zip(m[0][1:], shift)]
        spheres.append(sphere_matrix(c, sum(x * x for x in m[0][1:]) - m[0][0]))
    return spheres, rng.randrange(2 ** 31)


def sphere_matrix(c, r2) -> list:
    """The matrix of the sphere |x - c|^2 = r2."""
    return ([[sum(x * x for x in c) - r2, *(-x for x in c)]]
            + [[-c[k]] + [int(k == j) for j in range(3)] for k in range(3)])


def mix_scene(kind: str, i: int) -> tuple[dict, int]:
    """Mix scene i of ``kind`` and its program seed: three perfbench
    spheres, then a random quadric, or the line through two points drawn
    as ``random_sphere`` draws centres."""
    rng = random.Random(f"mix-{kind}/{i}")
    matrices = [workloads.random_sphere(rng) for _ in range(3)]
    if kind == "quadric":
        scene = workloads.scene_dict(matrices + [workloads.random_symmetric(rng)])
    else:
        points = [[1] + [Fraction(rng.randint(-64, 64), 32) for _ in range(3)]
                  for _ in range(2)]
        scene = workloads.scene_dict(matrices)
        scene["flats"] = [{"label": "L1", "kind": "span",
                           "matrix": [list(map(workloads.encode, row)) for row in zip(*points)]}]
    return scene, rng.randrange(2 ** 31)


def hard_scene(family: str, i: int, power: int) -> list:
    """Hard scene i of ``family`` with Q1 scaled by 10^power."""
    if family == "quadric":  # drawn as tests/test_cli.py's scaled_quadric_scene
        rng = random.Random(f"scaled/quadric/{i}")
        matrices = [workloads.random_symmetric(rng) for _ in range(4)]
    else:
        matrices = sweep_scene(i, (0, 0, 0))[0]
    scale = Fraction(10) ** power
    return [[[x * scale for x in row] for row in matrices[0]], *matrices[1:]]


def fixed_set() -> list[int]:
    """Write the fixed-seed set into the working directory; returns its exit codes."""
    codes, first = [], {}  # first: each workload's first op
    for workload, count in STREAMS:
        Path(workload).mkdir()
        for op in itertools.islice(workloads.iter_inputs(workload, "seed-1", Path(workload)),
                                   count):
            first.setdefault(workload, op)
            stem = f"{workload}/op-{op.index}"
            codes.append(record(f"{stem}.{op.argv[0]}", with_path_log(op.argv, stem)))
            if op.scene_path is not None:
                codes.append(record(f"{stem}.verify",
                                    ["verify", op.output, "--scene", op.scene_path]))
    Path("doubling-auto").mkdir()
    codes += [record(f"doubling-auto/seed-{seed}",
                     ["doubling", "--auto", "--format", "json", "--seed", str(seed)])
              for seed in range(20)]
    Path("csv").mkdir()
    codes.append(record("csv/tetra", ["tetra", "1/5", "1/5", "--format", "csv",
                                      "--output", "csv/tetra.csv"]))
    sphere = first["sphere-scenes"]
    codes.append(record("csv/track", with_path_log([
        "csv/track.csv" if arg == sphere.output else arg for arg in sphere.argv]
        + ["--format", "csv"], "csv/track")))
    codes.append(record("csv/verify-without-scene", ["verify", first["closed-form"].output]))
    Path("tetra-edge").mkdir()
    codes += [record(f"tetra-edge/{k}", ["tetra", *params, "--output", f"tetra-edge/{k}.json"])
              for k, params in enumerate(EDGE_TETRA)]
    Path("exit-rule").mkdir()
    runs = []  # (name, scene, program seed)
    for workload, stream, index in EXIT_RULE_OPS:
        with tempfile.TemporaryDirectory() as tmp:  # the stream's scene files
            op = next(itertools.islice(workloads.iter_inputs(workload, stream, Path(tmp)),
                                       index, None))
        runs.append((f"{workload}-{stream}-op-{index}", op.scene,
                     int(op.argv[op.argv.index("--seed") + 1])))
    runs += [(f"{prefix}-seed-{seed}", workloads.scene_dict(hard_scene(family, i, -6)), seed)
             for prefix, family, i, seed in EXIT_RULE_SCALED]
    runs += [(name, workloads.scene_dict([sphere_matrix([Fraction(x, 32) for x in c],
                                                        Fraction(r, 32) ** 2)
                                          for c, r in spheres]), seed)
             for name, spheres, seed in COPLANAR]
    for name, scene, seed in runs:
        stem = f"exit-rule/{name}"
        codes.append(track_run(stem, scene, seed))
        codes.append(record(f"{stem}.verify",
                            ["verify", f"{stem}.cert.json", "--scene", f"{stem}.scene.json"]))
    Path("doubling-miss").mkdir()
    codes.append(record("doubling-miss/table", DOUBLING_MISS))
    codes.append(record("doubling-miss/json", [*DOUBLING_MISS, "--format", "json"]))
    Path("input-error").mkdir()
    rng = random.Random("rank-one")
    scene = [workloads.diagonal([1, 0, 0, 0])] + [workloads.random_symmetric(rng)
                                                  for _ in range(3)]
    Path("input-error/rank-one.scene.json").write_text(json.dumps(workloads.scene_dict(scene)))
    codes.append(record("input-error/rank-one.track", with_path_log(
        ["track", "--scene", "input-error/rank-one.scene.json",
         "--output", "input-error/rank-one.cert.json"], "input-error/rank-one")))
    for name, argv in SCENELESS:
        Path(name).parent.mkdir(exist_ok=True)
        codes.append(record(name, argv))
    return codes


def scene_set(name: str, header: str, runs) -> list[int]:
    """Run `track` on each (scene index, scene dict, program seed) of
    ``runs`` into directory ``name`` and write its ``summary.txt``; returns
    the exit codes."""
    Path(name).mkdir()
    lines = [f"# {header}, MAX_STEPS {tracker.MAX_STEPS}",
             f"scene seed lines bound {' '.join(TALLY)} mean longest exit"]
    codes, longest, totals = [], [], Counter()
    complete = losing = silent = over = 0
    for i, scene, seed in runs:
        stem = f"{name}/scene-{i}-seed-{seed}"
        codes.append(code := track_run(stem, scene, seed))
        cert = json.loads(Path(f"{stem}.cert.json").read_text())
        steps = [json.loads(line)["steps"]
                 for line in Path(f"{stem}.paths.jsonl").read_text().splitlines()]
        n, bound = cert["counts"]["total"], cert["metadata"]["root_bound"]
        tally = [cert["metadata"]["paths"][key] for key in TALLY]
        totals.update(dict(zip(TALLY, tally)))
        longest.append(max(steps))
        lines.append(f"{i} {seed} {n} {bound} {' '.join(map(str, tally))} "
                     f"{sum(steps) / len(steps):.2f} {max(steps)} {code}")
        complete += n == bound
        losing += n < bound
        silent += n < bound and code == 0
        over += n > bound
    lines.append(f"# {complete} of {len(codes)} runs complete, {losing} lose lines "
                 f"({silent} of them exit 0), {over} list more lines than the bound; "
                 f"median longest path {statistics.median(longest)}")
    lines.append("# paths: " + ", ".join(f"{totals[key]} {key}" for key in TALLY))
    Path(f"{name}/summary.txt").write_text("\n".join(lines) + "\n")
    return codes


def perfbench_counters(tree: Path) -> None:
    """Write each workload's traced counters, run in TREE, to perfbench/W.txt."""
    Path("perfbench").mkdir()
    for workload in workloads.WORKLOADS:
        run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                              "--seed", "1", "--seconds", "5", "--trace", "1"],
                             cwd=tree, capture_output=True, text=True, check=True)
        metrics = json.loads(run.stdout.splitlines()[-1])["metrics"]
        Path(f"perfbench/{workload}.txt").write_text("".join(
            f"{key} {m['value']}\n" for key, m in metrics.items() if m["unit"] in KEPT_UNITS))


def gate(tree: Path, outdir: Path) -> int:
    """Write TREE's gate set into OUTDIR."""
    load(tree)
    if sweep_scene(KNOWN_SEED[0], (0, 0, 0))[1] != KNOWN_SEED[1]:
        print(f"error: sweep scene {KNOWN_SEED[0]} does not draw seed {KNOWN_SEED[1]}",
              file=sys.stderr)
        return 1
    (outdir / "fixed").mkdir(parents=True)
    os.chdir(outdir / "fixed")
    sets = {"fixed": fixed_set()}
    os.chdir("..")
    for name, scenes, shift in SWEEPS:
        sets[name] = scene_set(name, f"sweep scenes 0..{scenes - 1}, centres shifted by "
                               f"{shift}", ((i, workloads.scene_dict(spheres), seed)
                                            for i in range(scenes)
                                            for spheres, seed in [sweep_scene(i, shift)]))
    for kind in MIXES:
        sets[f"mix-{kind}"] = scene_set(
            f"mix-{kind}", f"mix scenes 0..{MIX_SCENES - 1}, three spheres and a {kind}",
            ((i, *mix_scene(kind, i)) for i in range(MIX_SCENES)))
    budget = tracker.MAX_STEPS
    for family, (power, seeds) in itertools.product(("quadric", "sphere"), SCALES):
        tracker.MAX_STEPS = SCALED_UP_STEPS if power > 0 else budget
        sets[f"hard-{family}-1e{power}"] = scene_set(
            f"hard-{family}-1e{power}",
            f"{family} scenes 0..9, Q1 x 10^{power}, seeds {seeds[0]}..{seeds[-1]}",
            ((i, workloads.scene_dict(hard_scene(family, i, power)), seed)
             for i in range(10) for seed in seeds))
    tracker.MAX_STEPS = budget
    perfbench_counters(tree)
    for name, codes in sets.items():
        print(f"{name}: {len(codes)} commands, {sum(c != 0 for c in codes)} with a nonzero exit")
    return 0


def compare(parent: Path, change: Path, outdir: Path) -> int:
    """Write both trees' gate sets, each in its own subprocess, and diff them."""
    labels = ("parent", "change")
    for label, tree in zip(labels, (parent, change)):
        start = time.perf_counter()
        code = subprocess.run([sys.executable, __file__, tree, outdir / label],
                              env={**os.environ, **BLAS_THREADS}).returncode
        print(f"# {label}: exit {code} after {time.perf_counter() - start:.1f} s", flush=True)
        if code:
            return 2
    return subprocess.run(["diff", "-rq", *(outdir / label for label in labels)]).returncode


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: python tools/gate.py TREE OUTDIR\n"
              "       python tools/gate.py PARENT CHANGE OUTDIR", file=sys.stderr)
        return 2
    *trees, outdir = [Path(arg).resolve() for arg in argv]
    if outdir.exists() and (not outdir.is_dir() or any(outdir.iterdir())):
        print(f"error: {outdir} exists and is not empty", file=sys.stderr)
        return 2
    return gate(*trees, outdir) if len(trees) == 1 else compare(*trees, outdir)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
