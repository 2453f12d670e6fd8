"""The fixed-seed output set: what `tetra`, `track`, `doubling` and `verify`
write on fixed inputs, so that two checkouts can be compared byte for byte.

The ops, each run in process through ``quadtangents.cli.main``:

- the first 6 ops of perfbench stream ``seed-1`` of ``closed-form``,
  ``quadric-scenes`` and ``sphere-scenes`` (``tetra`` or ``track``), each
  followed by ``verify --scene`` on the certificate it wrote;
- the first 3 ops of stream ``seed-1`` of ``doubling``;
- ``doubling --auto --format json --seed k`` for k = 0..19;
- CSV certificates: ``tetra 1/5 1/5 --format csv`` and ``track --format csv``
  of the first ``sphere-scenes`` op's scene;
- ``verify`` without ``--scene`` on the first ``closed-form`` certificate;
- ``tetra`` on three closed-form inputs at the closed form's numeric edges
  (``EDGE_TETRA``), so that their exit codes are compared;
- the exit-rule set (``EXIT_RULE_OPS`` and ``EXIT_RULE_SCALED``): ``track``
  runs that lose a path, each followed by ``verify --scene``.  A lost path
  (``diverged`` or a suspected jump) fails a run only when the run lists
  fewer lines than its scene's root bound, and no other op above loses one,
  so these runs are where that rule shows: in the exit codes, the stderr
  lines naming each lost path, and ``verify``'s verdict.  Two are
  perfbench ``sphere-scenes`` ops that lose a path after all 12 lines are
  certified (exit 0); four are scenes with Q1 scaled by 10^-6 whose lost
  paths take lines and leave no nonreal line without its conjugate (exit 4);
- ``doubling --radii 1,1,1,1 --seed 3``, as a table and as JSON: cylinders
  that wide miss stages 3 and 4, which it names (exit 4);
- ``track`` on a scene whose Q1 has rank 1, so that every line is tangent
  to it (exit 3, before any path is tracked).

Every ``track`` op, the CSV one included, also writes ``--path-log``, so
each path's record, every field of its ``tracker.TrackedPath``, is
compared too.  The inputs come from ``perfbench.workloads``, as perfbench draws them.
Each op leaves its output file, if it writes one, and a ``.txt`` record of
its command line, exit code, stdout and stderr, all under OUTDIR; command lines
name files relative to OUTDIR, so two runs write the same bytes.  Compare a
change with its parent by running the script in each checkout:

    python tools/fixed_outputs.py /tmp/parent-out   # in the parent's checkout
    python tools/fixed_outputs.py /tmp/change-out
    diff -r /tmp/parent-out /tmp/change-out
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    diagonal,
    iter_inputs,
    random_sphere,
    random_symmetric,
    scene_dict,
)
from quadtangents import cli  # noqa: E402

# (workload, ops taken from its stream seed-1)
STREAMS = [("closed-form", 6), ("quadric-scenes", 6), ("sphere-scenes", 6),
           ("doubling", 3)]
DOUBLING_SEEDS = range(20)
# beta = 1e-16 << alpha, where p01 ~ 1e-8 makes lines that differ only in
# their signs coincide (exit 4); a discriminant of -7.6e-16, where case 3's
# two roots agree to 8 digits (exit 4); and beta = 1e-5 << alpha, where case
# 3's small root is a sum that cancels unless the closed form evaluates it
# without cancellation (exit 0)
EDGE_TETRA = [("1/10", "1/10000000000000000"),
              ("0.171572875253810", "0.171572875253810"),
              ("1/10", "1/100000")]
# (workload, stream, op index) of perfbench ops that lose a path once all
# their lines are certified: a suspected jump, and a diverged path
EXIT_RULE_OPS = [("sphere-scenes", "seed-20", 180), ("sphere-scenes", "seed-11", 241)]
# (random stream, draw, program seed) of four-quadric scenes drawn as
# `tests/test_cli.py`'s ``scaled_quadric_scene`` and `tools/sphere_sweep.py`
# draw them, with the first matrix scaled by 10^-6: two paths end diverged
# (one of the sphere scene's) and take their lines with them
EXIT_RULE_SCALED = [("scaled/quadric/4", random_symmetric, 9),
                    ("scaled/quadric/7", random_symmetric, 3),
                    ("scaled/quadric/7", random_symmetric, 4),
                    ("sweep/4", random_sphere, 2)]
DOUBLING_MISS = ["doubling", "--radii", "1,1,1,1", "--seed", "3"]


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


def exit_rule_runs() -> list[tuple[str, dict, int]]:
    """The exit-rule set as (name, scene, program seed) triples."""
    runs = []
    for workload, stream, index in EXIT_RULE_OPS:
        with tempfile.TemporaryDirectory() as tmp:  # the stream's scene files
            op = next(itertools.islice(iter_inputs(workload, stream, Path(tmp)), index, None))
        seed = int(op.argv[op.argv.index("--seed") + 1])
        runs.append((f"{workload}-{stream}-op-{index}", op.scene, seed))
    for stream, draw, seed in EXIT_RULE_SCALED:
        rng = random.Random(stream)
        matrices = [draw(rng) for _ in range(4)]
        matrices[0] = [[x / 10**6 for x in row] for row in matrices[0]]
        runs.append((f"{stream.replace('/', '-')}-seed-{seed}", scene_dict(matrices), seed))
    return runs


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: python tools/fixed_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    codes = []
    first = {}  # each workload's first op
    for workload, count in STREAMS:
        workdir = Path(workload)
        workdir.mkdir(exist_ok=True)
        for op in itertools.islice(iter_inputs(workload, "seed-1", workdir), count):
            first.setdefault(workload, op)
            stem = workdir / f"op-{op.index}"
            codes.append(record(f"{stem}.{op.argv[0]}", with_path_log(op.argv, stem)))
            if op.scene_path is not None:
                codes.append(record(f"{stem}.verify",
                                    ["verify", op.output, "--scene", op.scene_path]))
    Path("doubling-auto").mkdir(exist_ok=True)
    for seed in DOUBLING_SEEDS:
        codes.append(record(f"doubling-auto/seed-{seed}",
                            ["doubling", "--auto", "--format", "json",
                             "--seed", str(seed)]))
    Path("csv").mkdir(exist_ok=True)
    codes.append(record("csv/tetra", ["tetra", "1/5", "1/5", "--format", "csv",
                                      "--output", "csv/tetra.csv"]))
    sphere = first["sphere-scenes"]
    codes.append(record("csv/track", with_path_log([
        "csv/track.csv" if arg == sphere.output else arg for arg in sphere.argv]
        + ["--format", "csv"], "csv/track")))
    codes.append(record("csv/verify-without-scene", ["verify", first["closed-form"].output]))
    Path("tetra-edge").mkdir(exist_ok=True)
    for k, params in enumerate(EDGE_TETRA):
        codes.append(record(f"tetra-edge/{k}",
                            ["tetra", *params, "--output", f"tetra-edge/{k}.json"]))
    Path("exit-rule").mkdir(exist_ok=True)
    for name, scene, seed in exit_rule_runs():
        stem = Path("exit-rule") / name
        Path(f"{stem}.scene.json").write_text(json.dumps(scene))
        codes.append(record(f"{stem}.track", with_path_log(
            ["track", "--scene", f"{stem}.scene.json", "--seed", str(seed),
             "--output", f"{stem}.cert.json"], stem)))
        codes.append(record(f"{stem}.verify",
                            ["verify", f"{stem}.cert.json", "--scene", f"{stem}.scene.json"]))
    Path("doubling-miss").mkdir(exist_ok=True)
    codes.append(record("doubling-miss/table", DOUBLING_MISS))
    codes.append(record("doubling-miss/json", [*DOUBLING_MISS, "--format", "json"]))
    Path("input-error").mkdir(exist_ok=True)
    rng = random.Random("rank-one")
    scene = scene_dict([diagonal([1, 0, 0, 0])] + [random_symmetric(rng) for _ in range(3)])
    Path("input-error/rank-one.scene.json").write_text(json.dumps(scene))
    codes.append(record("input-error/rank-one.track", with_path_log(
        ["track", "--scene", "input-error/rank-one.scene.json",
         "--output", "input-error/rank-one.cert.json"], "input-error/rank-one")))
    print(f"{len(codes)} commands, {sum(c != 0 for c in codes)} with a nonzero exit; "
          f"outputs in {outdir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
