"""Benchmark of the quadtangents command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client in a closed loop runs ops
in-process through ``quadtangents.cli.main`` on generated input files: the
producing command (tetra, track or doubling), then ``verify --scene`` on its
certificate, then the benchmark's own output checks.  ``--trace 0`` times ops
for S seconds and prints the end-to-end metrics, in reference seconds (see
calibration.py); ``--trace 1`` runs a fixed op list untraced and traced, and
prints the per-layer metrics in measured seconds.  The last line of stdout
is one JSON object; the lines before it are the report.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads (also inherited by set-up children)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

# perfbench modules that load numpy (calibration, checks, tracing) are
# imported inside functions, after set-up has timed the package import
from perfbench.workloads import WORKLOADS, OpInput, iter_inputs  # noqa: E402

SETUP_REPEATS = 3  # this process plus two fresh child processes

# traced functions reported by call count on every workload
COUNTED = (
    "tracker.solve_tangency", "tracker.classify_real",
    "exactnum.exterior_power", "exactnum.det",
    "quadrics.tangency_form", "quadrics.cylinder",
    "tetra32.enumerate_tangents", "tetra32.verify_solution",
    "scenes.Scene.from_dict", "scenes.solution_residuals", "scenes.verify_certificate",
    "grassmann.transversals_to_4_lines", "grassmann.dual_plucker",
)
# traced functions reported by total time: only those every workload calls,
# so no reported time is a constant zero
TIMED = ("exactnum.exterior_power", "quadrics.tangency_form", "scenes.write_json")


@dataclass
class OpRecord:
    index: int
    solve_s: float
    verify_s: float | None
    reasons: list[str]


def call(cli, argv: list[str]):
    """Run one command in-process; returns (exit code, seconds, output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails the op, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return code, elapsed, sink.getvalue()


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_op(cli, op: OpInput, check: bool = True) -> OpRecord:
    from perfbench import checks

    output = Path(op.output)
    output.unlink(missing_ok=True)
    code, solve_s, text = call(cli, op.argv)
    reasons = [] if code == 0 else [f"{op.argv[0]} exited {code}: {_tail(text)}"]
    if check and code == 0:
        try:
            result = json.loads(output.read_text())
        except (OSError, ValueError) as exc:
            reasons.append(f"unreadable output: {exc}")
        else:
            if op.scene is not None:
                reasons += checks.check_certificate(result, op.scene, op.expect)
            else:
                reasons += checks.check_doubling(result, op.expect)
    verify_s = None
    if op.scene is not None and output.exists():
        vcode, verify_s, vtext = call(cli, ["verify", op.output, "--scene", op.scene_path])
        if vcode != 0:
            reasons.append(f"verify exited {vcode}: {_tail(vtext)}")
    return OpRecord(op.index, solve_s, verify_s, reasons)


def setup(name: str, workdir: Path):
    """Import, then one warm-up op on its own input; returns (cli module,
    set-up time in reference seconds).  The inputs of timed ops are made one
    at a time in the timed phase, outside the op timers, so their number
    does not weigh on set-up time."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import quadtangents.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported quadtangents from {cli.__file__}, not {SRC}")
    warm_up = next(iter_inputs(name, "warm-up", workdir))
    run_op(cli, warm_up, check=False)
    elapsed = perf_counter() - start
    from perfbench.calibration import calibrate

    return cli, to_reference(elapsed, statistics.median(calibrate() for _ in range(3)))


def to_reference(seconds: float, calibration_s: float) -> float:
    """Measured seconds as reference seconds, given the calibration loop's
    time measured alongside (see calibration.py)."""
    from perfbench.calibration import REFERENCE_S

    return seconds * REFERENCE_S / calibration_s


def child_setup_s(args) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def report_failures(records: list[OpRecord]) -> None:
    for r in records:
        for reason in r.reasons:
            print(f"FAIL op {r.index}: {reason}")


def timed_run(args, cli, inputs, setup_s) -> dict:
    from perfbench.calibration import calibrate

    setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    records, op_s, scales = [], [], []
    cal_before = calibrate()
    deadline = perf_counter() + args.seconds
    for op in inputs:
        start = perf_counter()
        records.append(run_op(cli, op))
        op_s.append(perf_counter() - start)
        cal_after = calibrate()
        scales.append(to_reference(1.0, (cal_before + cal_after) / 2))
        cal_before = cal_after
        if perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    solve = [r.solve_s * k for r, k in zip(records, scales)]
    verify = [r.verify_s * k for r, k in zip(records, scales) if r.verify_s is not None]
    ops_per_s = len(records) / sum(t * k for t, k in zip(op_s, scales))
    failed = sum(1 for r in records if r.reasons)
    report_failures(records)
    print(f"measured: solve_s.p50 {statistics.median(r.solve_s for r in records):.6f} s, "
          f"ops_per_s {len(records) / sum(op_s):.4f} 1/s; a measured second was "
          f"{statistics.median(scales):.4f} reference seconds (median)")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"solve_s.p50 {statistics.median(solve):.6f} s (n={len(solve)})")
    if len(solve) >= 100:  # at least ten samples lie beyond the 90th percentile
        print(f"solve_s.p90 {statistics.quantiles(solve, n=10)[-1]:.6f} s (n={len(solve)})")
    if verify:
        print(f"verify_s.p50 {statistics.median(verify):.6f} s (n={len(verify)})")
    print(f"fail_ratio {failed / len(records):.4f} ({failed} of {len(records)} ops)")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {
                "setup_s": metric(statistics.median(setups), "s"),
                "solve_s.p50": metric(statistics.median(solve), "s"),
                "ops_per_s": metric(ops_per_s, "1/s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }}


def traced_run(cli, inputs, trace_path: Path) -> dict:
    from perfbench.tracing import LAYERS, Tracer

    tracer = Tracer()
    untraced, traced = [], []
    # each op runs once untraced and once traced, in alternating order, so
    # drift during the run does not leak into the overhead
    for op in inputs:
        for traced_turn in ((False, True) if op.index % 2 == 0 else (True, False)):
            if not traced_turn:
                untraced.append(run_op(cli, op))
                continue
            tracer.op = op.index
            with tracer.installed():
                traced.append(run_op(cli, op))
    records = untraced + traced
    failed = sum(1 for r in records if r.reasons)
    report_failures(records)

    def program_s(recs):
        return sum(r.solve_s + (r.verify_s or 0.0) for r in recs)

    overhead = 100 * (program_s(traced) / program_s(untraced) - 1)
    with open(trace_path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.id, s.parent, s.op, s.name, s.start, s.end,
                                 s.solve_calls, s.solve_systems, s.solve_s]) + "\n")

    summ = tracer.summary()
    calls, secs, self_s = summ["calls"], summ["s"], summ["self_s"]
    lin, paths = summ["linsolve"], summ["paths"]
    print(f"traced {len(inputs)} ops; {len(tracer.spans)} spans written to {trace_path}")
    for name in sorted(calls):
        print(f"{name}: calls={calls[name]} s={secs[name]:.6f} self_s={self_s[name]:.6f}")
    if lin["systems"]:
        print(f"tracker.linsolve: calls={lin['calls']} systems={lin['systems']} s={lin['s']:.6f}")
        print(f"tracker.us_per_solve {1e6 * lin['s'] / lin['systems']:.3f} us")
    print(f"trace.overhead_pct {overhead:.2f} % (traced {program_s(traced):.4f} s, "
          f"untraced {program_s(untraced):.4f} s)")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "tracker.linsolve.calls": metric(lin["calls"], "count"),
        "tracker.linsolve.systems": metric(lin["systems"], "count"),
        "tracker.paths": metric(paths, "count"),
        "tracker.solves_per_path": metric(ratio(lin["systems"], paths), "solves/path"),
        "tracker.steps_per_path": metric(ratio(summ["steps"], paths), "steps/path"),
        "tracker.converged_ratio": metric(ratio(summ["distinct"], paths), "ratio"),
    }
    for name in COUNTED:
        metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for name in TIMED:
        metrics[f"{name}.s"] = metric(secs.get(name, 0.0), "s")
    metrics["cli.self_s"] = metric(summ["layer_self_s"]["cli"], "s")
    for layer in LAYERS:
        share = ratio(summ["layer_self_s"][layer], summ["root_s"])
        metrics[f"{layer}.self_share"] = metric(100 * share, "%")
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def machine() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy} blas={blas} "
            f"threads={os.environ['OPENBLAS_NUM_THREADS']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "quadtangents" / "cli.py").is_file():
        print(f"error: no quadtangents sources under {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, setup_s = setup(args.workload, workdir)
        inputs = iter_inputs(args.workload, f"seed-{args.seed}", workdir)
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.trace:
            inputs = list(itertools.islice(inputs, WORKLOADS[args.workload].trace_ops))
            result = traced_run(cli, inputs,
                                WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            result = timed_run(args, cli, inputs, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.setup_only:
        print(machine())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
