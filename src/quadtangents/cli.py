"""Command-line front end.

Subcommands: counts, tetra, track, doubling, verify, transversals.
Exit codes: 0 success, 2 mathematical degeneracy (a hypothesis of the
underlying construction is violated), 3 input error, 4 numerical failure
(no certified solutions, or a certificate that fails re-verification).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

import numpy as np

from . import __version__
from .exactnum import rational
from .grassmann import (
    DISTINCT_TOL,
    REAL_TOL,
    classify_real,
    counts as grassmann_counts,
    moment_osculating_flat,
    normalize_endpoint,
    sphere_tangent_line_count,
    tetrahedron_lines,
    transversals_to_4_lines,
)
from .scenes import (
    Certificate,
    Scene,
    SceneFormatError,
    encode_plucker_exact,
    encode_plucker_numeric,
    encode_rational,
    read_json,
    solution_residuals,
    verify_certificate,
    write_json,
)
from .tetra32 import (
    DegeneracyError,
    TetraParams,
    enumerate_tangents,
    family,
    verify_solution,
)
from .tracker import TrackOptions, doubling_experiment, solve_tangency

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

CSV_COLUMNS = ("index", "case", "branch", "signs", "status", "steps", "real",
               "residual", "p01_re", "p01_im", "p02_re", "p02_im", "p03_re",
               "p03_im", "p12_re", "p12_im", "p13_re", "p13_im", "p23_re",
               "p23_im")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _common_options() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every random choice (default 0)")
    common.add_argument("--tol", type=float, default=1e-12,
                        help="residual tolerance: endpoint polish when solving, "
                             "bound on every residual for verify (default 1e-12)")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (certificates default to json, "
                             "tables to plain text)")
    common.add_argument("--output", default=None,
                        help="output path (default stdout)")
    return common


def build_parser() -> _Parser:
    parser = _Parser(prog="quadtangents",
                     description="lines tangent to quadrics in projective 3-space")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options()

    p = sub.add_parser("counts", parents=[common],
                       help="dimension/degree/total counts for G(k,n)")
    p.add_argument("k", nargs="?", type=int, default=1)
    p.add_argument("n", nargs="?", default=None,
                   help="dimension n, or a range like 3..9")
    p.add_argument("--table", action="store_true",
                   help="tabulate sphere bound vs quadric count over a range of n")
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("tetra", parents=[common],
                       help="closed-form 32 tangents of the tetrahedral family")
    p.add_argument("alpha_pos", nargs="?", default=None, metavar="alpha")
    p.add_argument("beta_pos", nargs="?", default=None, metavar="beta")
    p.add_argument("--alpha", default=None, help='rational, e.g. "1/10" or "0.1"')
    p.add_argument("--beta", default=None)
    p.set_defaults(func=cmd_tetra)

    p = sub.add_parser("track", parents=[common],
                       help="track the 32 known tangents to a target scene")
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--path-log", default=None,
                   help="write one JSON line per tracked path to this file")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("doubling", parents=[common],
                       help="cylinder-radius doubling experiment (counts 2,4,8,16,32)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--auto", action="store_true", default=True,
                       help="search radii by halving from 1/10 (default)")
    group.add_argument("--radii", default=None,
                       help='four comma-separated rationals, e.g. "1/10,1/10,1/10,1/10"')
    p.set_defaults(func=cmd_doubling)

    p = sub.add_parser("verify", parents=[common],
                       help="re-evaluate every residual of a certificate")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--scene", default=None,
                   help="scene file the certificate must belong to")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transversals", parents=[common],
                       help="exact transversal lines to four lines")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tetrahedron", action="store_true",
                       help="edges of the coordinate tetrahedron")
    group.add_argument("--moment", default=None,
                       help="four curve parameters, e.g. 0,1,2,3")
    p.set_defaults(func=cmd_transversals)
    return parser


# ---------------------------------------------------------------------------
# counts


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(spec)]


def cmd_counts(args) -> int:
    if args.table:
        k = args.k
        ns = _parse_range(args.n) if args.n is not None else list(range(3, 10))
        rows = [grassmann_counts(k, n) for n in ns]
        if args.format == "json":
            write_json(args.output, [{"k": c.k, "n": c.n, "dim": c.dim,
                                      "degree": c.degree, "total": c.total}
                                     for c in rows])
        else:
            widths = [max(len(str(c.total)), len(str(sphere_tangent_line_count(c.n))), 4)
                      for c in rows]
            def line(label, values):
                cells = "  ".join(str(v).rjust(w) for v, w in zip(values, widths))
                return f"{label:<16}{cells}"
            print(line("n", [c.n for c in rows]))
            if k == 1:
                print(line("3*2^(n-1)", [sphere_tangent_line_count(c.n) for c in rows]))
            print(line("2^dim*degree", [c.total for c in rows]))
        return EXIT_OK
    if args.n is None:
        raise SceneFormatError("counts needs k and n (or --table)")
    c = grassmann_counts(args.k, int(args.n))
    print(f"dim={c.dim} degree={c.degree} total={c.total}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tetra


def _tetra_scene(params: TetraParams) -> Scene:
    return Scene(3, quadrics=list(family(params)),
                 metadata={"family": "tetrahedral",
                           "alpha": encode_rational(params.alpha),
                           "beta": encode_rational(params.beta)})


def _solution_entry(index, vec, real, residual, extra=None) -> dict:
    entry = {"index": index,
             "plucker": encode_plucker_numeric(np.asarray(vec, dtype=complex)),
             "real": bool(real),
             "residual": float(residual)}
    if extra:
        entry.update(extra)
    return entry


def _write_certificate(cert: Certificate, args) -> None:
    if args.format in (None, "json"):
        write_json(args.output, cert.to_dict())
        return
    lines = [",".join(CSV_COLUMNS)]
    for sol in cert.solutions:
        coords = sol["plucker"]["coords"]
        row = [str(sol.get("index", "")), str(sol.get("case", "")),
               str(sol.get("branch", "")),
               "" if "signs" not in sol else " ".join(map(str, sol["signs"])),
               str(sol.get("path", {}).get("status", "")),
               str(sol.get("path", {}).get("steps", "")),
               str(sol["real"]).lower(), repr(sol["residual"])]
        for key in ("01", "02", "03", "12", "13", "23"):
            z = coords[key]
            re, im = (z, 0.0) if not isinstance(z, list) else (z[0], z[1])
            row += [repr(re), repr(im)]
        lines.append(",".join(row))
    text = "\n".join(lines)
    if args.output in (None, "-"):
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")


def cmd_tetra(args) -> int:
    alpha = args.alpha if args.alpha is not None else args.alpha_pos
    beta = args.beta if args.beta is not None else args.beta_pos
    if alpha is None or beta is None:
        raise SceneFormatError("tetra needs alpha and beta")
    params = TetraParams.of(rational(alpha), rational(beta))
    solutions = enumerate_tangents(params)  # raises DegeneracyError
    scene = _tetra_scene(params)
    entries = []
    n_real = 0
    for i, sol in enumerate(solutions):
        vec = sol.numeric()
        # the scene's quadrics are family(params), so this holds every residual
        # `verify` re-evaluates, plus the eliminated row and the square chain
        residual = verify_solution(sol, params).max_residual
        real = sol.is_real()
        n_real += real
        entries.append(_solution_entry(
            i, vec, real, residual,
            extra={"case": sol.case, "signs": list(sol.signs), "branch": sol.branch}))
    cert = Certificate(
        scene=scene,
        solutions=entries,
        counts={"total": len(entries), "real": n_real,
                "nonreal": len(entries) - n_real},
        tolerances={"residual": args.tol, "real": REAL_TOL, "distinct": DISTINCT_TOL},
        params={"alpha": encode_rational(params.alpha),
                "beta": encode_rational(params.beta)},
        seed=args.seed,
    )
    _write_certificate(cert, args)
    print(f"{len(entries)} solutions, {n_real} real, "
          f"max residual {max(s['residual'] for s in entries):.3e}",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# track


def _write_path_log(path, paths) -> None:
    with open(path, "w") as fh:
        for i, p in enumerate(paths):
            endpoint = None
            if p.end is not None:
                endpoint = [[z.real, z.imag] for z in p.end]
            residual = p.residual if math.isfinite(p.residual) else None
            cond = p.cond if math.isfinite(p.cond) else None
            fh.write(json.dumps({"index": i, "status": p.status,
                                 "steps": p.steps, "solves": p.solves,
                                 "residual": residual, "cond": cond,
                                 "endpoint": endpoint}) + "\n")


def cmd_track(args) -> int:
    scene = Scene.from_dict(read_json(args.scene))
    if scene.n != 3:
        raise SceneFormatError("tracking requires a scene in P^3")
    options = TrackOptions(seed=args.seed, endpoint_tol=args.tol)
    # the tracker's target and the certificate residuals share one compile
    result = solve_tangency(scene.conditions, options)
    if args.path_log:
        _write_path_log(args.path_log, result.paths)
    distinct = result.distinct_paths
    vectors = [normalize_endpoint(p.end) for p in distinct]
    reality = classify_real(vectors)  # the numbers written, as `verify` reads them
    entries = []
    for i, (p, vec, real) in enumerate(zip(distinct, vectors, reality.is_real)):
        residual = max(solution_residuals(scene, vec).values())
        entries.append(_solution_entry(
            i, vec, real, residual,
            extra={"path": {"status": p.status, "steps": p.steps}}))
    status = Counter(p.status for p in result.paths)
    cert = Certificate(
        scene=scene,
        solutions=entries,
        counts={"total": len(entries), "real": reality.real_count,
                "nonreal": reality.nonreal_count},
        tolerances={"residual": args.tol, "real": REAL_TOL, "distinct": DISTINCT_TOL},
        seed=args.seed,
        metadata={
            "start_policy": result.start_policy,
            "root_bound": scene.conditions.root_bound,
            "paths": {"total": len(result.paths),
                      "converged": status["converged"],
                      "diverged": status["diverged"],
                      "at_infinity": status["at-infinity"],
                      "suspected_jumps": status["path-jump-suspected"]},
            "patch": [[z.real, z.imag] for z in result.patch],
        },
    )
    _write_certificate(cert, args)
    print(f"{len(entries)} certified endpoints of {len(result.paths)} paths, "
          f"{reality.real_count} real, {status['at-infinity']} at infinity",
          file=sys.stderr)
    if not entries:
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# doubling


def cmd_doubling(args) -> int:
    radii = "auto"
    if args.radii is not None:
        parts = [p.strip() for p in args.radii.split(",")]
        if len(parts) != 4:
            raise SceneFormatError("--radii needs four comma-separated values")
        radii = [rational(p) for p in parts]
    options = TrackOptions(seed=args.seed, endpoint_tol=args.tol)
    result = doubling_experiment(radii, options)
    if args.format == "json":
        write_json(args.output, {
            "exact_stage0": result.exact_stage0_count,
            "rows": [{"stage": r.stage, "target": r.target_count,
                      "real": r.real_count, "converged": r.converged,
                      "radii": [encode_rational(x) for x in r.radii],
                      "halvings": r.halvings} for r in result.rows],
        })
    else:
        print("stage  target  real  radii")
        for r in result.rows:
            radii_txt = ",".join(encode_rational(x) for x in r.radii) or "-"
            print(f"{r.stage:>5}  {r.target_count:>6}  {r.real_count:>4}  {radii_txt}")
        print(f"exact transversal count at stage 0: {result.exact_stage0_count}")
    missed = any(r.real_count != r.target_count for r in result.rows)
    return EXIT_NUMERIC if missed else EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cert = Certificate.from_dict(read_json(args.certificate))
    expected = Scene.from_dict(read_json(args.scene)) if args.scene else None
    report = verify_certificate(cert, expected_scene=expected, tol=args.tol)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# transversals


def cmd_transversals(args) -> int:
    if args.tetrahedron:
        lines = tetrahedron_lines()
        source = {"configuration": "tetrahedron"}
    else:
        parts = [p.strip() for p in args.moment.split(",")]
        if len(parts) != 4:
            raise SceneFormatError("--moment needs four curve parameters")
        values = [rational(p) for p in parts]
        if len(set(values)) != 4:
            raise DegeneracyError(["moment parameters must be pairwise distinct"])
        lines = [moment_osculating_flat(3, s) for s in values]
        source = {"configuration": "moment-curve",
                  "parameters": [encode_rational(v) for v in values]}
    result = transversals_to_4_lines(lines)
    report = dict(source)
    if result.infinite:
        report.update({"infinite_family": True})
    else:
        report.update({
            "infinite_family": False,
            "count": result.count,
            "real": result.real_count,
            "discriminant": encode_rational(result.discriminant),
            "transversals": [{
                "real": t.real,
                "multiplicity": t.multiplicity,
                "plucker_exact": encode_plucker_exact(t.vector),
                "plucker": encode_plucker_numeric(t.vector.numeric()),
            } for t in result.transversals],
        })
    write_json(args.output, report)
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegeneracyError as exc:
        print(f"degenerate input: {', '.join(exc.factors)}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (SceneFormatError, FileNotFoundError, ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
