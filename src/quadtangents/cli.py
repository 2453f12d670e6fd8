"""Command-line front end.

Subcommands: counts, tetra, track, doubling, verify, transversals.
Exit codes: 0 success, 2 mathematical degeneracy (a hypothesis of the
underlying construction is violated), 3 input error, 4 numerical failure (a
certificate that `verify` rejects, or that `tetra` or `track` writes and
that fails `verify`'s rule: ``scenes.solution_issues`` on its coordinates
and, for `track`, ``scenes.path_issues`` on its path tally; or a `doubling`
stage that misses its target, ``tracker.DoublingResult.misses``; cli makes
no check itself).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import __version__
from .exactnum import rational
from .grassmann import (
    counts as grassmann_counts,
    moment_osculating_flat,
    sphere_tangent_line_count,
    tetrahedron_lines,
    transversals_to_4_lines,
)
from .scenes import (
    LINE_KEYS,
    PATH_KEYS,
    Scene,
    SceneFormatError,
    certificate,
    encode_plucker_exact,
    encode_plucker_numeric,
    encode_rational,
    path_issues,
    read_json,
    solution_issues,
    solution_residuals,
    verify_certificate,
    write_json,
    write_text,
)
from .tetra32 import (
    DegeneracyError,
    TetraParams,
    enumerate_tangents,
    family,
    numeric_vectors,
    reality_flags,
    verify_solution,  # noqa: F401  (perfbench traces this binding)
)
from .tracker import AUTO_RADII, doubling_experiment, solve_tangency

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

CSV_COLUMNS = ("index", "case", "branch", "signs", "status", "steps", "real",
               "residual") + tuple(f"p{key}_{part}" for key in LINE_KEYS
                                   for part in ("re", "im"))


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


# the options several subcommands share; each subcommand takes those it uses
SHARED_OPTIONS = {
    "--seed": {"type": int, "default": 0,
               "help": "seed for every random choice (default 0)"},
    "--format": {"choices": ("json", "csv"), "default": None,
                 "help": "certificate format (default json)"},
    "--output": {"default": None, "help": "output path (default stdout)"},
}
SOLVING_OPTIONS = ("--seed", "--format", "--output")
# counts and doubling write plain text, or JSON on request
TABLE_FORMAT = {"choices": ("json",), "default": None,
                "help": "json instead of plain text"}


def build_parser() -> _Parser:
    parser = _Parser(prog="quadtangents",
                     description="lines tangent to quadrics in projective 3-space")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, shared, help):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(flag, **SHARED_OPTIONS[flag])
        return p

    p = command("counts", ("--output",), "dimension/degree/total counts for G(k,n)")
    p.add_argument("--format", **TABLE_FORMAT)
    p.add_argument("k", nargs="?", type=int, default=1)
    p.add_argument("n", nargs="?", default=None,
                   help="dimension n, or a range like 3..9")
    p.add_argument("--table", action="store_true",
                   help="tabulate sphere bound vs quadric count over a range of n")

    p = command("tetra", SOLVING_OPTIONS,
                "closed-form 32 tangents of the tetrahedral family")
    p.add_argument("alpha_pos", nargs="?", default=None, metavar="alpha")
    p.add_argument("beta_pos", nargs="?", default=None, metavar="beta")
    p.add_argument("--alpha", default=None, help='rational, e.g. "1/10" or "0.1"')
    p.add_argument("--beta", default=None)

    p = command("track", SOLVING_OPTIONS,
                "solve a target scene: four spheres by elimination, other four "
                "tangencies by tracking from the 32 closed-form tangents, else from "
                "2^#tangencies * 2 total-degree starts")
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--path-log", default=None,
                   help="write one JSON line per tracked path to this file")

    p = command("doubling", ("--seed", "--output"),
                "cylinder-radius doubling experiment (counts 2,4,8,16,32)")
    p.add_argument("--format", **TABLE_FORMAT)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--auto", action="store_true", default=True,
                       help="cylinders of radius 1/10 (default)")
    group.add_argument("--radii", default=None,
                       help='four comma-separated rationals, e.g. "1/10,1/10,1/10,1/10"')

    p = command("verify", (), "re-evaluate every residual of a certificate")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--scene", default=None,
                   help="scene file the certificate must belong to")

    p = command("transversals", ("--output",), "exact transversal lines to four lines")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tetrahedron", action="store_true",
                       help="edges of the coordinate tetrahedron")
    group.add_argument("--moment", default=None,
                       help="four curve parameters, e.g. 0,1,2,3")
    return parser


# ---------------------------------------------------------------------------
# counts


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        ns = list(range(int(lo), int(hi) + 1))
        if not ns:
            raise SceneFormatError(f"empty range {spec}")
        return ns
    return [int(spec)]


def cmd_counts(args) -> int:
    if args.table:
        ns = (_parse_range(args.n) if args.n is not None
              else list(range(args.k + 2, args.k + 9)))
    elif args.n is None:
        raise SceneFormatError("counts needs k and n (or --table)")
    else:
        ns = [int(args.n)]
    rows = [grassmann_counts(args.k, n) for n in ns]
    if args.format == "json":
        write_json(args.output, [dataclasses.asdict(c) for c in rows])
    elif args.table:
        widths = [max(len(str(c.total)), len(str(sphere_tangent_line_count(c.n))), 4)
                  for c in rows]
        def line(label, values):
            cells = "  ".join(str(v).rjust(w) for v, w in zip(values, widths))
            return f"{label:<16}{cells}"
        lines = [line("n", [c.n for c in rows])]
        if args.k == 1:
            lines.append(line("3*2^(n-1)", [sphere_tangent_line_count(c.n) for c in rows]))
        lines.append(line("2^dim*degree", [c.total for c in rows]))
        write_text(args.output, "\n".join(lines))
    else:
        (c,) = rows
        write_text(args.output, f"dim={c.dim} degree={c.degree} total={c.total}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tetra


def _write_certificate(cert: dict, args) -> None:
    if args.format in (None, "json"):
        write_json(args.output, cert)
        return
    lines = [",".join(CSV_COLUMNS)]
    for sol in cert["solutions"]:
        coords = sol["plucker"]["coords"]
        row = [str(sol.get("index", "")), str(sol.get("case", "")),
               str(sol.get("branch", "")),
               "" if "signs" not in sol else " ".join(map(str, sol["signs"])),
               str(sol.get("path", {}).get("status", "")),
               str(sol.get("path", {}).get("steps", "")),
               str(sol["real"]).lower(), repr(sol["residual"])]
        for key in LINE_KEYS:
            z = coords[key]
            re, im = (z, 0.0) if not isinstance(z, list) else (z[0], z[1])
            row += [repr(re), repr(im)]
        lines.append(",".join(row))
    write_text(args.output, "\n".join(lines))


def _exit_by_rule(issues) -> int:
    """Exit 4 when the output written has issues by its command's rule, each on stderr."""
    for issue in issues:
        print(issue, file=sys.stderr)
    return EXIT_NUMERIC if issues else EXIT_OK


def _tetra_parameter(args, name: str):
    flag, positional = getattr(args, name), getattr(args, f"{name}_pos")
    if flag is not None and positional is not None:
        raise SceneFormatError(f"{name} given both positionally and as --{name}")
    if flag is None and positional is None:
        raise SceneFormatError("tetra needs alpha and beta")
    return rational(flag if flag is not None else positional)


def cmd_tetra(args) -> int:
    params = TetraParams.of(_tetra_parameter(args, "alpha"),
                            _tetra_parameter(args, "beta"))
    solutions = enumerate_tangents(params)  # raises DegeneracyError
    vectors = numeric_vectors(solutions)
    # the member, as the certificate's params and its scene's metadata name it
    alpha_beta = {"alpha": encode_rational(params.alpha), "beta": encode_rational(params.beta)}
    scene = Scene(3, quadrics=list(family(params)),
                  metadata={"family": "tetrahedral", **alpha_beta})
    residuals = solution_residuals(scene, vectors)
    flags = reality_flags(solutions)
    cert = certificate(
        scene, vectors, flags, residuals, args.seed,
        extras=[{"case": sol.case, "signs": list(sol.signs), "branch": sol.branch}
                for sol in solutions],
        params=alpha_beta)
    _write_certificate(cert, args)
    print(f"{cert['counts']['total']} solutions, {cert['counts']['real']} real, "
          f"max residual {max(s['residual'] for s in cert['solutions']):.3e}",
          file=sys.stderr)
    return _exit_by_rule(solution_issues(scene, vectors, flags, residuals)[0])


# ---------------------------------------------------------------------------
# track


def _write_path_log(path, paths) -> None:
    """One JSON line per ``TrackedPath``: its index, then its fields in
    order, an array as [re, im] pairs and a non-finite float as null."""
    def value(x):
        return None if isinstance(x, float) and not math.isfinite(x) else x

    def pairs(array):  # json's fallback, for an array field
        return [[z.real, z.imag] for z in array]

    with open(path, "w") as fh:
        for i, p in enumerate(paths):
            record = {f.name: value(getattr(p, f.name)) for f in dataclasses.fields(p)}
            fh.write(json.dumps({"index": i, **record}, default=pairs) + "\n")


def cmd_track(args) -> int:
    scene = Scene.from_dict(read_json(args.scene))
    if scene.n != 3:
        raise SceneFormatError("tracking requires a scene in P^3")
    # the tracker's target and the certificate residuals share one compile
    result = solve_tangency(scene.conditions, args.seed)
    if args.path_log:
        _write_path_log(args.path_log, result.paths)
    vectors = result.endpoints
    residuals = solution_residuals(scene, vectors)
    # the flags are the rule's, from the numbers written, as `verify` reads them
    issues, flags = solution_issues(scene, vectors, [None] * len(vectors), residuals)
    statuses = [p.status for p in result.paths]
    tally = {"total": len(statuses), **{key: statuses.count(status)
                                        for status, key in PATH_KEYS.items()}}
    cert = certificate(
        scene, vectors, flags, residuals, args.seed,
        extras=[{"path": {"status": p.status, "steps": p.steps}}
                for p in result.distinct_paths],
        metadata={"start_policy": result.start_policy,
                  "root_bound": scene.conditions.root_bound, "paths": tally})
    _write_certificate(cert, args)
    if result.fallback:
        print(f"four spheres tracked from the tetra start: {result.fallback}", file=sys.stderr)
    print(f"{len(vectors)} certified endpoints of {tally['total']} paths, "
          f"{cert['counts']['real']} real, {tally['at_infinity']} at infinity",
          file=sys.stderr)
    # the certificate is written either way, so that it can be inspected
    for i, p in enumerate(result.paths):
        if p.status == "path-jump-suspected":
            print(f"path {i}: suspected jump onto path {p.duplicate_of}", file=sys.stderr)
        elif p.status == "diverged":
            print(f"path {i}: diverged after {p.steps} steps", file=sys.stderr)
    return _exit_by_rule(issues + path_issues(scene, len(vectors), tally))


# ---------------------------------------------------------------------------
# doubling


def cmd_doubling(args) -> int:
    radii = (AUTO_RADII if args.radii is None
             else [rational(p.strip()) for p in args.radii.split(",")])
    result = doubling_experiment(radii, args.seed)
    if args.format == "json":
        write_json(args.output, {
            "exact_stage0": result.exact_stage0_count,
            "rows": [{**dataclasses.asdict(r), "radii": list(map(encode_rational, r.radii))}
                     for r in result.rows],
        })
    else:
        lines = ["stage  target  real  radii"]
        for r in result.rows:
            radii_txt = ",".join(encode_rational(x) for x in r.radii) or "-"
            lines.append(f"{r.stage:>5}  {r.target:>6}  {r.real:>4}  {radii_txt}")
        lines.append(f"exact transversal count at stage 0: {result.exact_stage0_count}")
        write_text(args.output, "\n".join(lines))
    return _exit_by_rule(result.misses)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    cert = read_json(args.certificate)
    expected = Scene.from_dict(read_json(args.scene)) if args.scene else None
    report = verify_certificate(cert, expected_scene=expected)
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


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: argparse keeps no state between
    parses, so in-process callers of ``main`` share it (a one-shot command
    line builds it once either way)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up when called, so a rebound cmd_* function takes effect
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:
        # stdout now writes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegeneracyError as exc:
        print(f"degenerate input: {', '.join(exc.factors)}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (SceneFormatError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
