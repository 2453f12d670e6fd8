"""Scene and certificate files: JSON round-tripping, hashing, verification.

A *scene* is a labeled list of quadrics and flats in P^3.  A *certificate*
records solutions (Pluecker 6-vectors) of the tangency/incidence problem a
scene poses, together with residuals and the tolerances used, plus a hash of
the canonical scene encoding so a certificate cannot be replayed against a
different scene.  A certificate is its JSON object: ``certificate`` writes
it and ``verify_certificate`` reads it.  Verification re-evaluates every
residual from scratch; it never trusts how the certificate was produced.
One rule checks a certificate, in ``verify`` and in the commands that write
it: ``solution_issues`` its coordinates, ``path_issues`` a run's path tally.

Serialization conventions (shared with docs/schemas/*.json):
  rationals     -> strings "p/q" (or "p"); decimal strings are parsed exactly
  matrices      -> nested row-major arrays of rationals (or floats)
  flats         -> {"kind": "span" | "dual", "matrix": [[..]]}
  Pluecker      -> {"k":1, "n":3, "coords": {"01": value, ..}} with complex
                   values as [re, im]
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactnum import RatMatrix, ShapeError, rational, subsets
from .grassmann import (
    DISTINCT_TOL,
    REAL_TOL,
    RESIDUAL_TOL,
    DualFlat,
    PluckerVector,
    ProjFlat,
    classify_real,
    close_pairs,
)
from .quadrics import LineConditions, Meets, Quadric, TangentTo
from .tetra32 import TetraParams, family, reality_count

SCENE_SCHEMA = "quadtangents.scene.v1"
CERTIFICATE_SCHEMA = "quadtangents.certificate.v1"
# the tolerances every certificate declares, and the only ones `verify` accepts
TOLERANCES = {"residual": RESIDUAL_TOL, "real": REAL_TOL, "distinct": DISTINCT_TOL}


class SceneFormatError(ValueError):
    """Scene or certificate JSON does not match the documented format."""


# ---------------------------------------------------------------------------
# primitive encoders


def encode_rational(x: Fraction) -> str:
    x = rational(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _is_json_number(x) -> bool:
    """Whether ``x`` read from JSON is a number: an int or a float, never a
    boolean (which Python counts as an int)."""
    return type(x) in (int, float)


def _is_json_int(x) -> bool:
    """Whether ``x`` read from JSON is an integer: never a boolean, nor a
    float such as 3.0."""
    return type(x) is int


def decode_rational(s) -> Fraction:
    if isinstance(s, str):
        return rational(s)
    if _is_json_number(s):
        return Fraction(s)  # exact value of the JSON number literal
    raise SceneFormatError(f"expected a rational, got {s!r}")


def encode_matrix(m: RatMatrix) -> list[list[str]]:
    return [[encode_rational(x) for x in m.row(i)] for i in range(m.rows)]


def decode_matrix(rows) -> RatMatrix:
    try:
        return RatMatrix.from_rows([[decode_rational(x) for x in row] for row in rows])
    except (TypeError, IndexError) as exc:
        raise SceneFormatError(f"bad matrix: {exc}") from exc


def encode_complex(z) -> object:
    z = complex(z)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def decode_complex(v) -> complex:
    """A JSON number or [re, im] pair of them, each within float range: not
    the NaN or Infinity that Python's json reads, nor a larger integer."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if all(_is_json_number(x) and abs(x) <= sys.float_info.max for x in parts):
        return complex(*parts)
    raise SceneFormatError(f"expected a finite number or [re, im] pair, got {v!r}")


def _objects(value, what: str) -> list[dict]:
    """``value`` as a list of JSON objects, or SceneFormatError naming ``what``."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise SceneFormatError(f"{what} must be a list of objects")
    return value


def coord_key(index_set: tuple[int, ...]) -> str:
    return "".join(str(i) for i in index_set)


# the keys of a line's six Pluecker coordinates in P^3, in lex order
LINE_KEYS = tuple(coord_key(I) for I in subsets(4, 2))


def encode_plucker_numeric(vec: np.ndarray) -> dict:
    """A line's numeric Pluecker vector in P^3 as JSON."""
    return {"k": 1, "n": 3,
            "coords": {key: encode_complex(z) for key, z in zip(LINE_KEYS, vec)}}


def decode_plucker_numeric(obj) -> np.ndarray:
    """The line ``encode_plucker_numeric`` wrote; SceneFormatError for
    anything else."""
    try:
        k, n = obj["k"], obj["n"]
        if (k, n) != (1, 3):
            raise SceneFormatError(
                f"bad Pluecker vector: k = {k}, n = {n}, not a line in P^3")
        return np.array([decode_complex(obj["coords"][key]) for key in LINE_KEYS])
    except (KeyError, TypeError) as exc:
        raise SceneFormatError(f"bad Pluecker vector: {exc}") from exc


def encode_plucker_exact(p: PluckerVector) -> dict:
    return {"k": p.k, "n": p.n,
            "coords": {coord_key(I): str(c)
                       for I, c in zip(p.index_sets, p.coords)}}


# ---------------------------------------------------------------------------
# scenes


@dataclass
class Scene:
    """Labeled quadrics and flats, all in the same P^n."""

    n: int
    quadrics: list[Quadric] = field(default_factory=list)
    flats: list[tuple[str, object]] = field(default_factory=list)  # (label, Proj/DualFlat)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.quadrics = [
            q if q.label is not None else Quadric(q.matrix, label=f"Q{i + 1}")
            for i, q in enumerate(self.quadrics)]
        labels = [q.label for q in self.quadrics] + [lab for lab, _ in self.flats]
        if len(set(labels)) != len(labels):
            raise SceneFormatError("scene labels must be unique")
        for label, x in [(q.label, q) for q in self.quadrics] + self.flats:
            if x.n != self.n:
                raise SceneFormatError(
                    f"{label!r} lies in P^{x.n}, the scene in P^{self.n}")

    @cached_property
    def conditions(self) -> LineConditions:
        """Tangency to every quadric and incidence with every flat, compiled
        once.  A row whose coefficients are all zero (a tangency to a quadric
        of rank <= 1, whose wedge^2 Q vanishes) holds on every line: a
        ValueError naming its condition."""
        conditions = LineConditions.compile(
            [(f"tangency_{q.label}", TangentTo(q)) for q in self.quadrics]
            + [(f"incidence_{label}", Meets(f)) for label, f in self.flats])
        for label, scale in zip(conditions.labels, conditions.scale.tolist()):
            if scale == 0:
                raise ValueError(f"condition {label} holds on every line: "
                                 "its coefficients are all zero")
        return conditions

    def to_dict(self) -> dict:
        flats = []
        for label, f in self.flats:
            if isinstance(f, ProjFlat):
                flats.append({"label": label, "kind": "span",
                              "matrix": encode_matrix(f.span)})
            else:
                flats.append({"label": label, "kind": "dual",
                              "matrix": encode_matrix(f.hyperplanes)})
        return {
            "schema": SCENE_SCHEMA,
            "n": self.n,
            "quadrics": [{"n": q.n, "label": q.label,
                          "matrix": encode_matrix(q.matrix)}
                         for q in self.quadrics],
            "flats": flats,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Scene":
        if not isinstance(obj, dict):
            raise SceneFormatError("scene must be a JSON object")
        n = obj.get("n")
        if not _is_json_int(n):
            raise SceneFormatError("scene needs an integer field 'n'")
        quadrics = []
        for i, q in enumerate(_objects(obj.get("quadrics", []), "scene quadrics")):
            label = q.get("label", f"Q{i + 1}")
            m = decode_matrix(q.get("matrix"))
            try:
                quadric = Quadric(m, label=label)
            except ShapeError as exc:
                raise SceneFormatError(f"quadric {label!r} matrix is not symmetric") from exc
            if "n" in q and (not _is_json_int(q["n"]) or q["n"] != m.rows - 1):
                raise SceneFormatError(f"quadric {label!r} declares n={q['n']!r} "
                                       f"but has a {m.rows}x{m.cols} matrix")
            quadrics.append(quadric)
        flats = []
        for i, f in enumerate(_objects(obj.get("flats", []), "scene flats")):
            label = f.get("label", f"L{i + 1}")
            kind = f.get("kind", "span")
            m = decode_matrix(f.get("matrix"))
            if kind == "span":
                flats.append((label, ProjFlat(m)))
            elif kind == "dual":
                flats.append((label, DualFlat(m)))
            else:
                raise SceneFormatError(f"flat {label!r} has unknown kind {kind!r}")
        return cls(n, quadrics, flats, obj.get("metadata", {}))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scene_hash(scene: Scene | dict) -> str:
    obj = scene.to_dict() if isinstance(scene, Scene) else scene
    digest = hashlib.sha256(canonical_json(obj).encode()).hexdigest()
    return f"sha256:{digest}"


# ---------------------------------------------------------------------------
# residual evaluation (shared by certificate generation and verification)


def solution_residuals(scene: Scene, vectors) -> list[dict[str, float]]:
    """Normalized residuals of a stack of Pluecker 6-vectors against every
    scene condition, plus the Pluecker relation itself: one dict per vector,
    from one stacked evaluation of the compiled conditions."""
    if not len(vectors):
        return []
    labels = scene.conditions.labels
    return [dict(zip(labels, row))
            for row in scene.conditions.residual_table(vectors).tolist()]


# ---------------------------------------------------------------------------
# certificates


def certificate(scene: Scene, vectors, real, residuals, seed: int | None,
                extras, params: dict | None = None,
                metadata: dict | None = None) -> dict:
    """The certificate of ``scene``'s solutions ``vectors``, given each
    one's flag and ``solution_residuals`` row, as its JSON object: one entry
    per solution (index, Pluecker vector, flag, its row's largest entry as
    residual, then ``extras``), ``counts`` from the flags, ``TOLERANCES``,
    and the scene with its hash.  ``params`` names a closed-form member."""
    from . import __version__

    solutions = [{"index": i,
                  "plucker": encode_plucker_numeric(np.asarray(vec, dtype=complex)),
                  "real": bool(flag),
                  "residual": float(max(row.values())),
                  **extra}
                 for i, (vec, flag, row, extra) in enumerate(
                     zip(vectors, real, residuals, extras))]
    n_real = sum(sol["real"] for sol in solutions)
    scene_dict = scene.to_dict()
    return {
        "schema": CERTIFICATE_SCHEMA,
        "generator": {"tool": "quadtangents", "version": __version__},
        "scene": scene_dict,
        "scene_hash": scene_hash(scene_dict),
        "params": params,
        "seed": seed,
        "tolerances": dict(TOLERANCES),
        "counts": {"total": len(solutions), "real": n_real,
                   "nonreal": len(solutions) - n_real},
        "solutions": solutions,
        "metadata": metadata or {},
    }


@dataclass
class VerificationReport:
    passed: bool
    issues: list[str]  # as `verify` prints them
    max_residual: float

    def summary(self) -> str:
        if self.passed:
            return f"PASS (max re-evaluated residual {self.max_residual:.3e})"
        lines = [f"FAIL ({len(self.issues)} issue(s))"]
        lines += [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)


def solution_issues(scene: Scene, vectors, flags,
                    residuals) -> tuple[list[str], list[bool | None]]:
    """The issues of a scene's solutions (``vectors``, None where unread),
    their ``flags`` and their ``solution_residuals`` rows: a row above
    ``RESIDUAL_TOL`` or NaN; among the rest, two closer than
    ``DISTINCT_TOL``, a boolean flag that ``classify_real`` contradicts, or
    a nonreal one with no conjugate; and more solutions than the root bound.
    Also returns the flags the rule derives, ``classify_real``'s for each
    read vector (None where unread): the flags `track` writes."""
    issues: list[str] = []
    read = [i for i, vec in enumerate(vectors) if vec is not None]
    within = []  # the position of each solution within RESIDUAL_TOL
    for i in read:
        over = [f"{key} {r:.3e}" for key, r in residuals[i].items() if not r <= RESIDUAL_TOL]
        if over:
            issues.append(f"solution {i}: residual exceeds tolerance "
                          f"{RESIDUAL_TOL:.3e}: {', '.join(over)}")
        else:
            within.append(i)
    derived = [None] * len(vectors)
    if read:
        reality = classify_real([vectors[i] for i in read])
        for i, real in zip(read, reality.is_real):
            derived[i] = real
    if within:
        if within != read:  # conjugates pair only among solutions within tolerance
            reality = classify_real([vectors[i] for i in within])
        for a, b in close_pairs([vectors[i] for i in within], DISTINCT_TOL):
            issues.append(f"solution {within[b]}: coincides with solution {within[a]}")
        issues += [f"solution {i}: reality flag disagrees with the coordinates"
                   for i in within if isinstance(flags[i], bool) and flags[i] != derived[i]]
        issues += [f"solution {within[k]}: nonreal, with no conjugate solution"
                   for k in reality.unpaired]
    if (len(scene.quadrics) + len(scene.flats) == 4
            and len(vectors) > scene.conditions.root_bound):
        issues.append(f"{len(vectors)} solutions exceed the root bound "
                      f"{scene.conditions.root_bound}")
    return issues, derived


# a `track` certificate's metadata.paths key for each status a path ends with
PATH_KEYS = {"converged": "converged", "diverged": "diverged", "at-infinity": "at_infinity",
             "path-jump-suspected": "suspected_jumps"}


def path_issues(scene: Scene, total: int, paths) -> list[str]:
    """The issues of ``metadata.paths`` of a run listing ``total`` lines of
    ``scene``: it must tally ``total`` converged paths as integer counts
    under ``PATH_KEYS`` that sum to its ``total``; and short of the root
    bound no path may be lost (``diverged`` or a suspected jump) and some
    line found.  At the bound a lost path can reach no other isolated root
    (Morgan and Sommese 1989)."""
    keys = ("total", *PATH_KEYS.values())
    if (not isinstance(paths, dict) or sorted(paths) != sorted(keys)
            or not all(map(_is_json_int, paths.values())) or paths["converged"] != total
            or sum(paths[key] for key in PATH_KEYS.values()) != paths["total"]):
        return [f"metadata.paths {paths!r} is not a tally of {total} converged paths"]
    lost, bound = paths["diverged"] + paths["suspected_jumps"], scene.conditions.root_bound
    if total < bound and (lost or not total):
        return [f"{total} of root bound {bound} lines listed, {lost} path(s) lost"]
    return []


def verify_certificate(obj: dict,
                       expected_scene: Scene | None = None) -> VerificationReport:
    """Re-evaluate every solution of a certificate's JSON object from scratch.

    Checks: the recorded scene hash matches the embedded scene (and the
    externally supplied one, if given); the declared tolerances are exactly
    ``TOLERANCES``; each solution's ``index`` is the integer equal to its
    position, its reality flag a boolean, and its recorded residual a JSON
    number (not a boolean) in [0, ``RESIDUAL_TOL``]; ``solution_issues``,
    on the solutions decoded and their re-evaluated residuals; ``counts``
    holds exactly the integers ``total``, ``real`` and ``nonreal``, which
    match the solutions and their flags; ``path_issues``, when the
    certificate has ``metadata.paths``; and, with ``params`` (closed
    form), the scene is exactly that family member and has 32 lines split
    as ``reality_count``.
    A missing or mistyped field (``seed`` is an integer or null), or a
    scene not in P^3, raises SceneFormatError; a scene condition that holds
    on every line (``Scene.conditions``), ValueError; degenerate ``params``,
    DegeneracyError.  ``generator``, the rest of ``metadata`` and solution
    extras are not read.
    """
    if not isinstance(obj, dict) or obj.get("schema") != CERTIFICATE_SCHEMA:
        raise SceneFormatError(
            f"not a certificate (schema field must be {CERTIFICATE_SCHEMA!r})")
    for key in ("scene", "scene_hash", "counts", "solutions", "tolerances"):
        if key not in obj:
            raise SceneFormatError(f"certificate misses field {key!r}")
    for key in ("counts", "tolerances"):
        if not isinstance(obj[key], dict):
            raise SceneFormatError(f"certificate {key} must be an object")
    scene = Scene.from_dict(obj["scene"])
    solutions = _objects(obj["solutions"], "certificate solutions")
    counts, tolerances = obj["counts"], obj["tolerances"]
    if not all(map(_is_json_number, tolerances.values())):
        raise SceneFormatError("certificate tolerances must be numbers")
    if obj.get("seed") is not None and not _is_json_int(obj["seed"]):
        raise SceneFormatError("certificate seed must be an integer or null")
    if scene.n != 3:
        raise SceneFormatError(
            f"verification needs a scene in P^3, got one in P^{scene.n}")
    issues: list[str] = []
    embedded_hash = scene_hash(scene)
    if obj["scene_hash"] != embedded_hash:
        issues.append("scene hash does not match embedded scene")
    if expected_scene is not None and scene_hash(expected_scene) != embedded_hash:
        issues.append("certificate was issued for a different scene")
    if tolerances != TOLERANCES:
        issues.append(f"declared tolerances {tolerances} are not the verifier's "
                      f"{TOLERANCES}")

    flags = [sol.get("real") for sol in solutions]
    vectors = []  # each solution's vector, or None where it cannot be read
    for i, sol in enumerate(solutions):
        index = sol.get("index")
        if not _is_json_int(index) or index != i:
            issues.append(f"solution {i}: index {index!r} is not its position {i}")
        if not isinstance(flags[i], bool):
            issues.append(f"solution {i}: reality flag {flags[i]!r} is not a boolean")
        recorded = sol.get("residual")
        if not _is_json_number(recorded) or not 0 <= recorded <= RESIDUAL_TOL:
            issues.append(f"solution {i}: recorded residual {recorded!r} is not a "
                          f"number in [0, {RESIDUAL_TOL:.0e}]")
        try:
            vectors.append(decode_plucker_numeric(sol["plucker"]))
        except (KeyError, SceneFormatError) as exc:
            vectors.append(None)
            issues.append(f"solution {i}: unreadable solution: {exc}")
    rows = iter(solution_residuals(scene, [vec for vec in vectors if vec is not None]))
    residuals = [None if vec is None else next(rows) for vec in vectors]
    worst = max([0.0, *(r for res in residuals if res for r in res.values())])
    issues += solution_issues(scene, vectors, flags, residuals)[0]

    total = len(solutions)
    n_real = sum(flag is True for flag in flags)
    derived = {"total": (total, "solution list"), "real": (n_real, "solution flags"),
               "nonreal": (total - n_real, "solution flags")}
    issues += [f"unknown count {key!r}" for key in counts if key not in derived]
    for key, (value, source) in derived.items():
        if key not in counts:
            issues.append(f"counts.{key} is missing")
        elif not _is_json_int(counts[key]):
            issues.append(f"counts.{key} {counts[key]!r} is not an integer")
        elif counts[key] != value:
            issues.append(f"counts.{key} differs from {source}")
    metadata = obj.get("metadata")
    if isinstance(metadata, dict) and "paths" in metadata:
        issues += path_issues(scene, total, metadata["paths"])
    if obj.get("params") is not None:
        if total != 32:
            issues.append(f"closed-form certificate lists {total} of 32 lines")
        try:
            params = TetraParams.of(obj["params"]["alpha"], obj["params"]["beta"])
        except (KeyError, TypeError) as exc:
            raise SceneFormatError(f"bad closed-form params {obj['params']!r}") from exc
        if (scene.flats or [q.matrix for q in scene.quadrics]
                != [q.matrix for q in family(params)]):
            issues.append("params do not name the family of the embedded scene")
        real, _ = reality_count(params)
        if n_real != real:
            issues.append(f"{n_real} lines flagged real, the closed form has {real}")
    return VerificationReport(not issues, issues, worst)


def write_text(path, text: str) -> None:
    """Print ``text``, or write it to ``path`` unless that is None or "-"."""
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def write_json(path, obj) -> None:
    """Write ``obj`` as one JSON line, by json's C encoder (an ``indent`` bypasses it)."""
    write_text(path, json.dumps(obj, allow_nan=False))


def read_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneFormatError(f"invalid JSON in {path}: {exc}") from exc
