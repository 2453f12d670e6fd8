"""Scene and certificate files: JSON round-tripping, hashing, verification.

A *scene* is a labeled list of quadrics and flats in P^3.  A *certificate*
records solutions (Pluecker 6-vectors) of the tangency/incidence problem a
scene poses, together with residuals and the tolerances used, plus a hash of
the canonical scene encoding so a certificate cannot be replayed against a
different scene.  Verification re-evaluates every residual from scratch; it
never trusts how the certificate was produced.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exactnum import RatMatrix, rational, subsets
from .grassmann import (
    DISTINCT_TOL,
    DualFlat,
    PluckerVector,
    ProjFlat,
    classify_real,
    close_pairs,
)
from .quadrics import LineConditions, Meets, Quadric, TangentTo
from .tetra32 import TetraParams, reality_count

SCENE_SCHEMA = "quadtangents.scene.v1"
CERTIFICATE_SCHEMA = "quadtangents.certificate.v1"


class SceneFormatError(ValueError):
    """Scene or certificate JSON does not match the documented format."""


# ---------------------------------------------------------------------------
# primitive encoders


def encode_rational(x: Fraction) -> str:
    x = rational(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def decode_rational(s) -> Fraction:
    if isinstance(s, (int, str)):
        return rational(s)
    if isinstance(s, float):
        return Fraction(s)  # exact value of the JSON float literal
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
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2:
        return complex(v[0], v[1])
    raise SceneFormatError(f"expected a number or [re, im] pair, got {v!r}")


def _objects(value, what: str) -> list[dict]:
    """``value`` as a list of JSON objects, or SceneFormatError naming ``what``."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise SceneFormatError(f"{what} must be a list of objects")
    return value


def coord_key(index_set: tuple[int, ...]) -> str:
    return "".join(str(i) for i in index_set)


def encode_plucker_numeric(vec: np.ndarray, k: int = 1, n: int = 3) -> dict:
    keys = [coord_key(I) for I in subsets(n + 1, k + 1)]
    return {"k": k, "n": n,
            "coords": {key: encode_complex(z) for key, z in zip(keys, vec)}}


def decode_plucker_numeric(obj) -> np.ndarray:
    try:
        k, n = obj["k"], obj["n"]
        keys = [coord_key(I) for I in subsets(n + 1, k + 1)]
        return np.array([decode_complex(obj["coords"][key]) for key in keys])
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
        for q in self.quadrics:
            if q.n != self.n:
                raise SceneFormatError("quadric dimension differs from scene")

    @property
    def condition_count(self) -> int:
        return len(self.quadrics) + len(self.flats)

    @cached_property
    def conditions(self) -> LineConditions:
        """Tangency to every quadric and incidence with every flat, compiled once."""
        return LineConditions.compile(
            [(f"tangency_{q.label}", TangentTo(q)) for q in self.quadrics]
            + [(f"incidence_{label}", Meets(f)) for label, f in self.flats])

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
        try:
            n = int(obj["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SceneFormatError("scene needs an integer field 'n'") from exc
        quadrics = []
        for i, q in enumerate(_objects(obj.get("quadrics", []), "scene quadrics")):
            label = q.get("label", f"Q{i + 1}")
            m = decode_matrix(q.get("matrix"))
            if not m.is_symmetric:
                raise SceneFormatError(f"quadric {label!r} matrix is not symmetric")
            if "n" in q and q["n"] != m.rows - 1:
                raise SceneFormatError(f"quadric {label!r} declares n={q['n']} "
                                       f"but has a {m.rows}x{m.cols} matrix")
            quadrics.append(Quadric(m, label=label))
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


def solution_residuals(scene: Scene, vec: np.ndarray) -> dict[str, float]:
    """Normalized residual of one Pluecker 6-vector against every scene
    condition, plus the Pluecker relation itself."""
    return scene.conditions.residuals(vec)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    scene: Scene
    solutions: list[dict]       # per-solution JSON-ready entries
    counts: dict
    tolerances: dict
    seed: int | None = None
    params: dict | None = None  # present for closed-form family certificates
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        from . import __version__

        scene_dict = self.scene.to_dict()
        return {
            "schema": CERTIFICATE_SCHEMA,
            "generator": {"tool": "quadtangents", "version": __version__},
            "scene": scene_dict,
            "scene_hash": scene_hash(scene_dict),
            "params": self.params,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "counts": self.counts,
            "solutions": self.solutions,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Certificate":
        if not isinstance(obj, dict) or obj.get("schema") != CERTIFICATE_SCHEMA:
            raise SceneFormatError(
                f"not a certificate (schema field must be {CERTIFICATE_SCHEMA!r})")
        for key in ("scene", "scene_hash", "counts", "solutions", "tolerances"):
            if key not in obj:
                raise SceneFormatError(f"certificate misses field {key!r}")
        for key in ("counts", "tolerances"):
            if not isinstance(obj[key], dict):
                raise SceneFormatError(f"certificate {key} must be an object")
        cert = cls(
            scene=Scene.from_dict(obj["scene"]),
            solutions=list(_objects(obj["solutions"], "certificate solutions")),
            counts=dict(obj["counts"]),
            tolerances=dict(obj["tolerances"]),
            seed=obj.get("seed"),
            params=obj.get("params"),
            metadata=obj.get("metadata", {}),
        )
        if not all(isinstance(x, (int, float)) for x in cert.tolerances.values()):
            raise SceneFormatError("certificate tolerances must be numbers")
        cert._recorded_hash = obj["scene_hash"]
        return cert

    _recorded_hash: str | None = None


@dataclass
class VerificationIssue:
    solution: int | None
    message: str


@dataclass
class VerificationReport:
    passed: bool
    issues: list[VerificationIssue]
    max_residual: float

    def summary(self) -> str:
        if self.passed:
            return f"PASS (max re-evaluated residual {self.max_residual:.3e})"
        lines = [f"FAIL ({len(self.issues)} issue(s))"]
        lines += [f"  solution {i.solution}: {i.message}" if i.solution is not None
                  else f"  {i.message}" for i in self.issues]
        return "\n".join(lines)


def verify_certificate(cert: Certificate,
                       expected_scene: Scene | None = None,
                       tol: float = 1e-12) -> VerificationReport:
    """Re-evaluate every solution of a certificate from scratch.

    Checks: the recorded scene hash matches the embedded scene (and the
    externally supplied one, if given); the declared tolerances are no looser
    than ``tol`` and ``DISTINCT_TOL``; every residual of every solution is at
    most ``tol``, whatever the certificate records; no two solutions are
    closer than ``DISTINCT_TOL``; each reality flag is what ``classify_real``
    derives from the coordinates, and each nonreal solution has a conjugate;
    the counts match the solutions and their flags, within the root bound
    and, with ``params`` (closed form), 32 lines split as ``reality_count``.
    A certificate whose scene is not in P^3 raises SceneFormatError; one
    with degenerate ``params``, DegeneracyError.
    """
    if cert.scene.n != 3:
        raise SceneFormatError(
            f"verification needs a scene in P^3, got one in P^{cert.scene.n}")
    issues: list[VerificationIssue] = []
    embedded_hash = scene_hash(cert.scene)
    if cert._recorded_hash is not None and cert._recorded_hash != embedded_hash:
        issues.append(VerificationIssue(None, "scene hash does not match embedded scene"))
    if expected_scene is not None and scene_hash(expected_scene) != embedded_hash:
        issues.append(VerificationIssue(None, "certificate was issued for a different scene"))
    declared = cert.tolerances
    if not (declared.get("residual", tol) <= tol
            and declared.get("distinct", DISTINCT_TOL) >= DISTINCT_TOL):
        issues.append(VerificationIssue(
            None, f"declared tolerances {declared} are looser than the verifier's "
                  f"(residual {tol:g}, distinct {DISTINCT_TOL:g})"))

    worst = 0.0
    vectors = []
    for i, sol in enumerate(cert.solutions):
        try:
            vec = decode_plucker_numeric(sol["plucker"])
        except (KeyError, SceneFormatError) as exc:
            issues.append(VerificationIssue(i, f"unreadable solution: {exc}"))
            continue
        res = solution_residuals(cert.scene, vec)
        worst = max(worst, *res.values())
        over = [f"{key} {r:.3e}" for key, r in res.items() if not r <= tol]  # NaN too
        if over:
            issues.append(VerificationIssue(
                i, f"residual exceeds tolerance {tol:.3e}: {', '.join(over)}"))
        else:
            vectors.append((i, vec))
    if vectors:
        index, vecs = zip(*vectors)
        for a, b in close_pairs(vecs, DISTINCT_TOL):
            issues.append(VerificationIssue(
                index[b], f"coincides with solution {index[a]}"))
        reality = classify_real(vecs)
        issues += [VerificationIssue(i, "reality flag disagrees with the coordinates")
                   for i, real in zip(index, reality.is_real)
                   if bool(cert.solutions[i].get("real")) != real]
        issues += [VerificationIssue(index[k], "nonreal, with no conjugate solution")
                   for k in reality.unpaired]

    counts, scene, total = cert.counts, cert.scene, len(cert.solutions)
    n_real = sum(bool(sol.get("real")) for sol in cert.solutions)
    if counts.get("total") != total:
        issues.append(VerificationIssue(None, "counts.total differs from solution list"))
    for key, flagged in (("real", n_real), ("nonreal", total - n_real)):
        if key in counts and counts[key] != flagged:
            issues.append(VerificationIssue(
                None, f"counts.{key} differs from solution flags"))
    if (scene.n == 3 and scene.condition_count == 4
            and total > scene.conditions.root_bound):
        issues.append(VerificationIssue(
            None, f"{total} solutions exceed the root bound "
                  f"{scene.conditions.root_bound}"))
    if cert.params is not None:
        if total != 32:
            issues.append(VerificationIssue(
                None, f"closed-form certificate lists {total} of 32 lines"))
        try:
            params = TetraParams.of(cert.params["alpha"], cert.params["beta"])
        except (KeyError, TypeError) as exc:
            raise SceneFormatError(f"bad closed-form params {cert.params!r}") from exc
        real, _ = reality_count(params)
        if n_real != real:
            issues.append(VerificationIssue(
                None, f"{n_real} lines flagged real, the closed form has {real}"))
    return VerificationReport(not issues, issues, worst)


def write_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def read_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneFormatError(f"invalid JSON in {path}: {exc}") from exc
