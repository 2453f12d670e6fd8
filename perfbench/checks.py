"""Output checks that do not trust the program's own `verify`.

Everything here is recomputed from the scene the benchmark generated and the
coordinates the program wrote: the scene embedded in a certificate, its
declared tolerances, counts and reality flags, every residual, distinctness
and conjugate pairing.  Nothing is imported from quadtangents.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

# the tolerances every op asks for (the program's defaults)
TOLERANCES = {"residual": 1e-12, "real": 1e-8, "distinct": 1e-6}
COORDS = ("01", "02", "03", "12", "13", "23")
PAIRS = list(combinations(range(4), 2))


def exact_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def compound2(q: np.ndarray) -> np.ndarray:
    """2x2 minors of a 4x4 matrix, rows and columns in lex pair order: the
    tangency form of the quadric on Pluecker coordinates."""
    return np.array([[q[i, k] * q[j, l] - q[i, l] * q[j, k] for k, l in PAIRS]
                     for i, j in PAIRS])


def decode_vector(plucker: dict) -> np.ndarray:
    coords = plucker["coords"]
    return np.array([complex(*c) if isinstance(c, list) else complex(c)
                     for c in (coords[k] for k in COORDS)])


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit norm, largest coordinate rotated real-positive."""
    v = v / np.linalg.norm(v)
    z = v[np.argmax(np.abs(v))]
    return v * (z.conjugate() / abs(z))


def chordal(u: np.ndarray, v: np.ndarray) -> float:
    """min over phases of ||u - e^(i phi) v|| for unit u, v."""
    ip = np.vdot(v, u)
    phase = ip / abs(ip) if ip != 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def residual(v: np.ndarray, forms: list[np.ndarray]) -> float:
    """Largest normalized residual of a Pluecker 6-vector: the Pluecker
    relation and each tangency form, scaled by |v|^2 and |form|."""
    norm2 = float(np.sum(np.abs(v) ** 2))
    p01, p02, p03, p12, p13, p23 = v
    worst = abs(p01 * p23 - p02 * p13 + p03 * p12) / norm2
    for c in forms:
        worst = max(worst, abs(v @ c @ v) / (float(np.linalg.norm(c)) * norm2))
    return worst


def check_certificate(cert: dict, scene: dict, expect: dict) -> list[str]:
    """Reasons the certificate fails; empty when every check passes.

    ``expect`` holds the solution count ``total`` and, when it is known in
    advance, the ``real`` count.
    """
    reasons = []
    quadrics = [exact_matrix(q["matrix"]) for q in scene["quadrics"]]
    embedded = cert.get("scene", {})
    if [exact_matrix(q["matrix"]) for q in embedded.get("quadrics", [])] != quadrics \
            or embedded.get("flats"):
        reasons.append("embedded scene differs from the input scene")
    if cert.get("tolerances") != TOLERANCES:
        reasons.append(f"declared tolerances {cert.get('tolerances')} != {TOLERANCES}")

    solutions = cert.get("solutions", [])
    counts = cert.get("counts", {})
    if not (len(solutions) == counts.get("total") == expect["total"]):
        reasons.append(f"{len(solutions)} solutions, counts.total "
                       f"{counts.get('total')}, expected {expect['total']}")
    forms = [compound2(np.array(q, dtype=float)) for q in quadrics]
    vecs = []
    for i, sol in enumerate(solutions):
        try:
            v = decode_vector(sol["plucker"])
        except (KeyError, TypeError, ValueError) as exc:
            reasons.append(f"solution {i} unreadable: {exc!r}")
            continue
        if not np.all(np.isfinite(v)) or not np.any(v):
            reasons.append(f"solution {i} is not a point of P^5")
            continue
        res = residual(v, forms)
        if not res <= TOLERANCES["residual"]:
            reasons.append(f"solution {i} residual {res:.3e} > {TOLERANCES['residual']:g}")
        w = normalize(v)
        real = float(np.max(np.abs(w.imag))) < TOLERANCES["real"]
        if sol.get("real") is not real:
            reasons.append(f"solution {i} flagged real={sol.get('real')}, is {real}")
        vecs.append((w, real))

    for (i, (u, _)), (j, (v, _)) in combinations(enumerate(vecs), 2):
        d = chordal(u, v)
        if not d > TOLERANCES["distinct"]:
            reasons.append(f"solutions {i} and {j} coincide (distance {d:.3e})")

    n_real = sum(real for _, real in vecs)
    if counts.get("real") != n_real or counts.get("nonreal") != len(vecs) - n_real:
        reasons.append(f"counts {counts} but {n_real} of {len(vecs)} are real")
    if expect.get("real") is not None and n_real != expect["real"]:
        reasons.append(f"{n_real} real solutions, expected {expect['real']}")
    nonreal = [w for w, real in vecs if not real]
    while nonreal:
        w = nonreal.pop()
        partner = next((k for k, u in enumerate(nonreal)
                        if chordal(w.conjugate(), u) < TOLERANCES["real"]), None)
        if partner is None:
            reasons.append("a nonreal solution has no conjugate partner")
        else:
            nonreal.pop(partner)
    return reasons


def check_doubling(report: dict, expect: dict) -> list[str]:
    reasons = []
    rows = report.get("rows", [])
    real = [r.get("real") for r in rows]
    if real != expect["real"] or [r.get("target") for r in rows] != expect["real"]:
        reasons.append(f"real counts {real}, expected {expect['real']}")
    if report.get("exact_stage0") != expect["real"][0]:
        reasons.append(f"exact stage-0 count {report.get('exact_stage0')}, "
                       f"expected {expect['real'][0]}")
    return reasons
