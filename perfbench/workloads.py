"""Seeded inputs for each workload and the command-line op that consumes them.

The program only ever sees the files and arguments built here; the workload
seed stays inside the benchmark.  Every draw is rational, so the scene files
carry exact data, and each op gets its own scene and its own program seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

SCENE_SCHEMA = "quadtangents.scene.v1"


@dataclass
class OpInput:
    """One op: the producing command plus what its output must satisfy."""

    index: int
    argv: list[str]                 # producing command (tetra, track or doubling)
    output: str                     # where the producing command writes
    scene_path: str | None = None   # scene of a certificate, for `verify --scene`
    scene: dict | None = None       # the same scene, for the output checks
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    make: Callable[[random.Random, int, Path], OpInput]
    trace_ops: int  # fixed op count of a traced run, so counters repeat


def encode(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scene_dict(matrices, metadata=None) -> dict:
    return {"schema": SCENE_SCHEMA, "n": 3,
            "quadrics": [{"n": 3, "label": f"Q{i + 1}",
                          "matrix": [[encode(x) for x in row] for row in m]}
                         for i, m in enumerate(matrices)],
            "flats": [], "metadata": metadata or {}}


def diagonal(values) -> list[list[Fraction]]:
    return [[Fraction(v) if i == j else Fraction(0) for j, v in enumerate(values)]
            for i in range(len(values))]


# ---------------------------------------------------------------------------
# closed-form: the tetrahedral family on both sides of the reality bound


def below_reality_bound(x: Fraction) -> bool:
    """0 < x < 3 - 2*sqrt(2), decided on exact squares."""
    return 0 < x < 3 and (3 - x) ** 2 > 8


def tetra_family(alpha: Fraction, beta: Fraction) -> list:
    a, b = alpha, beta
    return [diagonal([1, -b, -b, 1]), diagonal([1, 1, -b, -b]),
            diagonal([-a, 1, 1, -a]), diagonal([-a, -a, 1, 1])]


def draw_parameter(rng: random.Random, inside: bool) -> Fraction:
    # k/1000 with k in [20, 171] lies below 3 - 2*sqrt(2) = 0.17157..,
    # k in [172, 500] above it; both ranges stay clear of the degenerate
    # values 0 and 1 of the closed form.
    x = Fraction(rng.randint(20, 171) if inside else rng.randint(172, 500), 1000)
    assert below_reality_bound(x) == inside
    return x


def closed_form_op(rng: random.Random, index: int, workdir: Path) -> OpInput:
    inside = index % 2 == 0
    alpha, beta = draw_parameter(rng, inside), draw_parameter(rng, inside)
    seed = rng.randrange(2 ** 31)
    scene = scene_dict(tetra_family(alpha, beta),
                       {"family": "tetrahedral", "alpha": encode(alpha),
                        "beta": encode(beta)})
    scene_path = workdir / f"scene-{index}.json"
    scene_path.write_text(json.dumps(scene))
    output = str(workdir / f"cert-{index}.json")
    return OpInput(index, ["tetra", encode(alpha), encode(beta), "--seed", str(seed),
                           "--output", output],
                   output, str(scene_path), scene,
                   {"total": 32, "real": 32 if inside else 16})


# ---------------------------------------------------------------------------
# quadric-scenes and sphere-scenes: track, then verify


def random_symmetric(rng: random.Random) -> list[list[Fraction]]:
    """Entries k/1000 uniform in [-1, 1]: a rational criterion-8 draw."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            m[i][j] = m[j][i] = Fraction(rng.randint(-1000, 1000), 1000)
    return m


def random_sphere(rng: random.Random) -> list[list[Fraction]]:
    """Sphere |x - c|^2 = r^2 with c in [-2, 2]^3 and r in [1/2, 2], step 1/32."""
    c = [Fraction(rng.randint(-64, 64), 32) for _ in range(3)]
    r = Fraction(rng.randint(16, 64), 32)
    return [[sum(x * x for x in c) - r * r, -c[0], -c[1], -c[2]],
            [-c[0], Fraction(1), Fraction(0), Fraction(0)],
            [-c[1], Fraction(0), Fraction(1), Fraction(0)],
            [-c[2], Fraction(0), Fraction(0), Fraction(1)]]


def _track_op(rng, index, workdir, draw, total) -> OpInput:
    scene = scene_dict([draw(rng) for _ in range(4)])
    seed = rng.randrange(2 ** 31)
    scene_path = workdir / f"scene-{index}.json"
    scene_path.write_text(json.dumps(scene))
    output = str(workdir / f"cert-{index}.json")
    return OpInput(index, ["track", "--scene", str(scene_path), "--seed", str(seed),
                           "--output", output],
                   output, str(scene_path), scene, {"total": total, "real": None})


def quadric_op(rng: random.Random, index: int, workdir: Path) -> OpInput:
    return _track_op(rng, index, workdir, random_symmetric, 32)


def sphere_op(rng: random.Random, index: int, workdir: Path) -> OpInput:
    # 3 * 2^(n-1) = 12 lines are tangent to four general spheres in R^3
    return _track_op(rng, index, workdir, random_sphere, 12)


# ---------------------------------------------------------------------------
# doubling: the cylinder-radius ladder under a fresh program seed per op


def doubling_op(rng: random.Random, index: int, workdir: Path) -> OpInput:
    output = str(workdir / f"doubling-{index}.json")
    return OpInput(index, ["doubling", "--auto", "--seed", str(rng.randrange(2 ** 31)),
                           "--format", "json", "--output", output],
                   output, expect={"real": [2, 4, 8, 16, 32]})


WORKLOADS = {
    "closed-form": Workload(closed_form_op, trace_ops=30),
    "quadric-scenes": Workload(quadric_op, trace_ops=16),
    "sphere-scenes": Workload(sphere_op, trace_ops=4),
    "doubling": Workload(doubling_op, trace_ops=8),
}


def iter_inputs(name: str, stream: str, workdir: Path) -> Iterator[OpInput]:
    """The ops of the named input stream, each generated when it is asked
    for; the same stream always yields the same ops in the same order."""
    rng = random.Random(f"{name}/{stream}")
    return (WORKLOADS[name].make(rng, i, workdir) for i in itertools.count())
