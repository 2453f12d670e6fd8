"""Tests of the benchmark itself: tracing wrappers, counter determinism and
the independent output checks.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.tracing import PACKAGE, TRACED, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, iter_inputs  # noqa: E402


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("setup")
    module, _ = run.setup("closed-form", workdir)
    return module


def make_inputs(name, stream, count, workdir):
    return list(itertools.islice(iter_inputs(name, stream, workdir), count))


def package_bindings() -> dict:
    """Every attribute of every loaded package module, plus the classmethod
    and numpy function the tracer patches."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    scenes = sys.modules[f"{PACKAGE}.scenes"]
    out[("Scene", "from_dict")] = scenes.Scene.__dict__["from_dict"]
    out[("numpy.linalg", "solve")] = np.linalg.solve
    return out


def test_wrappers_cover_every_binding_and_restore_originals(cli):
    before = package_bindings()
    originals = [getattr(sys.modules[f"{PACKAGE}.{m}"], a) for m, a in TRACED if "." not in a]
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            during = package_bindings()
            # no module keeps an untraced copy, however it imported the name
            for orig in originals:
                assert not [key for key, v in during.items() if v is orig]
            for key in [("quadtangents.cli", "solve_tangency"),
                        ("quadtangents.cli", "verify_solution"),
                        ("quadtangents.cli", "solution_residuals"),
                        ("quadtangents.cli", "verify_certificate"),
                        ("Scene", "from_dict"), ("numpy.linalg", "solve")]:
                assert during[key] is not before[key]
            raise RuntimeError("leave the block by an exception")
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def traced_counters(cli, name: str, count: int, tmp_path: Path) -> dict:
    workdir = tmp_path / f"{name}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    inputs = make_inputs(name, "seed-7", count, workdir)
    result = run.traced_run(cli, inputs, workdir / "trace.jsonl")
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in ("s", "%")}


@pytest.mark.parametrize("name,count", [("closed-form", 2), ("quadric-scenes", 1),
                                        ("doubling", 1)])
def test_deterministic_counters_repeat(cli, tmp_path, name, count):
    first = traced_counters(cli, name, count, tmp_path)
    second = traced_counters(cli, name, count, tmp_path)
    assert first == second
    assert first["exactnum.exterior_power.calls"] > 0
    if name != "closed-form":
        assert first["tracker.paths"] > 0 and first["tracker.linsolve.systems"] > 0


class Forger:
    """A command line whose `tetra` certificates are edited after writing."""

    def __init__(self, cli, tamper):
        self.cli, self.tamper = cli, tamper

    def main(self, argv):
        code = self.cli.main(argv)
        if argv[0] == "tetra":
            path = Path(argv[argv.index("--output") + 1])
            cert = json.loads(path.read_text())
            self.tamper(cert)
            path.write_text(json.dumps(cert))
        return code


def drop_one_solution(cert):
    cert["solutions"].pop()
    cert["counts"] = {"total": 31, "real": 31, "nonreal": 0}


def forge_coordinate(cert):
    sol = cert["solutions"][0]
    sol["plucker"]["coords"]["01"] = 0.25
    sol["residual"] = 1.0


@pytest.mark.parametrize("tamper,needle", [(drop_one_solution, "31 solutions"),
                                           (forge_coordinate, "solution 0 residual")])
def test_tampered_certificate_fails_the_op(cli, tmp_path, tamper, needle):
    op = make_inputs("closed-form", "seed-3", 1, tmp_path)[0]  # 32 real lines
    assert run.run_op(cli, op).reasons == []
    record = run.run_op(Forger(cli, tamper), op)
    assert any(needle in reason for reason in record.reasons), record.reasons


def test_checks_pass_genuine_outputs_of_every_workload(cli, tmp_path):
    for name in ("closed-form", "quadric-scenes", "doubling"):
        workdir = tmp_path / name
        workdir.mkdir()
        for op in make_inputs(name, "seed-5", 2 if name == "closed-form" else 1, workdir):
            assert run.run_op(cli, op).reasons == []


def test_inputs_repeat_for_a_seed_and_differ_between_seeds(tmp_path):
    for name in WORKLOADS:
        a = [op.argv[:-1] for op in make_inputs(name, "seed-1", 3, tmp_path)]
        b = [op.argv[:-1] for op in make_inputs(name, "seed-1", 3, tmp_path)]
        c = [op.argv[:-1] for op in make_inputs(name, "seed-2", 3, tmp_path)]
        assert a == b and a != c


def test_closed_form_inputs_straddle_the_reality_bound(tmp_path):
    bound = 3 - 2 * math.sqrt(2)  # parameters are k/1000, far from it in floats
    ops = make_inputs("closed-form", "seed-1", 6, tmp_path)
    assert [op.expect["real"] for op in ops] == [32, 16] * 3
    for op in ops:
        alpha, beta = (float(Fraction(x)) for x in op.argv[1:3])
        inside = op.expect["real"] == 32
        assert (max(alpha, beta) < bound) == inside
        assert (min(alpha, beta) > bound) == (not inside)
