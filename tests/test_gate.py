"""The gate harness, `tools/gate.py`: its runner on one scene, and its
refusal of an OUTDIR that holds files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from quadtangents import cli

ROOT = Path(__file__).resolve().parents[1]
GATE = ROOT / "tools" / "gate.py"


def load_gate():
    spec = importlib.util.spec_from_file_location("gate", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    gate.load(ROOT)
    return gate


def test_gate_runs_a_sweep_scene_through_track(tmp_path, monkeypatch):
    gate = load_gate()
    monkeypatch.chdir(tmp_path)
    matrices, seed = gate.sweep_scene(0, (0, 0, 0))
    scene = gate.workloads.scene_dict(matrices)
    # a hard set runs each scene under several seeds: each run keeps its files
    runs = [(0, scene, seed), (0, scene, seed + 1)]
    assert gate.scene_set("sweep", "sweep scene 0", runs) == [0, 0]
    assert len(list(Path("sweep").glob("scene-0-seed-*.cert.json"))) == 2
    stem = f"sweep/scene-0-seed-{seed}"
    cert = json.loads(Path(f"{stem}.cert.json").read_text())
    assert cert["counts"]["total"] == 12 and cert["metadata"]["root_bound"] == 12
    assert cli.main(["verify", f"{stem}.cert.json", "--scene", f"{stem}.scene.json"]) == 0
    steps = [json.loads(line)["steps"]
             for line in Path(f"{stem}.paths.jsonl").read_text().splitlines()]
    line = Path("sweep/summary.txt").read_text().splitlines()[2].split()
    assert line[:4] == ["0", str(seed), "12", "12"] and line[-1] == "0"
    assert int(line[-2]) == max(steps)
    assert Path(f"{stem}.track.txt").read_text().startswith(
        f"$ quadtangents track --scene {stem}.scene.json --seed {seed} ")


@pytest.mark.parametrize("kind, lines, bound, at_infinity",
                         [("quadric", 24, 32, 8), ("line", 12, 16, 4)])
def test_gate_runs_a_mix_scene_through_track(tmp_path, monkeypatch, kind, lines, bound,
                                             at_infinity):
    # three spheres and a quadric or a line: the tracker's root bound
    # overstates the finite count, and every other path ends at infinity
    gate = load_gate()
    monkeypatch.chdir(tmp_path)
    scene, seed = gate.mix_scene(kind, 0)
    assert [len(scene["quadrics"]), len(scene["flats"])] == ([4, 0] if kind == "quadric"
                                                             else [3, 1])
    assert gate.scene_set(f"mix-{kind}", "mix scene 0", [(0, scene, seed)]) == [0]
    cert = json.loads(Path(f"mix-{kind}/scene-0-seed-{seed}.cert.json").read_text())
    assert cert["metadata"]["start_policy"] == ("tetra" if kind == "quadric" else "total-degree")
    assert (cert["counts"]["total"], cert["metadata"]["root_bound"]) == (lines, bound)
    assert cert["metadata"]["paths"]["at_infinity"] == at_infinity
    summary = Path(f"mix-{kind}/summary.txt").read_text().splitlines()
    assert summary[-2].startswith("# 0 of 1 runs complete, 1 lose lines (1 of them exit 0)")


def test_gate_refuses_an_outdir_that_holds_files(tmp_path):
    (tmp_path / "stale.txt").write_text("from an earlier run\n")
    for argv in ([ROOT, tmp_path], [ROOT, ROOT, tmp_path]):
        done = subprocess.run([sys.executable, GATE, *argv], capture_output=True, text=True)
        assert done.returncode == 2 and "is not empty" in done.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["stale.txt"]
