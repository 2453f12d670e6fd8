"""The gate harness, `tools/gate.py`: its runner on one scene, and its
refusal of an OUTDIR that holds files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
    assert gate.scene_set("sweep", "sweep scene 0", [(0, matrices, seed)]) == [0]
    cert = json.loads(Path("sweep/scene-0.cert.json").read_text())
    assert cert["counts"]["total"] == 12 and cert["metadata"]["root_bound"] == 12
    assert cli.main(["verify", "sweep/scene-0.cert.json",
                     "--scene", "sweep/scene-0.scene.json"]) == 0
    steps = [json.loads(line)["steps"]
             for line in Path("sweep/scene-0.paths.jsonl").read_text().splitlines()]
    line = Path("sweep/summary.txt").read_text().splitlines()[2].split()
    assert line[:4] == ["0", str(seed), "12", "12"] and line[-1] == "0"
    assert int(line[-2]) == max(steps)
    assert Path("sweep/scene-0.track.txt").read_text().startswith(
        f"$ quadtangents track --scene sweep/scene-0.scene.json --seed {seed} ")


def test_gate_refuses_an_outdir_that_holds_files(tmp_path):
    (tmp_path / "stale.txt").write_text("from an earlier run\n")
    for argv in ([ROOT, tmp_path], [ROOT, ROOT, tmp_path]):
        done = subprocess.run([sys.executable, GATE, *argv], capture_output=True, text=True)
        assert done.returncode == 2 and "is not empty" in done.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["stale.txt"]
