"""Every demo script runs to completion against the current sources, and the
commands and the tracking demo run without scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def source_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=source_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


# runs the commands and the tracking demo with every scipy import failing
WITHOUT_SCIPY = """
import json, runpy, sys
from importlib.abc import MetaPathFinder


class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
from quadtangents.cli import main

assert main(["tetra", "1/10", "1/20", "--output", "tetra.json"]) == 0
assert main(["verify", "tetra.json"]) == 0
with open("scene.json", "w") as fh:
    json.dump(json.load(open("tetra.json"))["scene"], fh)
assert main(["track", "--scene", "scene.json", "--output", "track.json"]) == 0
assert main(["verify", "track.json", "--scene", "scene.json"]) == 0
assert main(["doubling", "--auto", "--output", "doubling.txt"]) == 0
runpy.run_path(sys.argv[1], run_name="__main__")
assert "scipy" not in sys.modules
"""


def test_commands_run_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY,
                           str(ROOT / "demos" / "tracking.py")],
                          cwd=tmp_path, env=source_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
