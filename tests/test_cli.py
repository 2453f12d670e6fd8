import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtangents import cli, exactnum, quadrics, tetra32, tracker
from quadtangents.cli import CSV_COLUMNS, build_parser, main
from quadtangents.exactnum import RatMatrix
from quadtangents.grassmann import DISTINCT_TOL, chordal_distance
from quadtangents.quadrics import LineConditions, Quadric, cylinder
from quadtangents.scenes import (
    Scene,
    SceneFormatError,
    certificate,
    decode_complex,
    decode_plucker_numeric,
    decode_rational,
    encode_complex,
    encode_plucker_numeric,
    encode_rational,
    scene_hash,
    solution_residuals,
    verify_certificate,
    write_json,
)
from quadtangents.tetra32 import TetraParams, family
from quadtangents.tracker import regular_tetrahedron_lines
from test_demos import source_env
from test_tracker import MIRROR_SPHERES, SPHERE_SCENES, sphere


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- counts -------------------------------------------------------------------


def test_counts_single(capsys):
    code, out, _ = run(capsys, "counts", "1", "3")
    assert code == 0 and out.strip() == "dim=4 degree=2 total=32"
    code, out, _ = run(capsys, "counts", "1", "3", "--format", "json")
    assert code == 0 and json.loads(out) == [
        {"k": 1, "n": 3, "dim": 4, "degree": 2, "total": 32}]


def test_counts_large(capsys):
    code, out, _ = run(capsys, "counts", "1", "9")
    assert code == 0 and "total=93716480" in out


def test_counts_table_row(capsys):
    code, out, _ = run(capsys, "counts", "--table", "1", "3..9")
    assert code == 0
    lines = out.strip().splitlines()
    totals = lines[-1].split()[1:]
    assert totals == ["32", "320", "3584", "43008", "540672", "7028736",
                      "93716480"]
    spheres = lines[1].split()[1:]
    assert spheres == ["12", "24", "48", "96", "192", "384", "768"]
    code, out, err = run(capsys, "counts", "1", "9..3", "--table")
    assert code == 3 and out == "" and "empty range 9..3" in err


def test_counts_table_defaults_to_the_smallest_valid_n(capsys):
    # the seven smallest n with k <= n - 2
    code, out, _ = run(capsys, "counts", "2", "--table")
    assert code == 0
    assert out.splitlines()[0].split()[1:] == [str(n) for n in range(4, 11)]


@pytest.mark.parametrize("argv", [["tetra", "1/10", "1/20"],
                                  ["counts", "--table", "--format", "json"]],
                         ids=["tetra", "counts"])
def test_closed_stdout_is_an_output_error(argv):
    # the pipe's read end is closed before the command writes anything
    read, write = os.pipe()
    os.close(read)
    with subprocess.Popen([sys.executable, "-m", "quadtangents", *argv], stdout=write,
                          stderr=subprocess.PIPE, text=True, env=source_env()) as proc:
        os.close(write)
        err = proc.stderr.read()
    assert proc.returncode == 3
    assert "output error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["tetra", "track", "verify"])
def test_a_directory_for_a_file_is_an_input_error(capsys, tmp_path, command):
    # a path that names a directory cannot be opened: exit 3, no traceback
    argv = {"tetra": ["tetra", "1/10", "1/20", "--output", str(tmp_path)],
            "track": ["track", "--scene", make_scene_file(tmp_path, "lines.json", edge_scene()),
                      "--path-log", str(tmp_path)],
            "verify": ["verify", str(tmp_path)]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 3 and err.startswith("input error: ")


def test_counts_table_json(capsys):
    code, out, _ = run(capsys, "counts", "--table", "--format", "json")
    rows = json.loads(out)
    assert [r["total"] for r in rows][:2] == [32, 320]


@pytest.mark.parametrize("argv", [
    ["counts", "1", "3"],
    ["counts", "--table", "1", "3..5"],
    ["doubling", "--radii", "1/10,1/10,1/10,1/10", "--seed", "5"],
], ids=["counts", "counts-table", "doubling"])
def test_plain_text_goes_to_output_file(capsys, tmp_path, argv):
    code, printed, _ = run(capsys, *argv)
    assert code == 0 and printed
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == printed


# -- tetra --------------------------------------------------------------------


def test_tetra_certificate_json(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, "tetra", "1/10", "1/20", "--output", str(path))
    assert code == 0 and "32 real" in err
    cert = json.loads(path.read_text())
    assert cert["schema"] == "quadtangents.certificate.v1"
    assert cert["counts"] == {"total": 32, "real": 32, "nonreal": 0}
    assert len(cert["solutions"]) == 32
    assert all(s["residual"] < 1e-12 for s in cert["solutions"])
    assert cert["params"] == {"alpha": "1/10", "beta": "1/20"}
    assert cert["scene_hash"].startswith("sha256:")


def test_tetra_accepts_decimal_parameters(capsys):
    code, out, _ = run(capsys, "tetra", "--alpha", "0.1", "--beta", "0.05")
    cert = json.loads(out)
    assert cert["params"] == {"alpha": "1/10", "beta": "1/20"}


def test_tetra_csv_columns(capsys):
    code, out, _ = run(capsys, "tetra", "1/5", "1/5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 33
    reals = [line.split(",")[6] for line in lines[1:]]
    assert reals.count("true") == 16 and reals.count("false") == 16


def test_tetra_degenerate_exit_code(capsys):
    code, _, err = run(capsys, "tetra", "--alpha", "1", "--beta", "1/10")
    assert code == 2 and "1-alpha^2" in err


def test_tetra_degenerate_discriminant(capsys):
    code, _, err = run(capsys, "tetra", "--alpha", "1/9", "--beta", "1/4")
    assert code == 2 and "16*alpha*beta" in err


def test_tetra_bad_rational_exit_code(capsys):
    code, _, err = run(capsys, "tetra", "--alpha", "x", "--beta", "1/10")
    assert code == 3


@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_tetra_parameter_given_twice_is_an_input_error(capsys, name):
    # the positional value must not be dropped in favour of the flag
    code, out, err = run(capsys, "tetra", "1/10", "1/20", f"--{name}", "1/5")
    assert code == 3 and out == ""
    assert f"{name} given both positionally and as --{name}" in err


def test_tetra_work_is_stacked(capsys, tmp_path, monkeypatch):
    # one tetra run: a square root per distinct radicand, one stacked residual
    # evaluation for all 32 checks, and wedge^2 Q once per quadric
    roots, tables, powers = [], [], []
    square_root, table = tetra32._square_root, quadrics.LineConditions.residual_table
    power = exactnum.exterior_power

    def counted_root(radicand):
        roots.append(radicand)
        return square_root(radicand)

    def counted_table(self, vectors):
        tables.append(len(vectors))
        return table(self, vectors)

    def counted_power(m, r):
        powers.append(r)
        return power(m, r)

    monkeypatch.setattr(tetra32, "_square_root", counted_root)
    monkeypatch.setattr(quadrics.LineConditions, "residual_table", counted_table)
    monkeypatch.setattr(quadrics, "exterior_power", counted_power)
    monkeypatch.setattr(exactnum, "exterior_power", counted_power)
    code, _, _ = run(capsys, "tetra", "1/10", "1/20", "--output", str(tmp_path / "c.json"))
    assert code == 0
    assert len(roots) == len(set(roots)) == 6
    assert tables == [32]
    assert powers == [2] * 4


@pytest.mark.parametrize("k", range(5, 13))
def test_tetra_certifies_beta_far_below_alpha(capsys, tmp_path, k):
    # beta = 10^-k << alpha: case 3's small root keeps its digits
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "tetra", "1/10", f"1/{10 ** k}", "--output", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("alpha, beta, issue", [
    # beta = 10^-16: p01 and p03 are about 1e-8, so lines that differ only
    # in their signs are closer than DISTINCT_TOL and coincide
    ("1/10", "1/10000000000000000", "solution 6: coincides with solution 0"),
    # discriminant -7.6e-16: case 3's two roots are one to 8 digits
    ("0.171572875253810", "0.171572875253810", "solution 24: coincides with solution 16")])
def test_tetra_exits_4_on_a_certificate_verify_rejects(capsys, tmp_path, alpha, beta, issue):
    cert_path = tmp_path / "cert.json"
    code, _, err = run(capsys, "tetra", alpha, beta, "--output", str(cert_path))
    assert code == 4 and cert_path.exists()
    named = err.splitlines()[1:]  # after the summary line
    assert issue in err and named
    code, out, _ = run(capsys, "verify", str(cert_path))
    # `tetra` names each issue as `verify` does; `verify` adds the recorded
    # residuals, which `tetra` records as the largest row
    assert code == 4 and set(f"  {line}" for line in named) <= set(out.splitlines())


def quiet(*argv) -> tuple[int, str]:
    """Exit code and stderr of one command, its stdout discarded (capsys is
    per test, not per hypothesis example)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(list(argv)), err.getvalue()


def near_discriminant_zero(alpha: F, digits: int) -> F:
    """The beta, to ``digits`` significant digits, that puts (alpha, beta)
    on the discriminant's zero below the reality bound."""
    a = float(alpha)
    c = (1 - a) ** 2
    middle = c + 8 * a
    return F(f"{(middle - math.sqrt(middle ** 2 - c * c)) / c:.{digits}g}")


TINY_PARAMS = st.tuples(st.builds(F, st.integers(1, 9), st.just(10)),
                        st.builds(F, st.integers(1, 9), st.integers(1, 20).map(lambda k: 10 ** k)))
NEAR_DISCRIMINANT_ZERO = st.builds(
    lambda alpha, digits: (alpha, near_discriminant_zero(alpha, digits)),
    st.builds(F, st.integers(1, 171), st.just(1000)), st.integers(6, 16))


@settings(max_examples=40, deadline=None)
@given(st.one_of(TINY_PARAMS, NEAR_DISCRIMINANT_ZERO,
                 NEAR_DISCRIMINANT_ZERO.map(lambda ab: ab[::-1])))
def test_tetra_exits_0_only_on_a_certificate_verify_passes(tmp_path_factory, params):
    cert_path = tmp_path_factory.mktemp("tetra") / "cert.json"
    code, _ = quiet("tetra", *map(str, params), "--output", str(cert_path))
    if code == 0:
        assert quiet("verify", str(cert_path))[0] == 0


# -- track --------------------------------------------------------------------


def make_scene_file(tmp_path, name, scene):
    path = tmp_path / name
    write_json(str(path), scene.to_dict())
    return str(path)


def test_track_tetra_scene_matches_tetra_command(capsys, tmp_path):
    scene = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 10)))))
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    code, out, _ = run(capsys, "track", "--scene", scene_path, "--seed", "4")
    assert code == 0
    cert = json.loads(out)
    assert cert["counts"]["total"] == 32 and cert["counts"]["real"] == 32
    assert cert["metadata"]["start_policy"] == "tetra"
    assert all(s["residual"] < 1e-10 for s in cert["solutions"])


def test_track_lines_only_scene(capsys, tmp_path):
    lines = [ln.to_projective() for ln in regular_tetrahedron_lines()]
    scene = Scene(3, flats=[(f"L{i}", ln) for i, ln in enumerate(lines, 1)])
    scene_path = make_scene_file(tmp_path, "lines.json", scene)
    code, out, _ = run(capsys, "track", "--scene", scene_path)
    cert = json.loads(out)
    assert code == 0 and cert["counts"]["total"] == 2
    assert cert["metadata"]["start_policy"] == "pencil"
    assert cert["metadata"]["root_bound"] == 2
    certificate_validator().validate(cert)


def test_track_mixed_cylinder_scene(capsys, tmp_path):
    lines = regular_tetrahedron_lines()
    proj = [ln.to_projective() for ln in lines]
    scene = Scene(
        3,
        quadrics=[
            cylinder(lines[0], F(1, 10)),  # unlabeled: Scene assigns Q1, Q2
            cylinder(lines[1], F(1, 10)),
        ],
        flats=[("L3", proj[2]), ("L4", proj[3])],
    )
    scene_path = make_scene_file(tmp_path, "mixed.json", scene)
    code, out, _ = run(capsys, "track", "--scene", scene_path)
    cert = json.loads(out)
    assert code == 0
    assert cert["counts"] == {"total": 8, "real": 8, "nonreal": 0}


def test_track_malformed_scene(capsys, tmp_path):
    scene = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 10))))[:3])
    scene_path = make_scene_file(tmp_path, "short.json", scene)
    code, _, err = run(capsys, "track", "--scene", scene_path)
    assert code == 3 and "4 conditions" in err


def test_a_quadric_of_rank_one_is_an_input_error(capsys, tmp_path):
    # wedge^2 Q = 0, so every line is tangent to Q1: `track` and `verify`
    # name its condition and exit 3 before any path is tracked
    others = list(family(TetraParams.of(F(1, 10), F(1, 10))))[1:]
    scene = Scene(3, quadrics=[Quadric(RatMatrix.diagonal([1, 0, 0, 0]))] + others)
    scene_path = make_scene_file(tmp_path, "rank1.json", scene)
    code, out, err = run(capsys, "track", "--scene", scene_path)
    assert code == 3 and out == "" and "tangency_Q1 holds on every line" in err
    cert_path = tmp_path / "cert.json"
    write_json(str(cert_path), certificate(scene, [np.ones(6)], [True],
                                           [{"tangency_Q1": 0.0}], None, extras=[{}]))
    code, _, err = run(capsys, "verify", str(cert_path), "--scene", scene_path)
    assert code == 3 and "tangency_Q1 holds on every line" in err


def test_track_path_log_jsonl(capsys, tmp_path):
    lines = [ln.to_projective() for ln in regular_tetrahedron_lines()]
    scene = Scene(3, flats=[(f"L{i}", ln) for i, ln in enumerate(lines, 1)])
    scene_path = make_scene_file(tmp_path, "lines.json", scene)
    log_path = tmp_path / "paths.jsonl"
    code, _, _ = run(capsys, "track", "--scene", scene_path,
                     "--path-log", str(log_path))
    assert code == 0
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(records) == 2
    for rec in records:
        assert rec["status"] == "converged"
        assert isinstance(rec["steps"], int)
        assert len(rec["endpoint"]) == 6


def edge_scene() -> Scene:
    """Incidence with four edge lines of the regular tetrahedron: two paths."""
    lines = [ln.to_projective() for ln in regular_tetrahedron_lines()]
    return Scene(3, flats=[(f"L{i}", ln) for i, ln in enumerate(lines, 1)])


def test_track_path_log_lines_are_tracked_path_records(capsys, tmp_path):
    # each line is the path's index, then its record's fields in order
    scene_path = make_scene_file(tmp_path, "lines.json", edge_scene())
    log_path = tmp_path / "paths.jsonl"
    code, _, _ = run(capsys, "track", "--scene", scene_path, "--path-log", str(log_path))
    keys = ["index", *(f.name for f in dataclasses.fields(tracker.TrackedPath))]
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert code == 0 and len(records) == 2
    assert all(list(rec) == keys for rec in records)


def test_track_path_log_counts_solves(capsys, tmp_path):
    scene = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 20)))))
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    log_path = tmp_path / "paths.jsonl"
    code, _, _ = run(capsys, "track", "--scene", scene_path,
                     "--path-log", str(log_path))
    assert code == 0
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(records) == 32
    for rec in records:
        # at least one RK4 step (4 solves) and one corrector solve per step
        assert isinstance(rec["solves"], int) and rec["solves"] >= 5 * rec["steps"]
        if rec["status"] == "converged":
            assert rec["cond"] is not None and math.isfinite(rec["cond"])


def test_track_compiles_the_scene_once(capsys, tmp_path, monkeypatch):
    compiled = []
    compile_ = LineConditions.compile.__func__

    def counted(cls, conditions):
        conditions = list(conditions)
        compiled.append([label for label, _ in conditions])
        return compile_(cls, conditions)

    monkeypatch.setattr(LineConditions, "compile", classmethod(counted))
    # a process's first track builds its start, from uncompiled start params
    tracker.tetra_start.cache_clear()
    start = tracker.START_PARAMS
    monkeypatch.setattr(tracker, "START_PARAMS", TetraParams(start.alpha, start.beta))
    scene = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 20)))))
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    for _ in range(2):
        code, _, _ = run(capsys, "track", "--scene", scene_path)
        assert code == 0
    tracker.tetra_start.cache_clear()  # not to keep the replaced params' start
    # the scene once per track (tracker target and certificate residuals
    # share it), and the closed-form start system once per process
    labels = ["tangency_Q1", "tangency_Q2", "tangency_Q3", "tangency_Q4"]
    assert compiled == [labels, labels, labels]


def test_track_deterministic_output(capsys, tmp_path):
    scene = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 10)))))
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    _, out1, _ = run(capsys, "track", "--scene", scene_path, "--seed", "9")
    _, out2, _ = run(capsys, "track", "--scene", scene_path, "--seed", "9")
    assert out1 == out2


def track_four_spheres(monkeypatch):
    """Make `track` solve its scene by tracking from the tetra start, as
    ``tracker.solve_tangency`` does when elimination falls back: the
    tracker's own result, whose lost paths the exit rule must catch."""
    def tracked(conditions, seed=0):
        paths = tracker.track(*tracker.tetra_start(), conditions, seed)
        return tracker.TrackResult(conditions, paths, "tetra")

    monkeypatch.setattr(cli, "solve_tangency", tracked)


def test_track_exits_4_on_a_nonreal_line_without_its_conjugate(capsys, tmp_path, monkeypatch):
    # test_finite_paths_decaying_like_infinite_ones_are_kept's spheres moved by
    # (100, 100, 0), tracked: 11 lines, one of them nonreal and missing its
    # conjugate
    track_four_spheres(monkeypatch)
    spheres = [((26, 40, -4), 57), ((13, 14, -50), 35),
               ((64, -27, 30), 26), ((11, 52, -27), 58)]
    scene = Scene(3, quadrics=[sphere((x + 3200, y + 3200, z), r)
                               for (x, y, z), r in spheres])
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    cert_path = tmp_path / "cert.json"
    code, _, err = run(capsys, "track", "--scene", scene_path, "--seed", "1548815776",
                       "--output", str(cert_path))
    named = re.findall(r"solution \d+: nonreal, with no conjugate solution", err)
    assert code == 4 and named
    assert json.loads(cert_path.read_text())["counts"]["total"] == 11
    code, out, _ = run(capsys, "verify", str(cert_path), "--scene", scene_path)
    assert code == 4
    assert re.findall(r"solution \d+: nonreal, with no conjugate solution", out) == named


def scaled_quadric_scene(stream: str, factor: F) -> Scene:
    """Four rational criterion-8 draws (entries k/1000 in [-1, 1]) from
    ``random.Random(stream)``, with Q1 scaled by ``factor``."""
    rng = random.Random(stream)
    matrices = []
    for _ in range(4):
        m = [[F(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                m[i][j] = m[j][i] = F(rng.randint(-1000, 1000), 1000)
        matrices.append(m)
    matrices[0] = [[factor * x for x in row] for row in matrices[0]]
    return Scene(3, quadrics=[Quadric(RatMatrix.from_rows(m)) for m in matrices])


@pytest.mark.parametrize("factor", [F(1000), F(1, 1000)], ids=["times-1000", "over-1000"])
def test_track_certifies_a_scene_with_a_scaled_quadric(capsys, tmp_path, factor):
    # whether an endpoint converges is decided by the residual that `verify`
    # bounds, which does not depend on a quadric's scale; a residual that
    # scales with Q1 ends paths diverged when Q1 is scaled up, and passes
    # endpoints that `verify` rejects when it is scaled down
    scene_path = make_scene_file(tmp_path, "scene.json",
                                 scaled_quadric_scene("quadric/scaled", factor))
    cert_path, log_path = tmp_path / "cert.json", tmp_path / "paths.jsonl"
    code, _, _ = run(capsys, "track", "--scene", scene_path, "--seed", "3",
                     "--output", str(cert_path), "--path-log", str(log_path))
    paths = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert code == 0 and [p["status"] for p in paths] == ["converged"] * 32
    assert json.loads(cert_path.read_text())["counts"]["total"] == 32
    code, out, _ = run(capsys, "verify", str(cert_path), "--scene", scene_path)
    assert code == 0 and out.startswith("PASS")


def test_track_ends_a_path_out_of_budget_diverged(capsys, tmp_path, monkeypatch):
    # Q1 scaled by 10^4: with no budget `track` had not returned after 120 s,
    # and with the full one it takes MAX_STEPS lockstep rounds; at 100 steps,
    # 9 paths converge and 23 are out of budget
    monkeypatch.setattr(tracker, "MAX_STEPS", 100)
    scene_path = make_scene_file(tmp_path, "scene.json",
                                 scaled_quadric_scene("quadric/scaled", F(10**4)))
    log_path = tmp_path / "paths.jsonl"
    code, _, _ = run(capsys, "track", "--scene", scene_path, "--seed", "3",
                     "--output", str(tmp_path / "cert.json"), "--path-log", str(log_path))
    paths = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(paths) == 32 and max(p["steps"] for p in paths) == 100
    lost = [p["status"] for p in paths if p["endpoint"] is None]
    assert lost and lost == ["diverged"] * len(lost) and len(lost) < 32
    # the converged paths' lines lack their conjugates: `verify`'s rule says so
    assert code == 4


@pytest.mark.parametrize("scene_name", ["long-finite-path", "budget"])
def test_track_path_log_counts_match_the_certificate(capsys, tmp_path, monkeypatch,
                                                     scene_name):
    # a sphere scene is eliminated into 12 converged paths of no step, and
    # the x10^4 scene at 100 steps ends paths out of budget: the path log,
    # the certificate's metadata.paths and the stderr line count the same
    # paths, and none that ended short of t = 1 has an endpoint
    if scene_name == "budget":
        monkeypatch.setattr(tracker, "MAX_STEPS", 100)
        seed, scene = 3, scaled_quadric_scene("quadric/scaled", F(10**4))
    else:
        seed, spheres = SPHERE_SCENES[scene_name]
        scene = Scene(3, quadrics=[sphere(c, r) for c, r in spheres])
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    cert_path, log_path = tmp_path / "cert.json", tmp_path / "paths.jsonl"
    _, _, err = run(capsys, "track", "--scene", scene_path, "--seed", str(seed),
                    "--output", str(cert_path), "--path-log", str(log_path))
    paths = [json.loads(line) for line in log_path.read_text().splitlines()]
    status = Counter(p["status"] for p in paths)
    assert json.loads(cert_path.read_text())["metadata"]["paths"] == {
        "total": len(paths), "converged": status["converged"],
        "diverged": status["diverged"], "at_infinity": status["at-infinity"],
        "suspected_jumps": status["path-jump-suspected"]}
    line = re.search(r"(\d+) certified endpoints of (\d+) paths, \d+ real, "
                     r"(\d+) at infinity", err)
    assert [int(n) for n in line.groups()] == [
        status["converged"], len(paths), status["at-infinity"]]
    ended = [p for p in paths if p["status"] == "at-infinity"
             or (p["status"] == "diverged" and p["steps"] == tracker.MAX_STEPS)]
    assert all(p["endpoint"] is None for p in ended)
    if scene_name == "budget":
        assert ended and status["diverged"] == len(ended)
    else:
        assert status == {"converged": 12} and {p["steps"] for p in paths} == {0}


def test_track_exits_4_on_a_suspected_path_jump(capsys, tmp_path):
    # path 7 ends on path 5's line, and so does its cluster retrack: the
    # certificate lists 31 of the scene's 32 lines, and `verify` cannot
    # tell that one is missing
    scene = scaled_quadric_scene("scaled/quadric/4", F(1, 1000))
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    cert_path = tmp_path / "cert.json"
    code, _, err = run(capsys, "track", "--scene", scene_path, "--seed", "251779371",
                       "--output", str(cert_path))
    assert code == 4 and "path 7: suspected jump onto path 5" in err
    cert = json.loads(cert_path.read_text())
    assert cert["counts"]["total"] == 31
    assert cert["metadata"]["paths"]["suspected_jumps"] == 1


def test_path_log_names_the_path_a_suspected_jump_reached(capsys, tmp_path):
    # the scene of test_track_exits_4_on_a_suspected_path_jump: path 7, the
    # path stderr names, duplicates path 5, and no other path duplicates one
    scene = scaled_quadric_scene("scaled/quadric/4", F(1, 1000))
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    log_path = tmp_path / "paths.jsonl"
    code, _, err = run(capsys, "track", "--scene", scene_path, "--seed", "251779371",
                       "--output", str(tmp_path / "cert.json"), "--path-log", str(log_path))
    paths = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert code == 4 and "path 7: suspected jump onto path 5" in err
    assert [p["duplicate_of"] for p in paths] == [None] * 7 + [5] + [None] * 24


def track_and_verify(capsys, tmp_path, scene: Scene, seed: int) -> tuple[int, str, int, str]:
    """`track`'s exit code and stderr on ``scene``, then `verify --scene`'s
    exit code and stdout on the certificate it wrote."""
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    cert_path = tmp_path / "cert.json"
    code, _, err = run(capsys, "track", "--scene", scene_path, "--seed", str(seed),
                       "--output", str(cert_path))
    verified, out, _ = run(capsys, "verify", str(cert_path), "--scene", scene_path)
    return code, err, verified, out


# sphere scenes that lose a path after all 12 lines are certified, with
# their program seeds (perfbench's sphere-scenes ops 180 of stream seed-20
# and 241 of seed-11), and the stderr line that names the path
LOST_AT_THE_ROOT_BOUND = {
    "jump": (1867869705, [((11, -4, -59), 52), ((-12, -21, -10), 58),
                          ((55, 56, 57), 24), ((43, -2, -31), 32)],
             "path 24: suspected jump onto path 8"),
    "diverged": (1227687264, [((64, 4, 32), 55), ((-58, 54, 37), 56),
                              ((30, 9, 44), 63), ((-63, 47, 48), 46)],
                 "path 14: diverged after 112 steps"),
}


@pytest.mark.parametrize("name", LOST_AT_THE_ROOT_BOUND)
def test_track_passes_a_lost_path_once_the_root_bound_is_reached(capsys, tmp_path,
                                                                monkeypatch, name):
    # tracked, the path is named, but a run that holds its root bound of
    # lines can have lost none of them
    track_four_spheres(monkeypatch)
    seed, spheres, named = LOST_AT_THE_ROOT_BOUND[name]
    scene = Scene(3, quadrics=[sphere(c, r) for c, r in spheres])
    code, err, verified, out = track_and_verify(capsys, tmp_path, scene, seed)
    assert code == 0 and named in err.splitlines()
    assert err.startswith("12 certified endpoints of 32 paths")
    assert verified == 0 and out.startswith("PASS")


@pytest.mark.parametrize("stream, seed", [("scaled/quadric/4", 9), ("scaled/quadric/7", 3),
                                          ("scaled/quadric/7", 4), ("sweep/4", 2)])
def test_track_fails_a_run_whose_lost_paths_took_lines(capsys, tmp_path, monkeypatch,
                                                      stream, seed):
    # Q1 scaled by 10^-6: two paths of a quadric scene (one of sweep sphere
    # scene 4, tracked) end diverged, and no nonreal line is left without
    # its conjugate, so only the path tally shows that lines are missing
    if stream == "sweep/4":
        track_four_spheres(monkeypatch)
        q1, *others = [sphere(c, r) for c, r in [((-35, 45, 26), 45), ((43, -31, 41), 47),
                                                 ((4, -25, -2), 40), ((5, 2, 7), 21)]]
        scene = Scene(3, quadrics=[Quadric(q1.matrix.scaled(F(1, 10**6))), *others])
    else:
        scene = scaled_quadric_scene(stream, F(1, 10**6))
    code, err, verified, out = track_and_verify(capsys, tmp_path, scene, seed)
    lost = 1 if stream == "sweep/4" else 2
    bound = scene.conditions.root_bound
    issue = f"{bound - lost} of root bound {bound} lines listed, {lost} path(s) lost"
    assert len(re.findall(r"path \d+: diverged after \d+ steps", err)) == lost
    assert code == 4 and err.splitlines()[-1] == issue
    assert verified == 4 and out.splitlines() == ["FAIL (1 issue(s))", f"  {issue}"]


@pytest.mark.parametrize("factor", [F(10**6), F(1, 10**6)], ids=["times-1e6", "over-1e6"])
def test_track_lists_every_line_of_four_spheres_with_a_scaled_sphere(capsys, tmp_path,
                                                                     factor):
    # sweep sphere scene 2 with Q1 scaled: the scale reaches no centre or
    # radius, and all 12 lines are listed (tracked at x 10^-6 and seed 3, it
    # listed a 13th, at infinity; at x 10^6 its paths crawled)
    q1, *others = [sphere(c, r) for c, r in SPHERE_SCENES["plain-2"][1]]
    scene = Scene(3, quadrics=[Quadric(q1.matrix.scaled(factor)), *others])
    code, err, verified, out = track_and_verify(capsys, tmp_path, scene, 3)
    assert code == 0 and err.startswith("12 certified endpoints of 12 paths")
    assert verified == 0 and out.startswith("PASS")


def test_track_says_when_four_spheres_fall_back_to_tracking(capsys, tmp_path):
    # coplanar centres: det C = 0, so the scene is tracked from the tetra start
    spheres = [((33, -38, 0), 52), ((-1, -61, 0), 62), ((-9, 40, 0), 33),
               ((-18, 35, 0), 26)]
    scene = Scene(3, quadrics=[sphere(c, r) for c, r in spheres])
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    code, out, err = run(capsys, "track", "--scene", scene_path, "--seed", "3")
    assert code == 0
    assert err.splitlines()[0] == "four spheres tracked from the tetra start: coplanar centres"
    cert = json.loads(out)
    assert cert["metadata"]["start_policy"] == "tetra" and cert["counts"]["total"] == 12
    assert cert["metadata"]["paths"]["total"] == 32


def test_track_exits_4_on_the_mirror_coplanar_scene(capsys, tmp_path):
    # tracked from the tetra start, 6 paths diverge and 8 lines are listed
    # of root bound 12; every start tried lists the same 8
    # (test_mirror_coplanar_scene_has_the_same_eight_lines_from_every_start),
    # so the exit most likely reads the generic bound, not a lost line
    scene = Scene(3, quadrics=[sphere(c, r) for c, r in MIRROR_SPHERES])
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    code, out, err = run(capsys, "track", "--scene", scene_path, "--seed", "3")
    err = err.splitlines()
    assert code == 4 and json.loads(out)["counts"] == {"total": 8, "real": 8, "nonreal": 0}
    assert err[:2] == ["four spheres tracked from the tetra start: coplanar centres",
                       "8 certified endpoints of 32 paths, 8 real, 18 at infinity"]
    assert len(re.findall(r"path \d+: diverged after \d+ steps", "\n".join(err))) == 6
    assert err[-1] == "8 of root bound 12 lines listed, 6 path(s) lost"


def zero_leading_coefficient(monkeypatch):
    """The resultant's x^12 coefficient is exactly 0: np.roots gives 11 roots."""
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda p: roots(np.concatenate([[0.0], p[1:]])))


def on_the_elimination_polish(change):
    """Wrap ``tracker._polish`` so that ``change(x, residual)`` acts on what
    its call from ``_eliminate``'s ``_settle`` leaves, and on no other call
    (``_split`` settles its lines through ``_settle`` too)."""
    def wrap(monkeypatch):
        polish = tracker._polish

        def wrapped(h, x, *args):
            residual, cond = polish(h, x, *args)
            if sys._getframe(2).f_code is tracker._eliminate.__code__:
                change(x, residual)
            return residual, cond

        monkeypatch.setattr(tracker, "_polish", wrapped)
    return wrap


def miss_one(x, residual):
    residual[0] = 1.0


def repeat_one(x, residual):
    x[0] = x[1]


@pytest.mark.parametrize("force, fallback", [
    (zero_leading_coefficient, "resultant of degree below 12"),
    (on_the_elimination_polish(miss_one), "a polish missed"),
    (on_the_elimination_polish(repeat_one), "fewer than 12 distinct lines"),
], ids=["degree", "polish", "distinct"])
def test_each_elimination_fallback_tracks_the_twelve_lines(capsys, tmp_path, monkeypatch,
                                                           force, fallback):
    seed, spheres = SPHERE_SCENES["plain"]
    scene = Scene(3, quadrics=[sphere(c, r) for c, r in spheres])
    tracked = tracker.TrackResult(scene.conditions, tracker.track(
        *tracker.tetra_start(), scene.conditions, seed), "tetra")
    force(monkeypatch)
    res = tracker.solve_tangency(scene.conditions, seed)
    assert (res.start_policy, res.fallback) == ("tetra", fallback)
    assert len(res.endpoints) == 12
    assert np.array_equal(res.endpoints, tracked.endpoints)
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    code, out, err = run(capsys, "track", "--scene", scene_path, "--seed", str(seed))
    assert code == 0
    assert err.splitlines()[0] == f"four spheres tracked from the tetra start: {fallback}"
    assert json.loads(out)["counts"]["total"] == 12


def test_track_writes_the_same_sphere_certificate_for_the_same_seed(capsys, tmp_path):
    seed, spheres = SPHERE_SCENES["plain"]
    scene_path = make_scene_file(tmp_path, "scene.json",
                                 Scene(3, quadrics=[sphere(c, r) for c, r in spheres]))
    written = []
    for k in range(2):
        cert_path = tmp_path / f"cert-{k}.json"
        code, _, _ = run(capsys, "track", "--scene", scene_path, "--seed", str(seed),
                         "--output", str(cert_path))
        assert code == 0
        written.append(cert_path.read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["metadata"]["start_policy"] == "elimination"


# -- verify -------------------------------------------------------------------


def test_verify_round_trip(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", "1/10", "1/10", "--output", str(cert_path))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0 and out.startswith("PASS")


def test_verify_detects_tampered_coordinate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", "1/10", "1/10", "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    coords = cert["solutions"][3]["plucker"]["coords"]
    value = coords["01"]
    coords["01"] = (value + 1e-3) if isinstance(value, float) else [value[0] + 1e-3, value[1]]
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 4 and "solution 3" in out


def test_verify_detects_wrong_scene(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", "1/10", "1/10", "--output", str(cert_path))
    other = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 20)))))
    other_path = make_scene_file(tmp_path, "other.json", other)
    code, out, _ = run(capsys, "verify", str(cert_path), "--scene", other_path)
    assert code == 4 and "different scene" in out


def _forge_arbitrary_coordinates(cert):
    cert["solutions"][0]["plucker"]["coords"] = {
        key: 1.0 for key in ("01", "02", "03", "12", "13", "23")}
    cert["solutions"][0]["residual"] = 1.0


def _forge_trimmed(cert):
    cert["solutions"] = cert["solutions"][:1]
    cert["counts"] = {"total": 1, "real": 1, "nonreal": 0}


def _forge_repeated_solution(cert):
    cert["solutions"].append(dict(cert["solutions"][0], index=32))
    cert["counts"] = {"total": 33, "real": 33, "nonreal": 0}


def _forge_loose_tolerance(cert):
    cert["tolerances"]["residual"] = 1.0


def _forge_negative_tolerance(cert):
    cert["tolerances"]["residual"] = -1


def _forge_missing_tolerance(cert):
    del cert["tolerances"]["residual"]


def _forge_loose_real_tolerance(cert):
    cert["tolerances"]["real"] = 0.5


def _forge_loose_distinct_tolerance(cert):
    cert["tolerances"]["distinct"] = 1.0


def _forge_extra_tolerance(cert):
    cert["tolerances"]["angle"] = 1e-9


def _forge_no_tolerances(cert):
    cert["tolerances"] = {}


# every tolerances object but the one the program writes
FORGED_TOLERANCES = (_forge_loose_tolerance, _forge_negative_tolerance,
                     _forge_missing_tolerance, _forge_loose_real_tolerance,
                     _forge_loose_distinct_tolerance, _forge_extra_tolerance,
                     _forge_no_tolerances)


def _forge_nan_coordinates(cert):
    cert["solutions"][0]["plucker"]["coords"]["01"] = float("nan")


def _forge_infinite_imaginary_part(cert):
    cert["solutions"][0]["plucker"]["coords"]["01"] = [0.5, float("inf")]


def _forge_integer_past_float_range(cert):
    cert["solutions"][0]["plucker"]["coords"]["01"] = 10 ** 400


def _forge_nonreal_flagged_real(cert):
    # (1/5, 1/5) has 16 real and 16 nonreal lines: claim 32 real
    for sol in cert["solutions"]:
        sol["real"] = True
    cert["counts"].update(real=32, nonreal=0)


def _forge_nonreal_count(cert):
    cert["counts"]["nonreal"] = 1


def _forge_params(cert):
    # 32 real lines, claimed for a family member past the reality bound
    cert["params"] = {"alpha": "1/5", "beta": "1/5"}


def _forge_params_of_other_scene(cert):
    # another 32-real family member: the count agrees, the scene does not
    cert["params"] = {"alpha": "1/7", "beta": "1/9"}


def _forge_real_flag_as_string(cert):
    # a real line of (1/10, 1/20), flagged with a string a reader takes for
    # "nonreal"; the flag's truth value and the counts still agree
    cert["solutions"][3]["real"] = "no"


def _forge_nonreal_flag_as_number(cert):
    # a nonreal line of (1/5, 1/5), flagged 0 rather than false
    assert cert["solutions"][16]["real"] is False
    cert["solutions"][16]["real"] = 0


def _forge_unknown_count(cert):
    cert["counts"]["bogus"] = 7


def _forge_total_count_only(cert):
    cert["counts"] = {"total": 32}


def _forge_float_count(cert):
    cert["counts"]["real"] = 32.0


def _forge_bool_count(cert):
    # all 32 lines of (1/10, 1/20) are real, and False == 0
    cert["counts"]["nonreal"] = False


def _forge_residual_as_string(cert):
    cert["solutions"][0]["residual"] = "abc"


def _forge_null_residual(cert):
    cert["solutions"][0]["residual"] = None


def _forge_negative_residual(cert):
    cert["solutions"][0]["residual"] = -1.0


def _forge_loose_residual(cert):
    cert["solutions"][0]["residual"] = 5.0


def _forge_missing_residual(cert):
    del cert["solutions"][0]["residual"]


# every recorded residual but a number in [0, RESIDUAL_TOL]
FORGED_RESIDUALS = (_forge_residual_as_string, _forge_null_residual,
                    _forge_negative_residual, _forge_loose_residual,
                    _forge_missing_residual)


def _forge_index_of_another_solution(cert):
    cert["solutions"][0]["index"] = 7


def _forge_missing_index(cert):
    del cert["solutions"][0]["index"]


def _forge_null_scene_hash(cert):
    cert["scene_hash"] = None


def _forge_bool_coordinate(cert):
    # p13 of (1/10, 1/20)'s solution 0 is 1.0, and True == 1
    assert cert["solutions"][0]["plucker"]["coords"]["13"] == 1.0
    cert["solutions"][0]["plucker"]["coords"]["13"] = True


def _forge_lines_at_infinity(cert):
    # (0, 0, 0, 1, +-i, 0) lie in the plane at infinity, tangent to the
    # absolute conic, so they are tangent to every sphere with residual 0:
    # 14 lines, more than the 12 four spheres have
    for sign in (1, -1):
        cert["solutions"].append({
            "index": len(cert["solutions"]), "real": False, "residual": 0.0,
            "plucker": encode_plucker_numeric(np.array([0, 0, 0, 1, sign * 1j, 0]))})
    cert["counts"]["total"] += 2
    cert["counts"]["nonreal"] += 2


def _forge_line_in_p4(cert):
    cert["solutions"][3]["plucker"] = {"k": 1, "n": 4, "coords": {
        key: 1.0 for key in ("01", "02", "03", "04", "12", "13", "14", "23", "24", "34")}}


def _forge_point_in_p3(cert):
    cert["solutions"][3]["plucker"] = {"k": 0, "n": 3, "coords": {
        key: 1.0 for key in ("0", "1", "2", "3")}}


# the closed-form parameters each forgery starts from, if not (1/10, 1/20)
FORGED_AT = {_forge_nonreal_flagged_real: ("1/5", "1/5"),
             _forge_nonreal_flag_as_number: ("1/5", "1/5")}
# forgeries of a `track` certificate, by the SPHERE_SCENES scene they start from
FORGED_TRACK = {_forge_lines_at_infinity: "plain"}
# what `verify` reports of a forgery, where the test names it
FORGED_ISSUE = {_forge_line_in_p4: "solution 3: unreadable solution",
                _forge_point_in_p3: "solution 3: unreadable solution",
                _forge_real_flag_as_string: "solution 3: reality flag 'no'",
                _forge_nonreal_flag_as_number: "solution 16: reality flag 0",
                _forge_unknown_count: "unknown count 'bogus'",
                _forge_total_count_only: "counts.real is missing",
                _forge_float_count: "counts.real 32.0 is not an integer",
                _forge_bool_count: "counts.nonreal False is not an integer",
                _forge_residual_as_string: "solution 0: recorded residual 'abc'",
                _forge_null_residual: "solution 0: recorded residual None",
                _forge_negative_residual: "solution 0: recorded residual -1.0",
                _forge_loose_residual: "solution 0: recorded residual 5.0",
                _forge_missing_residual: "solution 0: recorded residual None",
                _forge_index_of_another_solution: "solution 0: index 7 is not its position 0",
                _forge_missing_index: "solution 0: index None is not its position 0",
                _forge_null_scene_hash: "scene hash does not match embedded scene",
                _forge_bool_coordinate: "solution 0: unreadable solution",
                _forge_nan_coordinates: "solution 0: unreadable solution",
                _forge_infinite_imaginary_part: "solution 0: unreadable solution",
                _forge_integer_past_float_range: "solution 0: unreadable solution",
                **{forge: "declared tolerances" for forge in FORGED_TOLERANCES}}


@pytest.mark.parametrize("forge", [
    _forge_arbitrary_coordinates, _forge_trimmed, _forge_repeated_solution,
    *FORGED_TOLERANCES, _forge_nan_coordinates, _forge_infinite_imaginary_part,
    _forge_integer_past_float_range, _forge_nonreal_flagged_real,
    _forge_nonreal_count, _forge_params, _forge_params_of_other_scene,
    _forge_lines_at_infinity, _forge_line_in_p4, _forge_point_in_p3,
    _forge_real_flag_as_string, _forge_nonreal_flag_as_number, _forge_unknown_count,
    _forge_total_count_only, _forge_float_count, _forge_bool_count,
    *FORGED_RESIDUALS, _forge_bool_coordinate, _forge_index_of_another_solution,
    _forge_missing_index, _forge_null_scene_hash])
def test_verify_rejects_forged_certificate(capsys, tmp_path, forge):
    cert_path = tmp_path / "cert.json"
    if forge in FORGED_TRACK:
        seed, spheres = SPHERE_SCENES[FORGED_TRACK[forge]]
        scene = Scene(3, quadrics=[sphere(c, r) for c, r in spheres])
        run(capsys, "track", "--scene", make_scene_file(tmp_path, "scene.json", scene),
            "--seed", str(seed), "--output", str(cert_path))
    else:
        run(capsys, "tetra", *FORGED_AT.get(forge, ("1/10", "1/20")),
            "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    forge(cert)
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 4 and out.startswith("FAIL")
    assert FORGED_ISSUE.get(forge, "") in out


def test_verify_reads_a_nan_coordinate_without_warnings(capsys, tmp_path):
    # json reads the literal NaN; verify reports the solution unreadable and
    # writes nothing on stderr (no numpy warning from normalizing it)
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", "1/10", "1/20", "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    _forge_nan_coordinates(cert)
    cert_path.write_text(json.dumps(cert))
    proc = subprocess.run([sys.executable, "-m", "quadtangents", "verify", str(cert_path)],
                          capture_output=True, text=True, env=source_env())
    assert proc.returncode == 4 and proc.stderr == ""
    assert "solution 0: unreadable solution" in proc.stdout


def test_verify_derives_reality_from_coordinates(capsys, tmp_path):
    # 16 real and 16 nonreal lines, with no closed-form params to compare
    # against: only the coordinates tell real from nonreal
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", "1/5", "1/5", "--output", str(cert_path))
    honest = json.loads(cert_path.read_text())
    honest["params"] = None
    assert sum(not s["real"] for s in honest["solutions"]) == 16

    def verify(cert):
        cert_path.write_text(json.dumps(cert))
        return run(capsys, "verify", str(cert_path))[:2]

    code, out = verify(honest)
    assert code == 0 and out.startswith("PASS")

    flipped = copy.deepcopy(honest)
    _forge_nonreal_flagged_real(flipped)
    code, out = verify(flipped)
    assert code == 4 and out.count("reality flag disagrees with the coordinates") == 16

    # drop the last nonreal line and the last real one: flags and counts
    # agree, but one nonreal line has lost its conjugate
    trimmed = copy.deepcopy(honest)
    last_real = max(i for i, s in enumerate(trimmed["solutions"]) if s["real"])
    del trimmed["solutions"][-1], trimmed["solutions"][last_real]
    trimmed["counts"] = {"total": 30, "real": 15, "nonreal": 15}
    code, out = verify(trimmed)
    assert code == 4 and "nonreal, with no conjugate solution" in out


@pytest.fixture(scope="module")
def certificates(tmp_path_factory) -> dict[str, dict]:
    """Four valid certificates, each written once per module: `tetra` on
    either side of the reality bound, and `track` on a random 4-quadric
    scene (scaled by 1) and on a 4-sphere scene."""
    tmp = tmp_path_factory.mktemp("certificates")
    seed, spheres = SPHERE_SCENES["plain"]
    scenes = {"track quadrics": (scaled_quadric_scene("quadric/scaled", F(1)), 3),
              "track spheres": (Scene(3, quadrics=[sphere(c, r) for c, r in spheres]), seed)}
    commands = {"tetra 1/10 1/20": ("tetra", "1/10", "1/20"),
                "tetra 1/5 1/5": ("tetra", "1/5", "1/5")}
    commands |= {name: ("track", "--scene", make_scene_file(tmp, f"{k}.json", scene),
                        "--seed", str(seed))
                 for k, (name, (scene, seed)) in enumerate(scenes.items())}
    certs = {}
    for k, (name, argv) in enumerate(commands.items()):
        path = tmp / f"{k}.cert.json"
        assert quiet(*argv, "--output", str(path))[0] == 0
        certs[name] = json.loads(path.read_text())
    return certs


def test_recorded_residual_is_the_one_verify_re_evaluates(certificates):
    # both producing commands record, per solution, the largest of the rows
    # `verify` re-evaluates at the written coordinates, to the bit
    for cert in certificates.values():
        scene = Scene.from_dict(cert["scene"])
        for sol in cert["solutions"]:
            (residuals,) = solution_residuals(
                scene, [decode_plucker_numeric(sol["plucker"])])
            assert sol["residual"].hex() == max(residuals.values()).hex()


# edits of a `track` certificate's metadata.paths, each of which `verify` rejects
PATH_TALLY_EDITS = {
    "count-as-string": lambda paths: paths.update(at_infinity=str(paths["at_infinity"])),
    "count-as-float": lambda paths: paths.update(at_infinity=float(paths["at_infinity"])),
    "count-as-boolean": lambda paths: paths.update(diverged=False),
    "counts-off-total": lambda paths: paths.update(at_infinity=paths["at_infinity"] + 1),
    "converged-off-lines": lambda paths: paths.update(converged=paths["converged"] - 1,
                                                      at_infinity=paths["at_infinity"] + 1),
    "key-missing": lambda paths: paths.pop("suspected_jumps"),
    "key-extra": lambda paths: paths.update(singular=0),
}


@pytest.mark.parametrize("edit", PATH_TALLY_EDITS)
def test_verify_rejects_an_edited_path_tally(certificates, edit):
    cert = copy.deepcopy(certificates["track spheres"])
    assert verify_certificate(cert).passed
    PATH_TALLY_EDITS[edit](cert["metadata"]["paths"])
    report = verify_certificate(json.loads(json.dumps(cert)))
    assert not report.passed
    assert [str(issue) for issue in report.issues] == [
        f"metadata.paths {cert['metadata']['paths']!r} is not a tally of 12 converged paths"]


def _forge_emptied_closed_form(cert):
    # no params, so no closed-form count, and no lines
    cert["params"], cert["solutions"] = None, []
    _renumber(cert)


def _forge_dropped_lines_and_tally(cert):
    del cert["solutions"][20:], cert["metadata"]
    _renumber(cert)


@pytest.mark.parametrize("forge, command, issue", [
    (_forge_emptied_closed_form, ("tetra", "1/10", "1/20"), "0 of root bound 32"),
    (_forge_dropped_lines_and_tally, ("track", "--seed", "0"), "20 of root bound 32")])
def test_verify_rejects_a_short_certificate_with_no_path_tally(capsys, tmp_path, forge,
                                                                command, issue):
    # short of the root bound, only a metadata.paths tally can account for
    # the missing lines; a certificate without one fails.  `track` runs on
    # the closed-form member's scene, and is verified against it
    cert_path = tmp_path / "cert.json"
    scene = []
    if command[0] == "track":
        scene = ["--scene", make_scene_file(tmp_path, "scene.json", Scene(
            3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 20))))))]
    assert run(capsys, *command, *scene, "--output", str(cert_path))[0] == 0
    assert run(capsys, "verify", str(cert_path), *scene)[0] == 0
    cert = json.loads(cert_path.read_text())
    forge(cert)
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path), *scene)
    assert code == 4 and out.splitlines()[1:] == [
        f"  {issue} lines listed, with no metadata.paths tally to account for the rest"]


# -- mutation test: one change at a time to a valid certificate


def _renumber(cert):
    """Indices and counts re-derived from the solutions, as the writer would."""
    for i, sol in enumerate(cert["solutions"]):
        sol["index"] = i
    real = sum(sol["real"] is True for sol in cert["solutions"])
    cert["counts"] = {"total": len(cert["solutions"]), "real": real,
                      "nonreal": len(cert["solutions"]) - real}


def _solution(cert, draw) -> dict:
    return cert["solutions"][draw(st.integers(0, len(cert["solutions"]) - 1))]


def _retype_flag(cert, draw):
    _solution(cert, draw)["real"] = draw(st.sampled_from([0, 1, 1.0, "true", None]))


def _flip_flag(cert, draw):
    sol = _solution(cert, draw)
    sol["real"] = not sol["real"]
    if draw(st.booleans()):
        _renumber(cert)


def _change_count(cert, draw):
    key = draw(st.sampled_from(sorted(cert["counts"])))
    cert["counts"][key] = draw(st.one_of(
        st.integers(-2, 40).filter(lambda n: n != cert["counts"][key]),
        st.just(float(cert["counts"][key])), st.just(str(cert["counts"][key]))))


def _add_count(cert, draw):
    cert["counts"][draw(st.sampled_from(["lines", "complex", "at_infinity"]))] = \
        draw(st.integers(0, 40))


def _drop_count(cert, draw):
    del cert["counts"][draw(st.sampled_from(sorted(cert["counts"])))]


def _drop(cert, draw, real: bool):
    lines = [sol for sol in cert["solutions"] if sol["real"] is real]
    if lines:  # else the mutant is the original
        cert["solutions"].remove(draw(st.sampled_from(lines)))
    if draw(st.booleans()):
        _renumber(cert)


def _drop_real_solution(cert, draw):
    _drop(cert, draw, True)


def _drop_nonreal_solution(cert, draw):
    _drop(cert, draw, False)


def _duplicate_solution(cert, draw):
    # inserted, or in place of another solution (which keeps the root bound)
    sol = copy.deepcopy(_solution(cert, draw))
    k = draw(st.integers(0, len(cert["solutions"]) - 1))
    if draw(st.booleans()):
        cert["solutions"].insert(k, sol)
    else:
        cert["solutions"][k] = sol
    if draw(st.booleans()):
        _renumber(cert)


def _conjugate_solution(cert, draw):
    sol = _solution(cert, draw)
    sol["plucker"] = encode_plucker_numeric(np.conj(decode_plucker_numeric(sol["plucker"])))


def _move_coordinate(cert, draw):
    coords = _solution(cert, draw)["plucker"]["coords"]
    key = draw(st.sampled_from(sorted(coords)))
    step = draw(st.sampled_from([1, -1, 1j, -1j])) * 10 ** draw(st.floats(-9, -3))
    coords[key] = encode_complex(decode_complex(coords[key]) + step)


def _loosen_tolerance(cert, draw):
    key = draw(st.sampled_from(sorted(cert["tolerances"])))
    cert["tolerances"][key] *= draw(st.floats(1.01, 1e6))


def _change_params(cert, draw):
    cert["params"] = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "alpha": st.builds(F, st.integers(1, 20), st.integers(21, 99)).map(str),
        "beta": st.builds(F, st.integers(1, 20), st.integers(21, 99)).map(str)})))


def _change_scene_entry(cert, draw):
    quadric = draw(st.sampled_from(cert["scene"]["quadrics"]))
    i, j = sorted(draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    step = F(draw(st.sampled_from([1, -1])), 10 ** draw(st.integers(0, 6)))
    value = encode_rational(decode_rational(quadric["matrix"][i][j]) + step)
    quadric["matrix"][i][j] = quadric["matrix"][j][i] = value
    if draw(st.booleans()):
        cert["scene_hash"] = scene_hash(cert["scene"])


MUTATIONS = (_retype_flag, _flip_flag, _change_count, _add_count, _drop_count,
             _drop_real_solution, _drop_nonreal_solution, _duplicate_solution,
             _conjugate_solution, _move_coordinate, _loosen_tolerance, _change_params,
             _change_scene_entry)
# the mutants that may pass and claim something else, by mutation and the
# command that wrote the certificate, with the reason
ALLOWED_SURVIVORS: dict = {}


def same_claim(original, mutant) -> bool:
    """Whether ``mutant`` names the lines of ``original``'s scene, each
    within DISTINCT_TOL of a distinct original line, with the same flags,
    counts and tolerances.  (``params`` may differ: a passing certificate's
    name the family of its scene, or nothing.)"""
    if any(mutant[key] != original[key] for key in ("scene", "counts", "tolerances")):
        return False
    lines = [(decode_plucker_numeric(sol["plucker"]), sol["real"])
             for sol in original["solutions"]]
    for sol in mutant["solutions"]:
        vec = decode_plucker_numeric(sol["plucker"])
        match = [k for k, (line, real) in enumerate(lines)
                 if real is sol["real"] and chordal_distance(vec, line) < DISTINCT_TOL]
        if not match:
            return False
        del lines[match[0]]
    return not lines


@pytest.mark.parametrize("name", ["tetra 1/10 1/20", "tetra 1/5 1/5",
                                  "track quadrics", "track spheres"])
@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__[1:])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_verify_passes_no_mutant_that_claims_something_else(certificates, name, mutate,
                                                           data):
    original = certificates[name]
    mutant = copy.deepcopy(original)
    mutate(mutant, data.draw)
    mutant = json.loads(json.dumps(mutant))  # as `verify` reads it from a file
    try:
        passed = verify_certificate(mutant).passed
    except (SceneFormatError, tetra32.DegeneracyError):
        passed = False
    if passed and not same_claim(original, mutant):
        assert (mutate, name.split()[0]) in ALLOWED_SURVIVORS


LINE = [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("flat, message", [
    ({"kind": "span", "matrix": LINE + [["0", "0"]]}, "'bad' lies in P^4, the scene in P^3"),
    ({"kind": "span", "matrix": [["1"], ["0"], ["0"], ["0"]]}, "got a 0-flat in P^3"),
    ({"kind": "dual", "matrix": [["1"], ["0"], ["0"], ["0"]]}, "got a 2-flat in P^3")])
def test_track_names_a_flat_that_is_not_a_line_in_p3(capsys, tmp_path, flat, message):
    scene = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 10))))[:3]).to_dict()
    scene["flats"] = [{"label": "bad", **flat}]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    code, _, err = run(capsys, "track", "--scene", str(scene_path))
    assert code == 3 and message in err


def tetra_scene_dict() -> dict:
    return Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 10))))).to_dict()


def _scene_not_an_object(scene):
    return [scene]


def _scene_duplicate_labels(scene):
    scene["quadrics"][1]["label"] = "Q1"


def _scene_asymmetric_quadric(scene):
    scene["quadrics"][0]["matrix"][0][1] = "7"


def _scene_plane_flat(scene):
    scene["flats"] = [{"label": "P", "kind": "plane", "matrix": LINE}]


def _scene_matrix_five(scene):
    scene["quadrics"][0]["matrix"] = 5


def _scene_matrix_empty(scene):
    scene["quadrics"][0]["matrix"] = []


@pytest.mark.parametrize("edit, message", [
    (_scene_not_an_object, "scene must be a JSON object"),
    (_scene_duplicate_labels, "scene labels must be unique"),
    (_scene_asymmetric_quadric, "quadric 'Q1' matrix is not symmetric"),
    (_scene_plane_flat, "flat 'P' has unknown kind 'plane'"),
    (_scene_matrix_five, "bad matrix: 'int' object is not iterable"),
    (_scene_matrix_empty, "bad matrix: list index out of range"),
], ids=["not-an-object", "duplicate-labels", "asymmetric-quadric", "plane-flat",
        "matrix-five", "matrix-empty"])
def test_track_names_a_malformed_scene(capsys, tmp_path, edit, message):
    scene = tetra_scene_dict()
    scene = edit(scene) or scene
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    code, out, err = run(capsys, "track", "--scene", str(scene_path))
    assert code == 3 and out == "" and err == f"input error: {message}\n"


def test_track_names_a_scene_file_that_is_not_json(capsys, tmp_path):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text("{not json")
    code, out, err = run(capsys, "track", "--scene", str(scene_path))
    assert code == 3 and out == "" and err.startswith(f"input error: invalid JSON in {scene_path}")


def test_scene_matrix_numbers_decode_exactly():
    # a JSON number is read at its exact value: 0.5 is 1/2, and 0.05 is the
    # binary double nearest 1/20, not 1/20
    scene = tetra_scene_dict()
    scene["quadrics"][0]["matrix"][0][0] = 0.5
    scene["quadrics"][0]["matrix"][3][3] = 0.05
    rows = Scene.from_dict(scene).quadrics[0].matrix.to_rows()
    assert rows[0][0] == F(1, 2)
    assert rows[3][3] == F(0.05) == F(3602879701896397, 72057594037927936) != F(1, 20)


def test_track_and_verify_a_scene_of_dual_flats(capsys, tmp_path):
    # each edge line given by two planes through it: the scene file holds
    # "dual" flats, and track and verify --scene read it back
    lines = [ln.to_projective().dual() for ln in regular_tetrahedron_lines()]
    scene_path = make_scene_file(
        tmp_path, "dual.json", Scene(3, flats=[(f"L{i}", ln) for i, ln in enumerate(lines, 1)]))
    assert {f["kind"] for f in json.loads(Path(scene_path).read_text())["flats"]} == {"dual"}
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "track", "--scene", scene_path, "--output", str(cert_path))
    assert code == 0 and json.loads(cert_path.read_text())["counts"]["total"] == 2
    code, out, _ = run(capsys, "verify", str(cert_path), "--scene", scene_path)
    assert code == 0 and out.startswith("PASS")


# a certificate field replaced by a value of the wrong JSON type
MALFORMED = {
    "solution-entry": (("solutions", 0), "x"),
    "solutions": (("solutions",), "x"),
    "counts": (("counts",), [32]),
    "tolerances": (("tolerances",), 1e-12),
    "tolerance-value": (("tolerances", "residual"), True),
    "params": (("params",), "1/10"),
    "scene-quadric": (("scene", "quadrics", 0), "Q1"),
    # the entry "1" of Q1, and True == 1
    "scene-matrix-entry": (("scene", "quadrics", 0, "matrix", 0, 0), True),
    # each integer field read as a string, a float or a boolean
    "scene-n-string": (("scene", "n"), "3"),
    "scene-n-float": (("scene", "n"), 3.0),
    "scene-quadric-n-float": (("scene", "quadrics", 0, "n"), 3.0),
    "seed-string": (("seed",), "abc"),
    "seed-bool": (("seed",), True),
}


def malform(cert: dict, name: str) -> None:
    """Replace the field ``MALFORMED[name]`` names in ``cert``."""
    (*parents, key), value = MALFORMED[name]
    field = cert
    for parent in parents:
        field = field[parent]
    field[key] = value


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_are_input_errors(capsys, tmp_path, name):
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", "1/10", "1/20", "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    malform(cert, name)
    cert_path.write_text(json.dumps(cert))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 3 and err.startswith("input error")
    if name == "scene-quadric":
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(cert["scene"]))
        code, _, err = run(capsys, "track", "--scene", str(scene_path))
        assert code == 3 and err.startswith("input error")


def test_verify_rejects_non_certificates(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"schema": "something-else"}')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3


def test_verify_names_a_scene_outside_p3(capsys, tmp_path):
    scene = Scene(4, quadrics=[Quadric(RatMatrix.identity(5))])
    # one real solution, all six coordinates 1.0, with a residual row of 0.0
    cert = certificate(scene, [np.ones(6)], [True], [{"Q0": 0.0}], None, extras=[{}])
    cert_path = tmp_path / "cert.json"
    write_json(str(cert_path), cert)
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 3 and "needs a scene in P^3" in err


def _drop_counts(cert):
    del cert["counts"]


def _drop_a_coordinate(cert):
    del cert["solutions"][0]["plucker"]["coords"]["01"]


def _drop_the_solutions(cert):
    cert["solutions"] = []
    cert["counts"] = {"total": 0, "real": 0, "nonreal": 0}


@pytest.mark.parametrize("edit, code, message", [
    (_drop_counts, 3, "input error: certificate misses field 'counts'"),
    (_drop_a_coordinate, 4, "solution 0: unreadable solution: bad Pluecker vector: '01'"),
    (_drop_the_solutions, 4, "closed-form certificate lists 0 of 32 lines"),
], ids=["counts", "coordinate", "solutions"])
def test_verify_names_a_certificate_missing_a_part(capsys, tmp_path, edit, code, message):
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", "1/10", "1/20", "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    edit(cert)
    cert_path.write_text(json.dumps(cert))
    got, out, err = run(capsys, "verify", str(cert_path))
    assert got == code and message in (out if code == 4 else err)


def test_write_json_writes_one_compact_line(capsys, tmp_path):
    # json's C encoder, which an indent would bypass: the text is
    # json.dumps's, one line that reads back equal
    obj = {"a": [1, 2.5, [0.1, -3e-17]], "b": {"c": None, "d": "1/3", "e": True}}
    path = tmp_path / "obj.json"
    write_json(str(path), obj)
    text = path.read_text()
    assert text == json.dumps(obj, allow_nan=False) + "\n" and text.count("\n") == 1
    assert json.loads(text) == obj
    write_json("-", obj)
    assert capsys.readouterr().out == text
    with pytest.raises(ValueError):
        write_json(str(tmp_path / "nan.json"), {"x": float("nan")})
    cert_path = tmp_path / "cert.json"
    assert run(capsys, "tetra", "1/10", "1/20", "--output", str(cert_path))[0] == 0
    assert len(cert_path.read_text().splitlines()) == 1


# -- certificate schema ---------------------------------------------------------


def certificate_validator():
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource

    schemas = Path(__file__).resolve().parents[1] / "docs" / "schemas"
    scene, cert = (json.loads((schemas / f"{name}.schema.json").read_text())
                   for name in ("scene", "certificate"))
    registry = Registry().with_resource(scene["$id"], Resource.from_contents(scene))
    return Draft7Validator(cert, registry=registry)


def test_certificates_match_their_schema(capsys, tmp_path):
    validator = certificate_validator()
    code, out, _ = run(capsys, "tetra", "1/10", "1/20")
    assert code == 0
    validator.validate(json.loads(out))

    seed, spheres = SPHERE_SCENES["plain"]
    scene = Scene(3, quadrics=[sphere(c, r) for c, r in spheres])
    scene_path = make_scene_file(tmp_path, "spheres.json", scene)
    code, out, err = run(capsys, "track", "--scene", scene_path, "--seed", str(seed))
    cert = json.loads(out)
    assert code == 0 and cert["counts"]["total"] == 12
    assert cert["metadata"]["root_bound"] == 12
    assert cert["metadata"]["start_policy"] == "elimination"
    assert cert["metadata"]["paths"] == {"total": 12, "converged": 12, "diverged": 0,
                                         "at_infinity": 0, "suspected_jumps": 0}
    assert "of 12 paths" in err and "0 at infinity" in err
    validator.validate(cert)

    del cert["solutions"][0]["plucker"]["coords"]["01"]
    assert not validator.is_valid(cert)
    # counts holds exactly total, real and nonreal, each an integer (which
    # JSON Schema takes 32.0 for; `verify` does not); tolerances holds
    # exactly the program's three; every solution has an integer index, but
    # that it equals the solution's position is checked by `verify` alone
    for forge in (_forge_unknown_count, _forge_total_count_only, _forge_bool_count,
                  *FORGED_TOLERANCES, *FORGED_RESIDUALS, _forge_missing_index,
                  _forge_null_scene_hash):
        cert = json.loads(out)
        forge(cert)
        assert not validator.is_valid(cert)
    # a scene's n and the seed are integers (again, 3.0 passes as one)
    for name in ("scene-n-string", "seed-string", "seed-bool"):
        cert = json.loads(out)
        malform(cert, name)
        assert not validator.is_valid(cert)


# -- doubling -----------------------------------------------------------------


def test_doubling_auto_table(capsys):
    code, out, _ = run(capsys, "doubling", "--auto", "--seed", "5")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:6]]
    assert [int(r[2]) for r in rows] == [2, 4, 8, 16, 32]


def test_doubling_json(capsys):
    code, out, _ = run(capsys, "doubling", "--auto", "--format", "json", "--seed", "5")
    data = json.loads(out)
    assert [r["real"] for r in data["rows"]] == [2, 4, 8, 16, 32]
    assert data["exact_stage0"] == 2


def test_doubling_json_rows_are_doubling_rows(capsys):
    # each row is a DoublingRow's fields, in order, its radii as rationals
    code, out, _ = run(capsys, "doubling", "--format", "json", "--seed", "0")
    rows = [{**dataclasses.asdict(r), "radii": [encode_rational(x) for x in r.radii]}
            for r in tracker.doubling_experiment(seed=0).rows]
    assert code == 0
    assert [list(r.items()) for r in json.loads(out)["rows"]] == [list(r.items()) for r in rows]


def test_doubling_zero_radii_rejected(capsys):
    code, _, err = run(capsys, "doubling", "--radii", "0,0,0,0")
    assert code == 3 and "> 0" in err


def test_doubling_names_a_stage_that_misses_its_target(capsys, monkeypatch):
    # stage 3 is made to miss its count, as the auto-mode miss test makes
    # stage 2 miss; the miss stands
    reality = tracker.TrackResult.reality

    def miss_stage_3(result):
        rep = reality(result)
        if result.conditions.root_bound == 16:
            rep = dataclasses.replace(rep, is_real=[False] + rep.is_real[1:])
        return rep

    argv = ["doubling", "--radii", "1/10,1/10,1/10,1/10", "--seed", "5"]
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""
    monkeypatch.setattr(tracker.TrackResult, "reality", miss_stage_3)
    code, out, err = run(capsys, *argv)
    assert code == 4 and err == "stage 3: 15 real lines, target 16 (16 of 16 paths converged)\n"
    assert [row.split()[2] for row in out.splitlines()[1:6]] == ["2", "4", "8", "15", "32"]


def test_doubling_auto_names_a_stage_that_misses_its_target(capsys, monkeypatch):
    reality = tracker.TrackResult.reality

    def miss_stage_2(result):
        rep = reality(result)
        if result.conditions.root_bound == 8:
            rep = dataclasses.replace(rep, is_real=[False] + rep.is_real[1:])
        return rep

    monkeypatch.setattr(tracker.TrackResult, "reality", miss_stage_2)
    code, out, err = run(capsys, "doubling", "--seed", "5")
    assert code == 4 and err == "stage 2: 7 real lines, target 8 (8 of 8 paths converged)\n"
    assert out.splitlines()[3].split()[3] == "1/10,1/10"


def test_doubling_tells_wide_cylinders_from_lost_paths(capsys):
    # cylinders of radius 1 are too wide for stage 3's real lines, though
    # every path converges; stage 4 also loses four paths
    code, _, err = run(capsys, "doubling", "--radii", "1,1,1,1", "--seed", "3")
    assert code == 4 and err == (
        "stage 3: 14 real lines, target 16 (16 of 16 paths converged)\n"
        "stage 4: 20 real lines, target 32 (28 of 32 paths converged)\n")


# -- transversals -------------------------------------------------------------


def test_transversals_tetrahedron(capsys):
    code, out, _ = run(capsys, "transversals", "--tetrahedron")
    data = json.loads(out)
    assert code == 0 and data["count"] == 2 and data["real"] == 2
    patterns = sorted(
        [k for k, v in t["plucker_exact"]["coords"].items() if v != "0"][0]
        for t in data["transversals"])
    assert patterns == ["02", "13"]


def test_transversals_moment(capsys):
    code, out, _ = run(capsys, "transversals", "--moment", "0,1,2,3")
    data = json.loads(out)
    assert code == 0 and data["real"] == 2


def test_transversals_moment_distinctness(capsys):
    code, _, err = run(capsys, "transversals", "--moment", "0,0,1,2")
    assert code == 2 and "distinct" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counts", "--bogus"])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["tetra", "1/10", "1/20"], ["track", "--scene", "s.json"], ["doubling"]],
    ids=lambda argv: argv[0])
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    # numpy's generators take seeds >= 0, and every command shares one domain
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 3 and "argument --seed: expected an integer >= 0, got '-1'" in err


@pytest.mark.parametrize("argv, message", [
    (["counts", "1"], "counts needs k and n (or --table)"),
    (["tetra", "1/10"], "tetra needs alpha and beta"),
    (["transversals", "--moment", "0,1,2"], "--moment needs four curve parameters")],
    ids=["counts", "tetra", "transversals"])
def test_a_missing_argument_is_an_input_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err == f"input error: {message}\n"


def test_track_names_a_scene_outside_p3(capsys, tmp_path):
    scene = Scene(4, quadrics=[Quadric(RatMatrix.identity(5))] * 4)
    code, out, err = run(capsys, "track", "--scene", make_scene_file(tmp_path, "p4.json", scene))
    assert code == 3 and out == "" and err == "input error: tracking requires a scene in P^3\n"


@pytest.mark.parametrize("argv", [
    ["counts", "1", "3", "--seed", "5"], ["counts", "1", "3", "--tol", "7"],
    ["transversals", "--tetrahedron", "--seed", "1"],
    ["transversals", "--tetrahedron", "--tol", "1e-9"],
    ["transversals", "--tetrahedron", "--format", "csv"],
    ["counts", "--table", "--format", "csv", "--output", "c.csv"],
    ["doubling", "--format", "csv"],
    ["verify", "cert.json", "--seed", "1"], ["verify", "cert.json", "--format", "json"],
    ["verify", "cert.json", "--output", "report.txt"],
    # the residual bound is a constant, not an option
    ["tetra", "1/10", "1/20", "--tol", "1e-6"], ["track", "--scene", "s.json", "--tol", "-1"],
    ["doubling", "--tol", "1e-20"], ["verify", "cert.json", "--tol", "1"]])
def test_commands_reject_options_they_would_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3


def parse_fresh(argv):
    """What a newly built parser makes of ``argv``: (namespace, None) or
    (None, exit code)."""
    try:
        return vars(build_parser().parse_args(argv)), None
    except SystemExit as exc:
        return None, exc.code


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main reuses one parser; each call, usage errors in between included,
    # must parse as a fresh parser does, and reach the cmd_* bound at call time
    received = []
    monkeypatch.setattr(cli, "cmd_doubling", lambda args: received.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "cmd_tetra", lambda args: received.append(vars(args)) or 0)
    calls = [["doubling", "--auto"], ["doubling", "--bogus"],
             ["doubling", "--radii", "1/10,1/10,1/10,1/10"],
             ["doubling", "--auto", "--radii", "1,1,1,1"],
             ["tetra", "1/10", "1/20", "--seed", "4"], ["tetra", "--alpha"],
             ["doubling", "--format", "json"], ["tetra", "--beta", "1/3", "1/7"]]
    for argv in calls:
        expected, expected_code = parse_fresh(argv)
        expected_err = capsys.readouterr().err
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert capsys.readouterr().err == expected_err
        if expected is None:
            assert code == expected_code == 3
        else:
            assert code == 0 and received.pop() == expected
    assert received == []
    code, out, _ = run(capsys, "counts", "1", "3")
    assert code == 0 and out.strip() == "dim=4 degree=2 total=32"


# -- docs ---------------------------------------------------------------------


def test_readme_flags_are_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme))
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {option for p in [parser, *sub.choices.values()]
                for action in p._actions for option in action.option_strings
                if option.startswith("--")}
    assert "--path-log" in flags
    assert flags <= accepted, sorted(flags - accepted)
    # and every flag a command accepts is documented
    documented = accepted - {"--help", "--version"}
    assert documented <= flags, sorted(documented - flags)


def test_readme_path_log_keys_are_the_logs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (listed,) = re.findall(r'`\{("index"[^}]*)\}`', readme)
    fields = [f.name for f in dataclasses.fields(tracker.TrackedPath)]
    assert re.findall(r'"(\w+)"', listed) == ["index", *fields]
