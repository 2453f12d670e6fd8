import argparse
import copy
import json
import math
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from quadtangents import tracker
from quadtangents.cli import CSV_COLUMNS, build_parser, main
from quadtangents.exactnum import RatMatrix
from quadtangents.quadrics import LineConditions, Quadric, cylinder
from quadtangents.scenes import Certificate, Scene, write_json
from quadtangents.tetra32 import TetraParams, family
from quadtangents.tracker import regular_tetrahedron_lines
from test_tracker import SPHERE_SCENES, sphere


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- counts -------------------------------------------------------------------


def test_counts_single(capsys):
    code, out, _ = run(capsys, "counts", "1", "3")
    assert code == 0 and out.strip() == "dim=4 degree=2 total=32"


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


def test_counts_table_json(capsys):
    code, out, _ = run(capsys, "counts", "--table", "--format", "json")
    rows = json.loads(out)
    assert [r["total"] for r in rows][:2] == [32, 320]


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
    assert cert["metadata"]["start_policy"] == "total-degree"
    assert cert["metadata"]["root_bound"] == 2


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
    tracker._tetra_start.cache_clear()  # a process's first track builds its start
    scene = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 20)))))
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    code, _, _ = run(capsys, "track", "--scene", scene_path)
    assert code == 0
    # the scene once (tracker target and certificate residuals share it),
    # and the closed-form start system once per process
    assert compiled == [["tangency_Q1", "tangency_Q2", "tangency_Q3", "tangency_Q4"],
                        [0, 1, 2, 3]]


def test_track_deterministic_output(capsys, tmp_path):
    scene = Scene(3, quadrics=list(family(TetraParams.of(F(1, 10), F(1, 10)))))
    scene_path = make_scene_file(tmp_path, "scene.json", scene)
    _, out1, _ = run(capsys, "track", "--scene", scene_path, "--seed", "9")
    _, out2, _ = run(capsys, "track", "--scene", scene_path, "--seed", "9")
    assert out1 == out2


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


def _forge_nan_coordinates(cert):
    cert["solutions"][0]["plucker"]["coords"]["01"] = float("nan")


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


# the closed-form parameters each forgery starts from, if not (1/10, 1/20)
FORGED_AT = {_forge_nonreal_flagged_real: ("1/5", "1/5")}


@pytest.mark.parametrize("forge", [
    _forge_arbitrary_coordinates, _forge_trimmed, _forge_repeated_solution,
    _forge_loose_tolerance, _forge_nan_coordinates, _forge_nonreal_flagged_real,
    _forge_nonreal_count, _forge_params])
def test_verify_rejects_forged_certificate(capsys, tmp_path, forge):
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", *FORGED_AT.get(forge, ("1/10", "1/20")), "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    forge(cert)
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 4 and out.startswith("FAIL")


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


# a certificate field replaced by a value of the wrong JSON type
MALFORMED = {
    "solution-entry": (("solutions", 0), "x"),
    "solutions": (("solutions",), "x"),
    "counts": (("counts",), [32]),
    "tolerances": (("tolerances",), 1e-12),
    "params": (("params",), "1/10"),
    "scene-quadric": (("scene", "quadrics", 0), "Q1"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files_are_input_errors(capsys, tmp_path, name):
    cert_path = tmp_path / "cert.json"
    run(capsys, "tetra", "1/10", "1/20", "--output", str(cert_path))
    cert = json.loads(cert_path.read_text())
    (*parents, key), value = MALFORMED[name]
    field = cert
    for parent in parents:
        field = field[parent]
    field[key] = value
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
    cert = Certificate(
        scene=scene,
        solutions=[{"index": 0, "real": True, "residual": 0.0,
                    "plucker": {"k": 1, "n": 3, "coords": {
                        key: 1.0 for key in ("01", "02", "03", "12", "13", "23")}}}],
        counts={"total": 1, "real": 1, "nonreal": 0},
        tolerances={"residual": 1e-12, "real": 1e-8, "distinct": 1e-6})
    cert_path = tmp_path / "cert.json"
    write_json(str(cert_path), cert.to_dict())
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 3 and "needs a scene in P^3" in err


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
    assert cert["metadata"]["paths"] == {"total": 32, "converged": 12, "diverged": 0,
                                         "at_infinity": 20, "suspected_jumps": 0}
    assert "20 at infinity" in err
    validator.validate(cert)

    del cert["solutions"][0]["plucker"]["coords"]["01"]
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


def test_doubling_zero_radii_rejected(capsys):
    code, _, err = run(capsys, "doubling", "--radii", "0,0,0,0")
    assert code == 3 and "> 0" in err


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
