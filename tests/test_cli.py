import json

import pytest

from torsod.cli import main
from torsod.serialize import canonical_json_bytes, datum_to_obj, fan_to_obj
from torsod import canned_example, canned_fan, lattice, sod


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_stdout(capsys):
    code, out, _ = run(["classify", "a1-half"], capsys)
    assert code == 0
    assert "Extraction" in out
    assert "sigma = -1" in out


def test_classify_crepant_is_fine(capsys):
    code, out, _ = run(["classify", "a1-half-crepant"], capsys)
    assert code == 0
    assert "LogCrepant" in out


def test_sod_rejects_non_extraction(capsys):
    code, _, err = run(["sod", "a1-half-crepant"], capsys)
    assert code == 2
    assert "LogCrepant" in err
    code, _, _ = run(["sod", "smooth-blowup"], capsys)
    assert code == 2


def test_unknown_model(capsys):
    code, _, err = run(["classify", "does-not-exist"], capsys)
    assert code == 2
    assert "unknown model" in err


def test_missing_file(capsys):
    code, _, err = run(["sod", "/nonexistent/datum.json"], capsys)
    assert code == 3


def test_invalid_json_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, err = run(["classify", str(bad)], capsys)
    assert code == 2
    assert "invalid JSON" in err


def test_invalid_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": "\xc3\x28"}')
    code, _, err = run(["classify", str(bad)], capsys)
    assert code == 2
    assert "invalid JSON" in err and str(bad) in err


def test_classify_datum_file(tmp_path, capsys):
    obj = datum_to_obj(canned_example("a2-third").datum)
    path = tmp_path / "datum.json"
    path.write_bytes(canonical_json_bytes(obj))
    code, out, _ = run(["classify", str(path)], capsys)
    assert code == 0
    assert "Extraction" in out and "sigma = -2" in out


def test_sod_datum_file(tmp_path, capsys, stress_datum):
    path = tmp_path / "stress.json"
    path.write_bytes(canonical_json_bytes(datum_to_obj(stress_datum)))
    out = tmp_path / "report.json"
    code, _, _ = run(["sod", str(path), "--box", "1", "--json", str(out)],
                     capsys)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out.read_bytes())["checks"]}
    assert len(checks["spanning-classes"]["rows"]) == 756
    assert len(checks["block-labels"]["rows"]) == 54
    (identity,) = checks["count-identity"]["rows"]
    assert identity["lhs"] == identity["rhs"] == 1080


def test_one_enumeration_per_run(tmp_path, capsys, monkeypatch):
    # Each run enumerates the spanning classes and blocks once and builds
    # three Smith forms: the class group, the restricted class lattice and
    # the transfer lattice.
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    count(sod, "spanning_classes")
    count(sod, "block_labels")
    count(lattice, "cokernel")
    report = str(tmp_path / "report.json")
    for argv in (["sod", "a1-half-line", "--box", "2", "--json", report],
                 ["oracle", "a1-half-line", "--verify-sod", "--box", "1"]):
        calls.update(spanning_classes=0, block_labels=0, cokernel=0)
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert calls == {"spanning_classes": 1, "block_labels": 1,
                         "cokernel": 3}, argv


def test_sod_reports_are_deterministic(tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    m1 = tmp_path / "a.md"
    code, _, _ = run(["sod", "a1-half", "--box", "2",
                      "--json", str(j1), "--markdown", str(m1)], capsys)
    assert code == 0
    code, _, _ = run(["sod", "a1-half", "--box", "2", "--json", str(j2)],
                     capsys)
    assert code == 0
    assert j1.read_bytes() == j2.read_bytes()
    report = json.loads(j1.read_bytes())
    assert report["ok"] is True
    assert report["tool"] == "torsod"
    # output paths and timing never leak into the serialized report
    raw = j1.read_text()
    assert str(j1) not in raw and "seconds" not in raw
    md = m1.read_text()
    assert "## block-labels: PASS" in md


def test_oracle_fan_file(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_bytes(canonical_json_bytes(fan_to_obj(canned_fan("p1"))))
    code, out, _ = run(["oracle", str(path), "--box", "2"], capsys)
    assert code == 0
    assert "self-check-fan" in out


def test_oracle_incomplete_fan_fails(tmp_path, capsys):
    obj = {"lattice_rank": 1, "rays": [{"v": [1], "r": 1}],
           "max_cones": [[0]]}
    path = tmp_path / "half.json"
    path.write_bytes(canonical_json_bytes(obj))
    code, out, _ = run(["oracle", str(path)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_oracle_model_pipeline(capsys):
    code, out, _ = run(["oracle", "a1-half", "--box", "2", "--verify-sod"],
                       capsys)
    assert code == 0
    for name in ("fully-faithful-oracle", "semiorthogonality-oracle",
                 "koszul-replay", "transfer-dichotomy", "count-identity"):
        assert name in out


def test_oracle_without_verify_runs_self_checks_only(capsys):
    code, out, _ = run(["oracle", "a1-half", "--box", "2"], capsys)
    assert code == 0
    assert "self-check-target" in out
    assert "fully-faithful-oracle" not in out


def test_oracle_skips_sod_checks_off_extractions(capsys):
    # self-tests still run and pass on a contraction model
    code, out, _ = run(["oracle", "smooth-blowup", "--box", "2"], capsys)
    assert code == 0
    code, out, _ = run(["oracle", "smooth-blowup", "--box", "2",
                        "--verify-sod"], capsys)
    assert code == 0
    assert "skipped" in out and "Contraction" in out


def test_verify_sod_needs_a_model(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_bytes(canonical_json_bytes(fan_to_obj(canned_fan("p1"))))
    code, _, err = run(["oracle", str(path), "--verify-sod"], capsys)
    assert code == 2
    assert "catalog model" in err


@pytest.mark.parametrize("face", [[0], []])
def test_fan_file_listing_a_face_is_invalid(tmp_path, capsys, face):
    # P^2 stays complete, but a listed cone that is a face of another is
    # malformed input, not a failed check
    obj = fan_to_obj(canned_fan("p2"))
    obj["max_cones"].append(face)
    path = tmp_path / "fan.json"
    path.write_bytes(canonical_json_bytes(obj))
    code, _, err = run(["oracle", str(path)], capsys)
    assert code == 2
    assert "is a face of cone" in err


def test_schema_error_in_fan_file(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_bytes(canonical_json_bytes(
        {"lattice_rank": 1, "rays": [{"v": [1], "r": 1}]}))
    code, _, err = run(["oracle", str(path)], capsys)
    assert code == 2


def test_negative_box_rejected(capsys):
    code, _, err = run(["sod", "a1-half", "--box", "-1"], capsys)
    assert code == 2


def test_classify_takes_no_box(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "a1-half", "--box", "3"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
