import json
import tracemalloc

import pytest

from torsod.cli import main
from torsod.serialize import canonical_json_bytes, datum_to_obj, fan_to_obj
from torsod import (canned_example, canned_fan, lattice, make_datum, oracle,
                    sod)


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
    # the transfer lattice.  The oracle run adds the fiber model's transfer
    # group and one class group per scanned fan (target, source and fiber);
    # the scan kernels are cleared first, so the count holds in any order.
    # A label that solved its own system would add a cokernel each.
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
    oracle._scan_kernel.cache_clear()
    report = str(tmp_path / "report.json")
    for argv, smith in (
            (["sod", "a1-half-line", "--box", "2", "--json", report], 3),
            (["oracle", "a1-half-line", "--verify-sod", "--box", "1"], 7)):
        calls.update(spanning_classes=0, block_labels=0, cokernel=0)
        code, _, _ = run(argv, capsys)
        assert code == 0
        assert calls == {"spanning_classes": 1, "block_labels": 1,
                         "cokernel": smith}, argv


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


def test_oracle_incomplete_plane_fan_reports_one_unscanned_row(tmp_path,
                                                              capsys):
    # P^2 with one maximal cone missing
    obj = {"lattice_rank": 2,
           "rays": [{"v": v, "r": 1} for v in ([1, 0], [0, 1], [-1, -1])],
           "max_cones": [[0, 1], [1, 2]]}
    path, report = tmp_path / "p2-minus-cone.json", tmp_path / "report.json"
    path.write_bytes(canonical_json_bytes(obj))
    code, _, _ = run(["oracle", str(path), "--json", str(report)], capsys)
    assert code == 1
    (check,) = json.loads(report.read_bytes())["checks"]
    assert (check["name"], check["ok"]) == ("self-check-fan", False)
    assert check["rows"] == [{
        "complete": False, "zero_label": False, "duality_checked": 0,
        "duality_mismatches": 0, "section_mismatches": 0,
        "euler_mismatches": 0}]


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


def test_sod_max_depth_guard(capsys):
    # a2-third's longest Koszul descent at box 6 has 6 steps
    code, _, err = run(["sod", "a2-third", "--max-depth", "5"], capsys)
    assert code == 2
    assert err == "error: generation recursion exceeded depth 5\n"
    code, _, _ = run(["sod", "a2-third", "--max-depth", "6"], capsys)
    assert code == 0


def test_sod_max_depth_bounds_every_target(tmp_path, capsys):
    # The target (0, 1) descends two steps; the refusal does not depend on
    # which target the box lists first.
    datum = make_datum(((1, 0), (0, 1), (1, 1)), (1, 1, -1), (4, 3, 1))
    path = tmp_path / "datum.json"
    path.write_bytes(canonical_json_bytes(datum_to_obj(datum)))
    code, _, err = run(["sod", str(path), "--box", "2", "--max-depth", "1"],
                       capsys)
    assert code == 2
    assert err == "error: generation recursion exceeded depth 1\n"


def test_sod_refuses_depth_before_enumerating(tmp_path, capsys,
                                              monkeypatch):
    datum = make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2), (10, 10, 1))
    path = tmp_path / "datum.json"
    path.write_bytes(canonical_json_bytes(datum_to_obj(datum)))

    def refuse(d):
        raise AssertionError("decompose ran before the depth refusal")
    monkeypatch.setattr(sod, "decompose", refuse)
    code, _, err = run(["sod", str(path), "--max-depth", "1"], capsys)
    assert code == 2
    assert err == "error: generation recursion exceeded depth 1\n"


def test_sod_working_set_is_the_certificate(tmp_path, capsys, monkeypatch,
                                           stress_datum):
    # Traced bytes of `sod` on the stress datum at box 5 (22,759 nodes).
    # Building the certificate may trace at most 1.2 times what the
    # certificate retains, and the whole command at most 1.3 times: the
    # nodes are slotted, the targets are read once, and the certificate is
    # freed once its row is built.  Box 5 is the smallest box where the
    # certificate outweighs the decomposition.
    path = tmp_path / "stress.json"
    path.write_bytes(canonical_json_bytes(datum_to_obj(stress_datum)))
    build = sod.generation_certificate
    seen = {}

    def traced_build(*args, **kwargs):
        before, seen["peak_before"] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cert = build(*args, **kwargs)
        after, peak = tracemalloc.get_traced_memory()
        seen.update(retained=after - before, peak=peak - before,
                    node=cert.nodes[0])
        return cert

    monkeypatch.setattr(sod, "generation_certificate", traced_build)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        code, _, _ = run(["sod", str(path), "--box", "5"], capsys)
        peak = max(seen["peak_before"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert code == 0
    assert not hasattr(seen["node"], "__dict__")
    assert seen["peak"] <= 1.2 * seen["retained"]
    assert peak - start <= 1.3 * seen["retained"]


def test_deeply_nested_json_is_invalid(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, _, err = run(["classify", str(path)], capsys)
    assert code == 2
    assert err == f"error: {path}: JSON nested too deeply\n"


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
