import gc
import json
import tracemalloc
from dataclasses import replace
from itertools import product
from operator import attrgetter

import pytest

from torsod import cli, errors
from torsod.cli import main
from torsod.serialize import canonical_json_bytes, datum_to_obj, fan_to_obj
from props import ref_certificate_check
from torsod import (canned_example, canned_fan, lattice, make_datum, models,
                    oracle, sod)


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


def test_missing_paths_are_named_once(tmp_path, capsys):
    # A missing input and an output path in a missing directory both exit 3
    # and name the path once.
    path = tmp_path / "missing.json"
    code, _, err = run(["classify", str(path)], capsys)
    assert (code, err) == (3, f"error: no such file: {path}\n")
    path = tmp_path / "missing" / "r.json"
    code, _, err = run(["classify", "a1-half", "--json", str(path)], capsys)
    assert (code, err) == (3, f"error: no such file: {path}\n")


class FreshRefusal(errors.TorsodError):
    """A refusal that no command raises yet."""


@pytest.mark.parametrize(
    "exc_class",
    [cls for cls in vars(errors).values() if isinstance(cls, type)
     and issubclass(cls, errors.TorsodError) and cls is not errors.TorsodError]
    + [FreshRefusal], ids=attrgetter("__name__"))
def test_every_refusal_exits_2_but_the_oracle_box(exc_class, capsys,
                                                  monkeypatch):
    def refuse(datum):
        raise exc_class("refused")
    monkeypatch.setattr(cli, "classify", refuse)
    code, _, err = run(["classify", "a1-half"], capsys)
    assert err == "error: refused\n"
    assert code == (1 if exc_class is errors.OracleBoxError else 2)


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


def test_integer_past_the_digit_limit_is_invalid_json(tmp_path, capsys):
    # json.loads refuses an integer literal past the int-string digit limit
    # (4,300 digits) with a plain ValueError, not a JSONDecodeError.
    obj = datum_to_obj(canned_example("a1-half").datum)
    obj["r"][0] = "ORDER"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj).replace('"ORDER"', "9" * 5000))
    report = tmp_path / "report.json"
    code, out, err = run(["sod", str(path), "--box", "1",
                          "--json", str(report)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: invalid JSON (")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not report.exists()


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


def test_sod_max_depth_guard(capsys, monkeypatch):
    # a2-third's longest Koszul descent at box 6 has 6 steps.  The heads'
    # certificate is built once, under the bound given, not the default.
    code, _, err = run(["sod", "a2-third", "--max-depth", "5"], capsys)
    assert code == 2
    assert err == "error: generation recursion exceeded depth 5\n"
    build, depths = sod.generation_certificate, []

    def recording_build(d, targets, max_depth=64):
        depths.append(max_depth)
        return build(d, targets, max_depth)
    monkeypatch.setattr(sod, "generation_certificate", recording_build)
    code, _, _ = run(["sod", "a2-third", "--max-depth", "6"], capsys)
    assert code == 0
    assert depths == [6]


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
                                              monkeypatch, stress_datum):
    # Neither a certificate node nor the decomposition is built: the depth
    # is refused while the heads' roots are read.
    def refuse(*args, **kwargs):
        raise AssertionError("built before the depth refusal")
    monkeypatch.setattr(sod, "decompose", refuse)
    monkeypatch.setattr(sod, "CertificateNode", refuse)
    for datum in (make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2),
                             (10, 10, 1)), stress_datum):
        path = tmp_path / "datum.json"
        path.write_bytes(canonical_json_bytes(datum_to_obj(datum)))
        code, _, err = run(["sod", str(path), "--max-depth", "1"], capsys)
        assert code == 2
        assert err == "error: generation recursion exceeded depth 1\n"


def test_sod_working_set_is_one_certificate_slice(tmp_path, capsys,
                                                  monkeypatch, stress_datum):
    # Traced bytes of `sod` on the stress datum at box 5 (22,759 nodes).
    # The command builds and verifies the certificate of the box's heads,
    # whose nodes times the 11 tails are the whole certificate's, and its
    # semiorthogonality entries store nothing per entry, so the whole
    # command traces at most 0.3 times what one certificate of the whole
    # box retains (about 0.15 times as measured; 0.11 when the heads were
    # built one witness part at a time, 0.16 with one part per tail and
    # witness, 0.77 when the parts were split by witness alone and the
    # entries were stored rows).  Box 5 is the smallest box where the
    # certificate outweighs the decomposition.
    path = tmp_path / "stress.json"
    path.write_bytes(canonical_json_bytes(datum_to_obj(stress_datum)))
    build = sod.generation_certificate
    parts = []

    def recording_build(*args, **kwargs):
        cert = build(*args, **kwargs)
        parts.append((len(cert.nodes), cert.nodes[0]))
        return cert

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        whole = build(stress_datum,
                      product(range(-5, 6), repeat=stress_datum.n))
        retained = tracemalloc.get_traced_memory()[0] - before
        del whole
        gc.collect()
        monkeypatch.setattr(sod, "generation_certificate", recording_build)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        code, _, _ = run(["sod", str(path), "--box", "5"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sum(nodes for nodes, _ in parts) * 11 == 22759
    assert not hasattr(parts[0][1], "__dict__")
    assert peak - start <= 0.3 * retained, (peak - start) / retained


def _corrupting_build(monkeypatch, corrupt):
    """Patch ``sod.generation_certificate`` to corrupt every certificate it
    builds: shift the stored W of its first node, or drop the first child
    in key order.  Returns the list of the keys it changed."""
    build, changed = sod.generation_certificate, []

    def corrupt_build(*args, **kwargs):
        cert = build(*args, **kwargs)
        if corrupt == "shift-W":
            node = cert.nodes[0]
            changed.append(node.key)
            return replace(cert, nodes=(replace(node, W=node.W + 1),)
                           + cert.nodes[1:])
        gone = min(key for node in cert.nodes for key in node.children)
        changed.append(gone)
        return replace(cert, nodes=tuple(node for node in cert.nodes
                                         if node.key != gone))

    monkeypatch.setattr(sod, "generation_certificate", corrupt_build)
    return changed


def test_sod_certificate_row_can_fail(tmp_path, capsys, monkeypatch):
    # Every build shifts one node's stored W.  a1-half has one tail, so the
    # row fails with that one violation, every count and every other check
    # is as in the passing run, and the report is byte-identical to the
    # reference's, which verifies each tail's own certificate.
    report = tmp_path / "report.json"
    argv = ["sod", "a1-half", "--box", "2", "--json", str(report)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    passing = json.loads(report.read_bytes())["checks"]
    shifted = _corrupting_build(monkeypatch, "shift-W")
    code, _, _ = run(argv, capsys)
    assert code == 1
    failing = report.read_bytes()
    assert len(shifted) == 2 and shifted[0] == shifted[1]
    monkeypatch.setattr(cli, "_certificate_check", ref_certificate_check)
    code, _, _ = run(argv, capsys)
    assert code == 1
    assert report.read_bytes() == failing
    failing = json.loads(failing)["checks"]
    assert failing[:-1] == passing[:-1]
    row, ok_row = failing[-1], passing[-1]
    assert (row["name"], row["ok"], ok_row["ok"]) == (
        "generation-certificate", False, True)
    assert [(r["code"], r["node"]) for r in row["rows"]] == [
        ("W_MISMATCH", shifted[0])]
    assert ok_row["summary"].startswith("25 targets, ")
    assert row["summary"] == ok_row["summary"].replace("0 violations",
                                                       "1 violations")


@pytest.mark.parametrize("corrupt", ["shift-W", "drop-child"])
def test_sod_certificate_row_fails_once_per_tail(tmp_path, capsys,
                                                 monkeypatch, corrupt):
    # a1-half-line has n = 3 > alpha = 2: its box at --box 2 has 5 tails.
    # Every build is corrupted the same way, so `sod` meets a corrupt
    # heads' certificate and then builds and verifies each tail's own
    # certificate, as the reference does.  The failing reports are
    # byte-identical: the violations come tail by tail, with the tail in
    # their keys and labels, in the verifier's order within a tail.
    changed = _corrupting_build(monkeypatch, corrupt)
    report = tmp_path / "report.json"
    argv = ["sod", "a1-half-line", "--box", "2", "--json", str(report)]
    code, _, _ = run(argv, capsys)
    assert code == 1
    assert len(changed) == 6   # the heads, then each of the 5 tails
    failing = report.read_bytes()
    monkeypatch.setattr(cli, "_certificate_check", ref_certificate_check)
    code, _, _ = run(argv, capsys)
    assert code == 1
    assert report.read_bytes() == failing
    row = json.loads(failing)["checks"][-1]
    tails = [int(r["node"].split("|")[1].split(",")[2]) for r in row["rows"]]
    per_tail = len(tails) // 5
    assert per_tail >= 1
    assert tails == [t for t in range(-2, 3) for _ in range(per_tail)]
    assert row["summary"].startswith("125 targets, ")
    assert row["summary"].endswith(f" nodes, {len(tails)} violations")


@pytest.mark.parametrize("model", ["a1-half-line", "stress"])
def test_sod_builds_the_heads_once(tmp_path, capsys, monkeypatch, model,
                                   stress_datum):
    # sod builds the certificate of the box from its heads alone, in one
    # build: its targets are box_heads and its nodes are the heads'
    # certificate.
    if model == "stress":
        d, model = stress_datum, str(tmp_path / "stress.json")
        (tmp_path / "stress.json").write_bytes(
            canonical_json_bytes(datum_to_obj(d)))
    else:
        d = canned_example(model).datum
    build, calls = sod.generation_certificate, []
    heads = sod.box_heads(d, 2)
    whole = build(d, heads)

    def recording_build(datum, targets, max_depth=sod.MAX_DEPTH):
        targets = list(targets)
        cert = build(datum, targets, max_depth)
        calls.append((targets, cert.nodes))
        return cert
    monkeypatch.setattr(sod, "generation_certificate", recording_build)
    code, _, _ = run(["sod", model, "--box", "2"], capsys)
    assert code == 0
    assert calls == [(heads, whole.nodes)]


@pytest.mark.parametrize("model", ["a1-half", "a2-third", "a1-half-line"])
def test_a_cross_check_with_no_comparison_fails(tmp_path, capsys, model):
    # At --box 0 the one certificate target is a spanning leaf, so no
    # Koszul node is replayed: koszul-replay compares nothing, and a
    # cross-check that compares nothing fails rather than pass vacuously.
    report = tmp_path / "report.json"
    code, _, _ = run(["oracle", model, "--box", "0", "--verify-sod",
                      "--json", str(report)], capsys)
    assert code == 1
    checks = json.loads(report.read_bytes())["checks"]
    assert [(c["name"], c["summary"]) for c in checks if not c["ok"]] == [
        ("koszul-replay", "0 comparisons, 0 failures")]
    assert [models.CrossCheck("c", total, failures).ok
            for total, failures in ((0, ()), (1, ()), (1, ("f",)))] == [
        False, True, False]


def test_deeply_nested_json_is_invalid(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, _, err = run(["classify", str(path)], capsys)
    assert code == 2
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_negative_box_rejected(capsys):
    code, _, err = run(["sod", "a1-half", "--box", "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_nonpositive_max_depth_rejected(tmp_path, capsys, depth):
    path = tmp_path / "r.json"
    code, out, err = run(["sod", "a1-half", "--max-depth", depth,
                          "--json", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: --max-depth must be positive\n")
    assert not path.exists()


def test_directory_input_is_an_io_error(tmp_path, capsys):
    code, out, err = run(["classify", str(tmp_path)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_non_ascii_file_name_in_the_markdown_report(tmp_path, capsys):
    # The markdown report is ASCII; a non-ASCII input name is escaped there,
    # as the JSON report escapes it, instead of crashing the write.
    path = tmp_path / "donn\u00e9es.json"
    path.write_bytes(canonical_json_bytes(
        datum_to_obj(canned_example("a1-half").datum)))
    md, js = tmp_path / "r.md", tmp_path / "r.json"
    code, _, err = run(["classify", str(path), "--markdown", str(md),
                        "--json", str(js)], capsys)
    assert (code, err) == (0, "")
    assert "* input: donn\\xe9es.json\n" in md.read_text(encoding="ascii")
    assert json.loads(js.read_bytes())["input"] == "donn\u00e9es.json"


def test_oracle_unknown_name_lists_models_and_fans(capsys):
    code, out, err = run(["oracle", "nosuch"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: unknown model or fan 'nosuch'; available models: "
                   "a1-half, a1-half-crepant, a1-half-line, a2-third, "
                   "smooth-blowup; fans: p1, p2, stacky-p1\n")


def test_classify_takes_no_box(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "a1-half", "--box", "3"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
