"""Tests of the benchmark harness itself, on small catalog operations.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import random
import shutil
import subprocess
import sys
import time

import run

SOD = run.Workload(
    op=("cli", "sod", "a1-half", "--box", "2", "--json", "{report}"),
    setup=("cli", "classify", "a1-half"))
SOD_REFERENCE = {
    "checks": ["classification", "spanning-classes", "block-labels",
               "count-identity", "fully-faithful", "semiorthogonality",
               "generation-certificate"],
    "invariants": {"spanning-classes.rows": 4, "block-labels.rows": 4,
                   "count-identity.lhs": 8, "count-identity.rhs": 8,
                   "generation-certificate.targets": 25,
                   "generation-certificate.nodes": 49},
}
ORACLE = run.Workload(
    op=("cli", "oracle", "a1-half", "--verify-sod", "--json", "{report}"),
    setup=("cli", "classify", "a1-half"))
ORACLE_REFERENCE = {
    "checks": ["self-check-target", "self-check-source", "self-check-fiber",
               "fully-faithful-oracle", "semiorthogonality-oracle",
               "transfer-dichotomy", "certificate-verify", "koszul-replay",
               "count-identity"],
    "invariants": {"self-check-target.duality_checked": 125,
                   "self-check-source.duality_checked": 625,
                   "certificate-verify.nodes": 145,
                   "koszul-replay.comparisons": 44},
}


def deadline():
    return time.perf_counter() + 120


def test_tampered_reference_invariant_fails_the_operation(tmp_path):
    sample, report = run.run_op(SOD, SOD_REFERENCE, tmp_path, deadline())
    assert sample.failure is None
    for key, value in SOD_REFERENCE["invariants"].items():
        for tampered in (value - 1, value + 1):
            reference = json.loads(json.dumps(SOD_REFERENCE))
            reference["invariants"][key] = tampered
            assert key in run.verify(report, reference)
    extra = {**SOD_REFERENCE, "checks": SOD_REFERENCE["checks"] + ["more"]}
    assert "differ from the reference" in run.verify(report, extra)


def test_failing_command_counts_as_failed(tmp_path):
    broken = run.Workload(op=("cli", "sod", "no-such-model",
                              "--json", "{report}"), setup=())
    sample, _ = run.run_op(broken, SOD_REFERENCE, tmp_path, deadline())
    assert sample.failure == "exit code 2"


def test_traced_report_bytes_match_untraced(tmp_path):
    untraced, plain = run.run_op(ORACLE, ORACLE_REFERENCE, tmp_path,
                                 deadline())
    traced, under_trace = run.run_op(ORACLE, ORACLE_REFERENCE, tmp_path,
                                     deadline(), kind="traced")
    assert untraced.failure is None and traced.failure is None
    assert plain == under_trace
    samples, trace = run.traced_run(ORACLE, ORACLE_REFERENCE,
                                    random.Random(0), tmp_path, deadline())
    assert trace is not None
    assert all(s.failure is None for s in samples)


def test_two_traced_runs_give_the_same_counts(tmp_path):
    counts = []
    for seed in (1, 2):
        samples, trace = run.traced_run(ORACLE, ORACLE_REFERENCE,
                                        random.Random(seed), tmp_path,
                                        deadline())
        metrics = run.per_layer_metrics(trace, samples)
        counts.append({k: m["value"] for k, m in metrics.items()
                       if m["unit"] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["oracle.cohomology.calls"] > 0
    assert counts[0]["models.koszul_replay_check.nodes"] == 44
    assert counts[0]["sod.generation_certificate.nodes"] == 145


def test_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sod-stress",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
