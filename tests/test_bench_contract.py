"""The benchmark reads the oracle's private caches by name; keep them there."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from torsod import canned_fan, cohomology, euler_characteristic, section_count
from torsod import oracle

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
TRACER = BENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_cache_counters_name_oracle_caches():
    tracer = _tracer()
    names = sorted({name for functions, _ in tracer.CACHE_COUNTERS.values()
                    for name in functions})
    assert names
    for name in names:
        assert hasattr(getattr(oracle, name, None), "cache_info"), name


def test_cache_counters_count_the_oracle_scans():
    # A traced result that lacks a declared counter is not a result, so
    # every counter must be reported once the three oracle scans have run.
    tracer = _tracer()
    p2 = canned_fan("p2")
    for k in [(2, 0, 0), (-4, 0, 0), (1, -1, 1)]:
        cohomology(p2, k)
        euler_characteristic(p2, k)
        section_count(p2, k)
    counters = tracer.Tracer().cache_counters()
    assert set(counters) == set(tracer.CACHE_COUNTERS)
    assert counters["oracle.pattern_lookups"] > 0
    assert counters["oracle.dot_lookups"] > 0


def test_traced_sod_reports_every_declared_metric(tmp_path, monkeypatch):
    # A traced result that omits a declared per-layer metric is malformed,
    # and a `sod` run is the one that touches no oracle cache.
    trace = tmp_path / "trace.json"
    env = {"PATH": os.environ.get("PATH", os.defpath),
           "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    subprocess.run([sys.executable, str(BENCH / "child.py"),
                    "--trace", str(trace), "cli", "sod", "a1-half",
                    "--box", "2"],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    monkeypatch.syspath_prepend(str(BENCH))   # run.py imports the tracer
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)   # for its dataclass
    spec.loader.exec_module(run)
    samples = [run.Sample(kind, wall, 0.0, None)
               for kind, wall in (("op", 0.1), ("traced", 0.2))]
    metrics = run.per_layer_metrics(json.loads(trace.read_text()), samples)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [metric["name"] for metric in declared]
