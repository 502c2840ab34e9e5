"""The benchmark reads the oracle's private caches by name; keep them there."""

import importlib.util
from pathlib import Path

from torsod import canned_fan, cohomology, euler_characteristic, section_count
from torsod import oracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
