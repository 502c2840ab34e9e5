"""The benchmark reads the oracle's private caches by name; keep them there."""

import importlib.util
from pathlib import Path

from torsod import oracle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_cache_counters_name_oracle_caches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = sorted({name for functions, _ in tracer.CACHE_COUNTERS.values()
                    for name in functions})
    assert names
    for name in names:
        assert hasattr(getattr(oracle, name, None), "cache_info"), name
