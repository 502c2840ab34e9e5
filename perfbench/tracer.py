"""Per-layer tracing installed from outside the program.

The tracer replaces every public function of ``sod``, ``oracle``, ``models``,
``lattice`` and ``report`` with a timing wrapper.  A wrapper is installed on
every torsod module attribute that held the original function, because that
attribute is what a caller looks up at call time: ``models`` calls
``oracle.cohomology`` through the ``oracle`` module, while
``oracle_self_check`` resolves ``cohomology`` through ``oracle``'s own
globals.  Functions bound at import time in modules outside torsod would keep
the originals, so the tracer must be installed before the operation runs.

Each function gets a call count, its inclusive time (outermost activation
only, so recursion is not counted twice) and its self time (inclusive time
minus the inclusive time of traced callees).  Spans are kept in memory and
written as one JSON file by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("sod", "oracle", "models", "lattice", "report")

# Private lru caches of the oracle, read through cache_info() while they
# exist.  A counter whose caches are all gone is left out of the trace.
CACHE_COUNTERS = {
    "oracle.pattern_lookups": (("_pattern_cohomology", "_pattern_euler"),
                               "lookups"),
    "oracle.pattern_distinct": (("_pattern_cohomology", "_pattern_euler"),
                                "currsize"),
    "oracle.dot_lookups": (("_scaled_dots",), "lookups"),
    "oracle.box_labels": (("_certified_box",), "currsize"),
}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack = []          # one [child seconds] cell per active call
        self.stats = {}          # name -> [calls, inclusive s, self s, active]
        self.spans = []          # top-level calls: (name, start, end)
        self.counters = {}       # integer work counts
        self.seconds = {}        # self-check time per fan role
        self.distinct = {}       # name -> set of (id(fan), label)
        self.fans = {}           # id -> fan, kept alive so ids stay unique
        self.roles = {}          # id(fan) -> "target" | "source" | "fiber"
        self.hooks = {
            "sod.fully_faithful_check":
                lambda a, r, s: self.count("sod.fully_faithful_check.pairs",
                                           len(r.pairs)),
            "sod.semiorthogonality_check":
                lambda a, r, s: self.count(
                    "sod.semiorthogonality_check.entries", len(r.entries)),
            "sod.generation_certificate":
                lambda a, r, s: self.count("sod.generation_certificate.nodes",
                                           len(r.nodes)),
            "models.koszul_replay_check":
                lambda a, r, s: self.count("models.koszul_replay_check.nodes",
                                           r.total),
            "report.to_json_bytes":
                lambda a, r, s: self.count("report.json_bytes", len(r)),
            "oracle.cohomology": self._label_hook("oracle.cohomology"),
            "oracle.euler_characteristic":
                self._label_hook("oracle.euler_characteristic"),
            "models.canned_example": self._pair_hook,
            "models.fiber_model": self._fiber_hook,
            "oracle.oracle_self_check": self._self_check_hook,
        }

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def _label_hook(self, name):
        seen = self.distinct.setdefault(name, set())

        def hook(args, result, seconds):
            fan, label = args[0], args[1]
            self._keep(fan)
            seen.add((id(fan), tuple(int(x) for x in label)))
        return hook

    def _keep(self, fan):
        self.fans.setdefault(id(fan), fan)

    def _role(self, fan, role):
        self._keep(fan)
        self.roles[id(fan)] = role

    def _pair_hook(self, args, pair, seconds):
        self._role(pair.fan_y, "target")
        self._role(pair.fan_x, "source")

    def _fiber_hook(self, args, fiber, seconds):
        self._role(fiber.fan, "fiber")

    def _self_check_hook(self, args, result, seconds):
        role = self.roles.get(id(args[0]), "other")
        key = f"oracle.oracle_self_check.{role}.s"
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds

    def wrap(self, name, fn):
        stat = self.stats[name] = [0, 0.0, 0.0, 0]
        stack, spans, clock = self.stack, self.spans, self.clock
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += seconds - cell[0]
                if not stat[3]:
                    stat[1] += seconds
                if stack:
                    stack[-1][0] += seconds
                else:
                    spans.append((name, start - self.origin,
                                  start + seconds - self.origin))
            if hook is not None:
                hook(args, result, seconds)
            return result
        return traced

    def install(self):
        """Wrap the layers' public functions wherever torsod binds them."""
        import torsod.cli  # noqa: F401  (loads every torsod module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "torsod" or n.startswith("torsod.")]
        for layer in LAYERS:
            mod = sys.modules[f"torsod.{layer}"]
            for name, fn in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapper)
        report = sys.modules["torsod.report"]
        report.RunReport.to_json_bytes = self.wrap(
            "report.to_json_bytes", report.RunReport.to_json_bytes)

    def cache_counters(self):
        oracle = sys.modules["torsod.oracle"]
        out = {}
        for counter, (names, field) in CACHE_COUNTERS.items():
            infos = [getattr(getattr(oracle, n, None), "cache_info", None)
                     for n in names]
            infos = [info() for info in infos if info is not None]
            if not infos:
                continue
            if field == "lookups":
                out[counter] = sum(i.hits + i.misses for i in infos)
            else:
                out[counter] = sum(i.currsize for i in infos)
        return out

    def write(self, path):
        functions = {name: {"calls": s[0], "s": s[1], "self_s": s[2]}
                     for name, s in self.stats.items()}
        for name, seen in self.distinct.items():
            if name in functions:
                functions[name]["distinct"] = len(seen)
        data = {"functions": functions,
                "counters": {**self.counters, **self.cache_counters()},
                "seconds": self.seconds,
                "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
