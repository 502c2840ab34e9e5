"""Benchmark harness for torsod: fixed workloads, one fresh process each.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed operation runs in a fresh interpreter, because the oracle's
caches are module-level and last as long as the process: a user's CLI call
always pays the cold cost.  Children run one at a time from this process with
a fixed environment (``CHILD_ENV``).  Each operation's output is checked
against ``reference.json``, recorded when the benchmark was defined; an
operation that exits non-zero, reports a failed check, reports other checks,
or does a different amount of work than the reference counts as failed.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` and ``peak_rss_mb``
(medians over the verified operations, RSS from ``os.wait4``) and ``setup_s``
(median over several fresh processes that only load and validate the
workload's inputs).  ``--trace 1`` runs the operation once untraced and once
under ``tracer.py``, checks that both write the same report bytes, and
reports the per-layer metrics.

``--seed`` only shuffles the order of the operations within a run; the inputs
are fixed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the host context and every sample, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import CACHE_COUNTERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NOTE = ("shared 2-CPU sandbox, per-process measurement only, "
        "no system-wide profilers")
SETUP_PROBES = 9
RUN_DEADLINE_S = 170.0
CALIBRATION_LOOP = 1_000_000

# The whole environment of every child: TORSOD_THREADS is unset on purpose,
# and a fixed hash seed keeps set iteration order, and so the work, the same.
CHILD_ENV = {
    "PATH": os.environ.get("PATH", os.defpath),
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
}

STRESS = str(BENCH / "data" / "stress.json")


@dataclass(frozen=True)
class Workload:
    op: tuple[str, ...]      # child.py arguments; "{report}" is the output
    setup: tuple[str, ...]   # child.py arguments that only load the inputs


WORKLOADS = {
    "sod-stress": Workload(
        op=("cli", "sod", STRESS, "--box", "6", "--json", "{report}"),
        setup=("cli", "classify", STRESS)),
    "oracle-line": Workload(
        op=("cli", "oracle", "a1-half-line", "--verify-sod",
            "--json", "{report}"),
        setup=("cli", "classify", "a1-half-line")),
    "replay-catalog": Workload(op=("replay", "{report}"),
                               setup=("replay-setup",)),
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics of the traced run.  "<function>.<field>" reads a
# function's calls, inclusive s, self_s or distinct labels; any other name is
# a counter of the trace or is computed in per_layer_metrics().
PER_LAYER = {
    "sod.spanning_classes.s": "s",
    "sod.block_labels.s": "s",
    "sod.generator_count_identity.s": "s",
    "sod.fully_faithful_check.s": "s",
    "sod.fully_faithful_check.pairs": "count",
    "sod.semiorthogonality_check.s": "s",
    "sod.semiorthogonality_check.entries": "count",
    "sod.generation_certificate.s": "s",
    "sod.generation_certificate.nodes": "count",
    "sod.verify_certificate.s": "s",
    "sod.transfer_is_invertible.calls": "count",
    "sod.transfer_is_invertible.s": "s",
    "oracle.oracle_self_check.target.s": "s",
    "oracle.oracle_self_check.source.s": "s",
    "oracle.oracle_self_check.fiber.s": "s",
    "oracle.cohomology.calls": "count",
    "oracle.cohomology.distinct": "count",
    "oracle.cohomology.self_s": "s",
    "oracle.euler_characteristic.calls": "count",
    "oracle.euler_characteristic.distinct": "count",
    "oracle.euler_characteristic.self_s": "s",
    "oracle.section_count.calls": "count",
    "oracle.section_count.self_s": "s",
    "oracle.serre_duality_check.s": "s",
    "oracle.check_complete.calls": "count",
    "oracle.check_complete.s": "s",
    "oracle.pattern_lookups": "count",
    "oracle.pattern_distinct": "count",
    "oracle.dot_lookups": "count",
    "oracle.box_labels": "count",
    "models.koszul_replay_check.self_s": "s",
    "models.koszul_replay_check.nodes": "count",
    "models.transfer_dichotomy_check.self_s": "s",
    "models.fully_faithful_oracle_check.self_s": "s",
    "models.semiorthogonality_oracle_check.self_s": "s",
    "models.transfer_label.calls": "count",
    "models.canned_example.s": "s",
    "models.fiber_model.s": "s",
    "lattice.determinant.calls": "count",
    "lattice.determinant.s": "s",
    "lattice.solve_integer.calls": "count",
    "lattice.solve_integer.s": "s",
    "lattice.cokernel.calls": "count",
    "lattice.cokernel.s": "s",
    "lattice.rank_q.calls": "count",
    "report.to_json_bytes.s": "s",
    "report.json_bytes": "bytes",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
    "failed_ratio": "fraction",
}


@dataclass
class Sample:
    kind: str                # "op", "setup" or "traced"
    wall_s: float
    rss_mb: float
    failure: str | None      # None when the output was verified


# ---------------------------------------------------------------------------
# Children


def spawn(args, tmp: Path, deadline: float):
    """Run child.py with ``args``; return (exit code, wall s, peak RSS MB).

    Wall time runs from just before the spawn to the reaping of the child.
    A child still running at ``deadline`` (a perf_counter value) is killed.
    """
    argv = [sys.executable, str(BENCH / "child.py"), *args]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(tmp / "stderr.txt"),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, CHILD_ENV,
                         file_actions=actions)
    reaped = False
    try:
        signal.signal(signal.SIGALRM,
                      lambda *_: os.kill(pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 1e-3))
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def invariant(report: dict, key: str):
    """Work count ``<check>.<field>`` of a report, or None when absent.

    Read from the check's structured rows: ``rows`` is the row count, any
    other field a key of the first row.  Only counts a check states nowhere
    else (certificate targets and nodes, cross-check comparisons) are read
    from its summary.
    """
    name, field = key.rsplit(".", 1)
    check = next((c for c in report.get("checks", ())
                  if c.get("name") == name), None)
    if check is None:
        return None
    rows = check.get("rows", [])
    if field == "rows":
        return len(rows)
    if rows and field in rows[0]:
        return rows[0][field]
    found = re.search(rf"(\d+) {re.escape(field)}\b", check.get("summary", ""))
    return int(found.group(1)) if found else None


def verify(report_bytes: bytes | None, reference: dict) -> str | None:
    """Why a report fails its reference, or None when it passes."""
    if report_bytes is None:
        return "no report written"
    try:
        report = json.loads(report_bytes)
    except ValueError:
        return "report is not JSON"
    checks = report.get("checks", [])
    failed = [c.get("name") for c in checks if c.get("ok") is not True]
    if failed:
        return f"checks not ok: {failed}"
    names = sorted(c.get("name") for c in checks)
    if names != sorted(reference["checks"]):
        return f"checks {names} differ from the reference"
    for key, want in reference["invariants"].items():
        got = invariant(report, key)
        if got != want:
            return f"{key} = {got}, reference {want}"
    return None


def run_op(workload: Workload, reference: dict, tmp: Path, deadline: float,
           kind: str = "op"):
    """One verified operation; returns (Sample, report bytes or None)."""
    report_path = tmp / "report.json"
    trace_path = tmp / "trace.json"
    for path in (report_path, trace_path):
        path.unlink(missing_ok=True)
    args = [a.replace("{report}", str(report_path)) for a in workload.op]
    if kind == "traced":
        args = ["--trace", str(trace_path), *args]
    code, wall, rss = spawn(args, tmp, deadline)
    data = report_path.read_bytes() if report_path.exists() else None
    failure = f"exit code {code}" if code else verify(data, reference)
    return Sample(kind, wall, rss, failure), data


def run_setup(workload: Workload, tmp: Path, deadline: float) -> Sample:
    code, wall, rss = spawn(workload.setup, tmp, deadline)
    return Sample("setup", wall, rss, f"exit code {code}" if code else None)


# ---------------------------------------------------------------------------
# Runs


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is right now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOP):
            x = (x * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, reference, rng, seconds, tmp, deadline):
    """Rounds of one operation plus set-up probes, in a seeded order.

    A new round starts only when a round of median length still fits in
    ``seconds``; at least one round runs.  Set-up probes the rounds did not
    take run at the end.
    """
    samples = []
    probes = SETUP_PROBES
    rounds = []
    start = time.perf_counter()
    while True:
        items = ["op"] + ["setup"] * min(2, probes)
        probes -= len(items) - 1
        rng.shuffle(items)
        began = time.perf_counter()
        for item in items:
            if item == "op":
                samples.append(run_op(workload, reference, tmp, deadline)[0])
            else:
                samples.append(run_setup(workload, tmp, deadline))
        now = time.perf_counter()
        rounds.append(now - began)
        typical = statistics.median(rounds)
        if now - start + typical > seconds or now + typical > deadline:
            break
    for _ in range(probes):
        if time.perf_counter() > deadline:
            break
        samples.append(run_setup(workload, tmp, deadline))
    return samples


def end_to_end_metrics(samples):
    ops = [s for s in samples if s.kind == "op" and s.failure is None]
    setups = [s for s in samples if s.kind == "setup" and s.failure is None]
    if not ops or not setups:
        return None
    values = {
        "wall_s": statistics.median(s.wall_s for s in ops),
        "peak_rss_mb": statistics.median(s.rss_mb for s in ops),
        "setup_s": statistics.median(s.wall_s for s in setups),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_run(workload, reference, rng, tmp, deadline):
    """One untraced and one traced operation, in a seeded order.

    Returns the two samples and the trace, or None when no trace was written.
    The traced operation fails unless its report bytes equal the untraced
    operation's.
    """
    samples, reports, trace = {}, {}, None
    for kind in rng.sample(["op", "traced"], 2):
        samples[kind], reports[kind] = run_op(workload, reference, tmp,
                                              deadline, kind)
        if kind == "traced" and (tmp / "trace.json").exists():
            trace = json.loads((tmp / "trace.json").read_text())
    traced = samples["traced"]
    if traced.failure is None and reports["traced"] != reports["op"]:
        traced.failure = "traced report bytes differ from the untraced ones"
    return [samples["op"], traced], trace


def per_layer_metrics(trace, samples):
    untraced, traced = samples
    functions = trace["functions"]
    values = {**trace["counters"], **trace["seconds"]}
    spans = sum(end - start for _, start, end in trace["spans"])
    values["cli.other_s"] = traced.wall_s - spans
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    values["failed_ratio"] = (sum(s.failure is not None for s in samples)
                              / len(samples))
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name not in values:
            if name in CACHE_COUNTERS:
                continue  # the oracle's private cache is gone
            function, field = name.rsplit(".", 1)
            values[name] = functions.get(function, {}).get(
                field, 0.0 if unit == "s" else 0)
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (ROOT / "src" / "torsod" / "__init__.py").is_file():
        print(f"error: no torsod sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())
    reference = reference["workloads"][args.workload]
    rng = random.Random(args.seed)
    out_dir = ROOT / ".perfbench"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run_setup(workload, tmp, deadline)  # warm-up: byte-compiles sources
        calibration = [calibrate()]
        if args.trace:
            samples, trace = traced_run(workload, reference, rng, tmp,
                                        deadline)
            metrics = trace and per_layer_metrics(trace, samples)
        else:
            samples = measure(workload, reference, rng, args.seconds, tmp,
                              deadline)
            metrics = end_to_end_metrics(samples)
        calibration.append(calibrate())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(s.failure is not None for s in samples)
    for s in samples:
        if s.failure:
            print(f"failed {s.kind}: {s.failure}", file=sys.stderr)
    if not metrics:
        print("error: no verified operation or trace to report",
              file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    context = {
        "note": NOTE, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": calibration, "child_env": CHILD_ENV,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "samples": [vars(s) for s in samples],
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(
        json.dumps({**context, "result": result}, indent=1) + "\n")
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
