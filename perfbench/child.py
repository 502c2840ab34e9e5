"""One benchmark operation, run in a fresh interpreter by ``run.py``.

Usage::

    child.py [--trace TRACE.json] cli <torsod arguments...>
    child.py [--trace TRACE.json] replay REPORT.json
    child.py replay-setup

``cli`` runs the torsod command line exactly as the ``torsod`` console
script does.  ``replay`` is the body of acceptance criterion 5 driven through
the public API: for each extraction in the catalog it builds the generation
certificate on ``[-6, 6]^n``, verifies it and replays its Koszul nodes against
the oracle, then writes a report in the shape of the CLI's ``--json`` report.
``replay-setup`` only loads and validates the same models, which is the
set-up cost of ``replay``.

With ``--trace`` the layer wrappers of ``tracer.py`` are installed first and
the trace is written after the operation; the operation itself is unchanged.
"""

from __future__ import annotations

import json
import sys
from itertools import product

REPLAY_MODELS = ("a1-half", "a2-third", "a1-half-line")
REPLAY_BOX = 6


def replay_setup():
    from torsod import models

    for name in REPLAY_MODELS:
        models.fiber_model(models.canned_example(name))


def replay(out_path):
    from torsod import models, sod

    checks = []
    for name in REPLAY_MODELS:
        pair = models.canned_example(name)
        d = pair.datum
        targets = list(product(range(-REPLAY_BOX, REPLAY_BOX + 1),
                               repeat=d.n))
        cert = sod.generation_certificate(d, targets)
        verdict = sod.verify_certificate(d, cert)
        result = models.koszul_replay_check(pair, cert,
                                            models.fiber_model(pair))
        checks.append({
            "name": f"certificate-verify:{name}", "ok": verdict.ok,
            "rows": [{"targets": len(targets), "nodes": len(cert.nodes),
                      "violations": len(verdict.violations)}]})
        checks.append({
            "name": f"koszul-replay:{name}",
            "ok": result.ok and result.total > 0,
            "rows": [{"comparisons": result.total,
                      "failures": len(result.failures)}]})
    report = {"ok": all(c["ok"] for c in checks), "checks": checks}
    with open(out_path, "wb") as fh:
        fh.write(json.dumps(report, sort_keys=True,
                            separators=(",", ":")).encode("ascii"))
    return 0 if report["ok"] else 1


def run(args):
    kind, rest = args[0], args[1:]
    if kind == "cli":
        from torsod import cli

        return cli.main(rest)
    if kind == "replay":
        return replay(rest[0])
    if kind == "replay-setup":
        replay_setup()
        return 0
    raise SystemExit(f"unknown operation {kind!r}")


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if trace_path is None:
        return run(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = run(argv)
    tracer.write(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
