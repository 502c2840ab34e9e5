"""Command-line interface.

Three subcommands: ``classify`` (trichotomy of a local model), ``sod`` (the
full exact enumeration pipeline with its inequality certificates), and
``oracle`` (brute-force cohomology self-tests and cross-checks).  Exit codes:
0 all checks pass, 1 a mathematical check failed, 2 invalid input, 3 I/O
error.  Report files are byte-deterministic; timing goes to stdout only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from itertools import product

from . import __version__, errors, models, oracle, report, serialize, sod
from .extraction import MorphismKind, classify, sigma_alpha


def _fmt_label(label) -> str:
    return "(" + ",".join(str(x) for x in label) + ")"


def _fmt_weight(W: int, R: int) -> str:
    """The weight stored as the integer W = R * w, printed as the fraction w."""
    return serialize.fraction_str(Fraction(W, R))


def _load_datum(token):
    """Resolve a catalog name or datum JSON path.

    Returns (display name, datum, pair or None, input digest).
    """
    if token in models.example_names():
        pair = models.canned_example(token)
        digest = serialize.sha256_hex(serialize.canonical_json_bytes({
            "datum": serialize.datum_to_obj(pair.datum),
            "fan_x": serialize.fan_to_obj(pair.fan_x),
            "fan_y": serialize.fan_to_obj(pair.fan_y),
        }))
        return token, pair.datum, pair, digest
    if os.path.exists(token):
        obj, raw = serialize.load_json(token)
        datum = serialize.datum_from_obj(obj)
        return os.path.basename(token), datum, None, serialize.sha256_hex(raw)
    if os.sep in token or token.endswith(".json"):
        raise FileNotFoundError(token)
    raise errors.UnknownExample(
        f"unknown model {token!r}; available: "
        f"{', '.join(models.example_names())}")


def _load_fan_input(token):
    """Resolve an oracle input: model name, fan name, or fan JSON path.

    Returns (display name, pair or None, fan or None, digest).
    """
    if token in models.example_names():
        name, _, pair, digest = _load_datum(token)
        return name, pair, None, digest
    if token in models.fan_names():
        fan = models.canned_fan(token)
        digest = serialize.sha256_hex(
            serialize.canonical_json_bytes(serialize.fan_to_obj(fan)))
        return token, None, fan, digest
    if os.path.exists(token):
        obj, raw = serialize.load_json(token)
        fan = serialize.fan_from_obj(obj)
        return os.path.basename(token), None, fan, serialize.sha256_hex(raw)
    if os.sep in token or token.endswith(".json"):
        raise FileNotFoundError(token)
    raise errors.UnknownExample(
        f"unknown model or fan {token!r}; available models: "
        f"{', '.join(models.example_names())}; fans: "
        f"{', '.join(models.fan_names())}")


def _write_outputs(args, run: report.RunReport) -> None:
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(run.to_json_bytes())
    if args.markdown:
        with open(args.markdown, "w", encoding="ascii") as fh:
            fh.write(run.to_markdown() + "\n")


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    name, datum, _, digest = _load_datum(args.model)
    cls = classify(datum)
    rows = (
        {"kind": cls.kind.value,
         "sigma": serialize.fraction_str(cls.sigma),
         "sigma_alpha": serialize.fraction_str(sigma_alpha(datum)),
         "n": datum.n,
         "alpha": datum.alpha},
    )
    check = report.Check(
        name="classification", ok=True,
        summary=f"{cls.kind.value}, sigma = {serialize.fraction_str(cls.sigma)}",
        rows=rows)
    run = report.RunReport(
        tool="torsod", version=__version__,
        command=f"classify {name}",
        input_name=name, input_digest=digest, checks=(check,))
    return _finish(args, run)


# ---------------------------------------------------------------------------
# sod


def cmd_sod(args) -> int:
    name, datum, _, digest = _load_datum(args.model)
    # The certificate refuses an over-deep descent before any enumeration.
    bound = args.box
    targets = list(product(range(-bound, bound + 1), repeat=datum.n))
    cert = sod.generation_certificate(datum, targets,
                                      max_depth=args.max_depth)
    verdict = sod.verify_certificate(datum, cert)
    checks = []

    cls = classify(datum)
    checks.append(report.Check(
        name="classification", ok=True,
        summary=f"{cls.kind.value}, sigma = {serialize.fraction_str(cls.sigma)}",
        rows=({"kind": cls.kind.value,
               "sigma": serialize.fraction_str(cls.sigma)},)))

    dec = sod.decompose(datum)
    R = dec.ctx.R
    checks.append(report.Check(
        name="spanning-classes", ok=True,
        summary=f"{len(dec.spans)} classes in the spanning window",
        rows=tuple({"label": _fmt_label(s.label),
                    "w": _fmt_weight(s.W, R)} for s in dec.spans)))

    checks.append(report.Check(
        name="block-labels", ok=True,
        summary=f"{len(dec.blocks)} fiber blocks",
        rows=tuple({"label": _fmt_label(b.label),
                    "witness": b.witness,
                    "w": _fmt_weight(b.W, R),
                    "aliases": [_fmt_label(a) for a in b.aliases]}
                   for b in dec.blocks)))

    lhs, rhs, parts = sod.generator_count_identity(dec)
    checks.append(report.Check(
        name="count-identity", ok=lhs == rhs,
        summary=f"|Cl_local| = {lhs} vs {parts['spanning']} + "
                f"{parts['blocks']} * {parts['fiber_order']} = {rhs}",
        rows=({"lhs": lhs, "rhs": rhs, **parts},)))

    faithful = sod.fully_faithful_check(dec)
    checks.append(report.Check(
        name="fully-faithful", ok=faithful.ok,
        summary=f"{len(dec.spans)} classes, extremal delta_w = "
                f"{_fmt_weight(faithful.pairs[0].delta_W, R)}, "
                f"{len(faithful.koszul)} Koszul corners",
        rows=tuple({"source": _fmt_label(p.source),
                    "target": _fmt_label(p.target),
                    "delta_w": _fmt_weight(p.delta_W, R),
                    "within_bounds": p.within_bounds,
                    "higher_vanishing": p.higher_vanishing}
                   for p in faithful.pairs if not
                   (p.within_bounds and p.higher_vanishing))))

    ortho = sod.semiorthogonality_check(dec)
    checks.append(report.Check(
        name="semiorthogonality", ok=ortho.ok,
        summary=f"{len(ortho.entries)} vanishing certificates",
        rows=tuple({"kind": e.kind, "source": _fmt_label(e.source),
                    "target": _fmt_label(e.target),
                    "corner": _fmt_label(e.corner),
                    "label": _fmt_label(e.label), "reason": e.reason}
                   for e in ortho.entries if not e.certified)))

    checks.append(report.Check(
        name="generation-certificate", ok=verdict.ok,
        summary=f"{len(targets)} targets, {len(cert.nodes)} nodes, "
                f"{len(verdict.violations)} violations",
        rows=tuple({"code": code, "node": key, "detail": detail}
                   for code, key, detail in verdict.violations)))

    run = report.RunReport(
        tool="torsod", version=__version__,
        command=f"sod {name} --box {bound} --max-depth {args.max_depth}",
        input_name=name, input_digest=digest, checks=tuple(checks))
    return _finish(args, run)


# ---------------------------------------------------------------------------
# oracle


def _fan_self_check(tag: str, fan, bound: int) -> report.Check:
    res = oracle.oracle_self_check(fan, bound)
    rows = [{"complete": res.complete,
             "zero_label": res.zero_label_ok,
             "duality_checked": res.duality.checked,
             "duality_mismatches": len(res.duality.mismatches),
             "section_mismatches": len(res.section_mismatches),
             "euler_mismatches": len(res.euler_mismatches)}]
    return report.Check(
        name=f"self-check-{tag}", ok=res.ok,
        summary=f"{res.duality.checked} labels, duality/sections/euler",
        rows=tuple(rows))


def _cross_check_to_check(cc: models.CrossCheck) -> report.Check:
    return report.Check(
        name=cc.name, ok=cc.ok,
        summary=f"{cc.total} comparisons, {len(cc.failures)} failures",
        rows=tuple({"failure": f} for f in cc.failures))


def cmd_oracle(args) -> int:
    name, pair, fan, digest = _load_fan_input(args.model)
    bound = args.box
    checks = []
    if fan is not None:
        if args.verify_sod:
            raise errors.ModelMismatch(
                "--verify-sod needs a catalog model carrying a generator "
                "collection; a bare fan only supports self-checks")
        checks.append(_fan_self_check("fan", fan, bound))
    else:
        datum = pair.datum
        kind = classify(datum).kind
        fiber = models.fiber_model(pair)
        checks.append(_fan_self_check("target", pair.fan_y, min(bound, 2)))
        checks.append(_fan_self_check("source", pair.fan_x, min(bound, 2)))
        checks.append(_fan_self_check("fiber", fiber.fan, bound))
        if args.verify_sod and kind is not MorphismKind.EXTRACTION:
            checks.append(report.Check(
                name="sod-verification", ok=True,
                summary=f"skipped: a {kind.value} datum carries no "
                        "decomposition to verify",
                rows=()))
        elif args.verify_sod:
            dec = sod.decompose(datum)
            checks.append(_cross_check_to_check(
                models.fully_faithful_oracle_check(pair, dec)))
            checks.append(_cross_check_to_check(
                models.semiorthogonality_oracle_check(pair, dec, fiber)))
            checks.append(_cross_check_to_check(
                models.transfer_dichotomy_check(pair, dec, bound, fiber)))
            targets = [head + (0,) * (datum.n - datum.alpha)
                       for head in product(range(-bound, bound + 1),
                                           repeat=datum.alpha)]
            cert = sod.generation_certificate(datum, targets)
            verdict = sod.verify_certificate(datum, cert)
            replay = models.koszul_replay_check(pair, cert, fiber)
            checks.append(report.Check(
                name="certificate-verify", ok=verdict.ok,
                summary=f"{len(targets)} targets, {len(cert.nodes)} nodes",
                rows=tuple({"code": c, "node": k, "detail": t}
                           for c, k, t in verdict.violations)))
            checks.append(_cross_check_to_check(replay))
            checks.append(_cross_check_to_check(
                models.count_identity_check(dec)))

    command = f"oracle {name} --box {bound}"
    if args.verify_sod:
        command += " --verify-sod"
    run = report.RunReport(
        tool="torsod", version=__version__, command=command,
        input_name=name, input_digest=digest, checks=tuple(checks))
    return _finish(args, run)


# ---------------------------------------------------------------------------


def _finish(args, run: report.RunReport) -> int:
    elapsed = time.perf_counter() - args._t0
    _write_outputs(args, run)
    print(report.render_stdout(run, elapsed))
    return 0 if run.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsod",
        description="Exact semiorthogonal-decomposition workbench for "
                    "toric divisorial extractions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("model",
                       help="catalog name or JSON file "
                            f"(models: {', '.join(models.example_names())})")
        p.add_argument("--json", metavar="PATH",
                       help="write the canonical JSON report here")
        p.add_argument("--markdown", metavar="PATH",
                       help="write the markdown report here")

    def box(p, default):
        p.add_argument("--box", type=int, default=default,
                       help=f"label scan half-width (default {default})")

    p_classify = sub.add_parser("classify",
                                help="trichotomy of a local model")
    common(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_sod = sub.add_parser("sod",
                           help="exact enumeration pipeline with certificates")
    common(p_sod)
    box(p_sod, 6)
    p_sod.add_argument("--max-depth", type=int, default=64,
                       help="most Koszul descent steps the generation "
                            "certificate may take (default 64)")
    p_sod.set_defaults(func=cmd_sod)

    p_oracle = sub.add_parser("oracle",
                              help="cohomology self-tests and cross-checks")
    common(p_oracle)
    box(p_oracle, 4)
    p_oracle.add_argument("--verify-sod", action="store_true",
                          help="cross-check the enumerated decomposition "
                               "against brute-force cohomology (catalog "
                               "models only)")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    if args.cmd == "sod" and args.max_depth < 1:
        print("error: --max-depth must be positive", file=sys.stderr)
        return 2
    if args.cmd != "classify" and args.box < 0:
        print("error: --box must be nonnegative", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (errors.ValidationError, errors.RequiresExtraction,
            errors.UnknownExample, errors.DepthExceeded, errors.ModelMismatch,
            errors.DegenerateDatum) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except errors.TorsodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
