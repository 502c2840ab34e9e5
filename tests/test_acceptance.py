"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Each test prints ``ACCEPT-n <name>: PASS`` (or FAIL) before asserting, so a
``pytest -s tests/test_acceptance.py`` run reads as a checklist.  Budgets are
wall-clock seconds measured around the mathematical work.
"""

import json
import time
from fractions import Fraction
from itertools import product

from torsod import (
    MorphismKind,
    canned_example,
    canned_fan,
    classify,
    cohomology,
    decompose,
    fiber_transfer_vanishes,
    generation_certificate,
    make_datum,
    oracle_self_check,
    verify_certificate,
)
from torsod.cli import main
from torsod.extraction import datum_context
from torsod.models import (
    fiber_model,
    fully_faithful_oracle_check,
    koszul_replay_check,
    semiorthogonality_oracle_check,
    transfer_dichotomy_check,
    transfer_label,
)

import props


def _verdict(n, name, ok, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.2f}s of {budget:.0f}s budget)"
    print(f"ACCEPT-{n} {name}: {status}{timing}")
    return ok


def _extraction_pairs():
    out = []
    for name in ("a1-half", "a2-third", "a1-half-line"):
        out.append(canned_example(name))
    return out


def test_accept_1_trichotomy():
    expected = {
        "a1-half": MorphismKind.EXTRACTION,
        "a2-third": MorphismKind.EXTRACTION,
        "a1-half-line": MorphismKind.EXTRACTION,
        "a1-half-crepant": MorphismKind.LOG_CREPANT,
        "smooth-blowup": MorphismKind.CONTRACTION,
    }
    ok = True
    for name, kind in expected.items():
        datum = canned_example(name).datum
        per_call = []
        for _ in range(5):
            t0 = time.perf_counter()
            got = classify(datum)
            per_call.append(time.perf_counter() - t0)
        ok = ok and got.kind is kind and min(per_call) < 0.001
    # exact sigma values drive the trichotomy
    ok = ok and classify(canned_example("a1-half").datum).sigma == -1
    ok = ok and classify(canned_example("a1-half-crepant").datum).sigma == 0
    ok = ok and classify(canned_example("smooth-blowup").datum).sigma == 1
    # order twists flip the class of the same ray data
    flipped = make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2), (1, 1, 2))
    ok = ok and classify(flipped).kind is MorphismKind.CONTRACTION
    assert _verdict(1, "trichotomy", ok)


def test_accept_2_transfer_vanishing_vs_oracle():
    budget = 10.0
    t0 = time.perf_counter()
    pair = canned_example("a1-half")
    d = pair.datum
    ctx = datum_context(d)
    a_last, r_last = d.coefficients[d.n], d.orders[d.n]

    # the fast divisibility test must agree with an exact re-derivation of
    # the solved last exponent on every label in the box
    ok = True
    for k in product(range(-4, 5), repeat=d.n):
        partial = sum(Fraction(d.coefficients[i] * k[i], d.orders[i])
                      for i in range(d.n))
        solved = -Fraction(r_last, a_last) * partial
        derived = not (solved.denominator == 1
                       and solved.numerator % r_last == 0)
        ok = ok and fiber_transfer_vanishes(ctx, k) == derived

    # the corner offsets entering the faithfulness argument (indicator
    # vectors over the center rays) must certify and the oracle must see
    # the transferred object vanish in every degree, both signs
    fib = fiber_model(pair)
    for subset in ((0,), (1,), (0, 1)):
        delta = tuple(1 if i in subset else 0 for i in range(d.n))
        s = sum(Fraction(d.coefficients[i], d.orders[i]) for i in subset)
        ok = ok and 0 < s < Fraction(abs(a_last), r_last)
        ok = ok and fiber_transfer_vanishes(ctx, delta)
        for sign in (1, -1):
            moved = transfer_label(pair, fib,
                                   tuple(sign * x for x in delta))
            ok = ok and (moved is None
                         or not any(cohomology(fib.fan, moved).dims))

    res = transfer_dichotomy_check(pair, decompose(d), 4, fib)
    elapsed = time.perf_counter() - t0
    ok = ok and res.ok and res.total == 81 and elapsed < budget
    assert _verdict(2, "transfer-vanishing vs oracle", ok, elapsed, budget), \
        res.failures[:5]


def test_accept_3_fully_faithful_against_oracle():
    budget = 30.0
    t0 = time.perf_counter()
    ok = True
    for pair in _extraction_pairs():
        res = fully_faithful_oracle_check(pair, decompose(pair.datum))
        ok = ok and res.ok and res.total > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    assert _verdict(3, "fully-faithful Hom agreement", ok, elapsed, budget)


def test_accept_4_semiorthogonality_against_oracle():
    budget = 60.0
    t0 = time.perf_counter()
    ok = True
    for pair in _extraction_pairs():
        res = semiorthogonality_oracle_check(pair, decompose(pair.datum),
                                             fiber_model(pair))
        ok = ok and res.ok and res.total > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    assert _verdict(4, "semiorthogonality Ext vanishing", ok, elapsed, budget)


def test_accept_5_generation_certificates():
    budget = 30.0
    t0 = time.perf_counter()
    ok = True
    for pair in _extraction_pairs():
        d = pair.datum
        targets = list(product(range(-6, 7), repeat=d.n))
        cert = generation_certificate(d, targets)
        verdict = verify_certificate(d, cert)
        replay = koszul_replay_check(pair, cert, fiber_model(pair))
        ok = ok and verdict.ok and replay.ok and replay.total > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    assert _verdict(5, "generation certificates + Euler replay",
                    ok, elapsed, budget)


def test_accept_6_oracle_self_validation():
    budget = 60.0
    t0 = time.perf_counter()
    p1 = canned_fan("p1")
    ok = True
    for deg in range(6):
        ok = ok and cohomology(p1, (deg, 0)).dims == (deg + 1, 0)
    ok = ok and cohomology(p1, (-2, 0)).dims == (0, 1)
    ok = ok and cohomology(canned_fan("p2"), (0, 0, 0)).dims == (1, 0, 0)
    # Serre duality + section counts + Euler pairing over [-4,4]^rays
    for name in ("p1", "p2", "stacky-p1"):
        ok = ok and oracle_self_check(canned_fan(name), 4).ok
    pair = canned_example("a1-half")
    ok = ok and oracle_self_check(pair.fan_y, 4).ok
    ok = ok and oracle_self_check(pair.fan_x, 4).ok
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < budget
    assert _verdict(6, "oracle self-validation + Serre duality",
                    ok, elapsed, budget)


def test_accept_7_deterministic_reports(tmp_path, capsys):
    sod_paths = [tmp_path / "s1.json", tmp_path / "s2.json"]
    oracle_paths = [tmp_path / "o1.json", tmp_path / "o2.json"]
    codes = []
    for p in sod_paths:
        codes.append(main(["sod", "a1-half", "--box", "3",
                           "--json", str(p)]))
    for p in oracle_paths:
        codes.append(main(["oracle", "a1-half", "--box", "2", "--verify-sod",
                           "--json", str(p)]))
    capsys.readouterr()
    same = (sod_paths[0].read_bytes() == sod_paths[1].read_bytes()
            and oracle_paths[0].read_bytes() == oracle_paths[1].read_bytes())
    parsed = json.loads(sod_paths[0].read_bytes())
    ok = codes == [0, 0, 0, 0] and same and parsed["ok"] is True
    with capsys.disabled():
        _verdict(7, "byte-identical JSON reports", ok)
    assert ok


def test_accept_8_property_suites():
    ok = True
    for runner in props.ALL_RUNNERS:
        try:
            runner(1000)
        except AssertionError:
            ok = False
            break
    assert _verdict(8, "property suites at 1000 cases", ok)
