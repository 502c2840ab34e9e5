import random
from collections import Counter
from dataclasses import replace
from itertools import product
from math import gcd

import pytest

from torsod import (
    MorphismKind,
    canned_example,
    canned_fan,
    classify,
    cohomology,
    count_identity_check,
    decompose,
    euler_characteristic,
    example_names,
    fan_names,
    fiber_model,
    fully_faithful_oracle_check,
    generation_certificate,
    koszul_replay_check,
    make_datum,
    semiorthogonality_oracle_check,
    transfer_dichotomy_check,
    transfer_label,
)
from torsod import lattice
from torsod.errors import ModelMismatch, UnknownExample
from torsod.models import (_compact_pair, _validate_pair,
                           block_euler_characteristic, x_label, y_label)

# v_2 = (p, q) for the random surface draws: q in 1..4, p in -3..3, coprime.
_V2 = [(p, q) for q in range(1, 5) for p in range(-3, 4) if gcd(p, q) == 1]


def _surface_draws(seed, count):
    """Random rank-2 datums: v_1 = (1, 0), v_E inside the cone of v_1, v_2."""
    rng = random.Random(seed)
    for _ in range(count):
        p, q = rng.choice(_V2)
        c1, c2 = rng.randint(1, 4), rng.randint(1, 4)
        ve, g = lattice.primitivize((c1 + c2 * p, c2 * q))
        h = gcd(gcd(c1, c2), g)
        yield make_datum(((1, 0), (p, q), ve), (c1 // h, c2 // h, -g // h),
                         (rng.randint(1, 4), rng.randint(1, 4),
                          rng.randint(1, 2)))


def _opposite(rays):
    """The primitive vector of -(sum of ``rays``)."""
    return lattice.primitivize([-sum(c) for c in zip(*rays)])[0]


def test_catalogs_present():
    assert example_names() == ["a1-half", "a1-half-crepant", "a1-half-line",
                               "a2-third", "smooth-blowup"]
    assert fan_names() == ["p1", "p2", "stacky-p1"]
    with pytest.raises(UnknownExample):
        canned_example("a3-weird")
    with pytest.raises(UnknownExample):
        canned_fan("p3")


def test_catalog_extra_rays_follow_their_rules():
    # surfaces: -(v_1 + v_2 + v_E) before v_E; the line: -(v_1 + v_2 + v_3)
    # after it, the rule a compactifier of any datum would use
    for name in example_names():
        pair = canned_example(name)
        d = pair.datum
        extra = pair.fan_y.rays[-1]
        if d.n == 2:
            assert extra == _opposite(d.rays)
            assert pair.exceptional_index == 2
        else:
            assert extra == _opposite(d.rays[:d.n])
            assert pair.exceptional_index == d.n + 1


def test_compact_pair_on_random_surfaces():
    # _compact_pair runs _validate_pair: each draw's fans must be complete
    # and carry the drawn datum's rays and orders.  Every draw is kept, whatever its kind.
    kinds = Counter()
    for d in _surface_draws(seed=7, count=300):
        _compact_pair("draw", d, _opposite(d.rays), 2)
        kinds[classify(d).kind] += 1
    assert set(kinds) == set(MorphismKind), kinds


def test_compact_pair_simplex_rule_on_stress(stress_datum):
    d = stress_datum
    pair = _compact_pair("stress", d, _opposite(d.rays[:d.n]), d.n + 1)
    fib = fiber_model(pair)   # raises unless the fiber fan is complete
    assert fib.fan.rank == 1
    assert len(fib.fan.rays) == 2


def test_validate_pair_rejects_tampered_correspondence(a1_half):
    _validate_pair(a1_half)
    # the fans give r = (2, 2, 1)
    for orders in ((1, 2, 1), (2, 2, 3)):
        with pytest.raises(ModelMismatch):
            _validate_pair(replace(
                a1_half, datum=replace(a1_half.datum, orders=orders)))
    for index in (0, 3):
        with pytest.raises(ModelMismatch):
            _validate_pair(replace(a1_half, exceptional_index=index))


def test_labels_spread_onto_fans(a1_half):
    assert y_label(a1_half, (2, -1)) == (2, -1, 0)
    assert x_label(a1_half, (2, -1, 5)) == (2, -1, 5, 0)
    with pytest.raises(ValueError):
        y_label(a1_half, (2, -1, 0))
    with pytest.raises(ValueError):
        x_label(a1_half, (2, -1))


def test_y_label_refuses_non_integers(a1_half):
    with pytest.raises(TypeError):
        y_label(a1_half, (1.5, 0))


def test_x_label_refuses_non_integers(a1_half):
    with pytest.raises(TypeError):
        x_label(a1_half, (1, 0, 2.7))


def test_transfer_label_refuses_non_integers(a1_half_line):
    # the float is read as a label before any character is solved for
    with pytest.raises(TypeError):
        transfer_label(a1_half_line, fiber_model(a1_half_line), (2.5, 2, 3))


def test_labels_follow_the_fan_layout():
    # A unit label e_i must be nonzero on exactly the fan ray whose ray and
    # order are (v_i, r_i).  The target has no v_E, so e_E is zero there, and
    # the target's extra ray is zero on every label.
    for name in example_names():
        pair = canned_example(name)
        d = pair.datum
        local = list(zip(d.rays, d.orders))
        source = list(zip(pair.fan_x.rays, pair.fan_x.orders))
        target = list(zip(pair.fan_y.rays, pair.fan_y.orders))
        for i in range(d.n + 1):
            unit = [int(j == i) for j in range(d.n + 1)]
            x = x_label(pair, unit)
            y = y_label(pair, unit[:d.n])
            assert [source[j] for j, k in enumerate(x) if k] == [local[i]]
            assert [target[j] for j, k in enumerate(y) if k] == (
                [local[i]] if i < d.n else []), (name, i)


def test_fiber_model_point_center(a1_half):
    fib = fiber_model(a1_half)
    assert fib.fan.rank == 0
    assert fib.source_rays == ()
    assert cohomology(fib.fan, ()) == (1,)


def test_fiber_model_line_center(a1_half_line):
    fib = fiber_model(a1_half_line)
    assert fib.fan.rank == 1
    assert sorted(fib.fan.rays) == [(-1,), (1,)]
    assert fib.fan.orders == (1, 1)
    assert len(fib.source_rays) == 2


def test_transfer_label_solvability(a1_half_line):
    fib = fiber_model(a1_half_line)
    d = a1_half_line.datum
    assert transfer_label(a1_half_line, fib, (0, 0, 0)) == (0, 0)
    # odd first exponent: no character solves 2 m_1 = 1
    assert transfer_label(a1_half_line, fib, (1, 0, 0)) is None
    assert transfer_label(a1_half_line, fib, (1, 1, 0)) is None
    # solvable labels land in a well-defined class on the fiber P^1: the
    # degree (sum of the two exponents) does not depend on which character
    # the solver picks, and it includes the twist at the compactifying ray
    got = transfer_label(a1_half_line, fib, (2, 2, 3))
    assert got is not None
    assert sum(got) == 5
    got = transfer_label(a1_half_line, fib, (0, 4, 0))
    assert got is not None
    assert sum(got) == 2


def test_block_euler_characteristics(a1_half_line):
    fib = fiber_model(a1_half_line)
    # unsolvable labels transfer to zero
    assert block_euler_characteristic(a1_half_line, fib, (0, 1, 0)) == 0
    # (2,2,3) transfers to degree 5 on P^1: chi = 6
    assert block_euler_characteristic(a1_half_line, fib, (2, 2, 3)) == 6


def test_koszul_replay_on_certificates(extraction_pairs):
    for pair in extraction_pairs:
        d = pair.datum
        heads = product(range(-2, 3), repeat=d.alpha)
        targets = [h + (0,) * (d.n - d.alpha) for h in heads]
        cert = generation_certificate(d, targets)
        fib = fiber_model(pair)
        replay = koszul_replay_check(pair, cert, fib)
        assert replay.ok, (pair.name, replay.failures[:3])
        assert replay.total > 0


def test_transfer_dichotomy(extraction_pairs):
    for pair in extraction_pairs:
        res = transfer_dichotomy_check(pair, decompose(pair.datum), 4,
                                       fiber_model(pair))
        assert res.ok, (pair.name, res.failures[:3])
        assert res.total == 9 ** pair.datum.alpha


def test_transfer_dichotomy_refuses_a_negative_bound(a1_half):
    with pytest.raises(ValueError):
        transfer_dichotomy_check(a1_half, decompose(a1_half.datum), -1,
                                 fiber_model(a1_half))


def test_fully_faithful_against_oracle(extraction_pairs):
    for pair in extraction_pairs:
        res = fully_faithful_oracle_check(pair, decompose(pair.datum))
        assert res.ok, (pair.name, res.failures[:3])


def test_semiorthogonality_against_oracle(extraction_pairs):
    for pair in extraction_pairs:
        res = semiorthogonality_oracle_check(pair, decompose(pair.datum),
                                             fiber_model(pair))
        assert res.ok, (pair.name, res.failures[:3])


def test_count_identity_against_oracle(extraction_pairs):
    for pair in extraction_pairs:
        res = count_identity_check(decompose(pair.datum))
        assert res.ok, (pair.name, res.failures)


def test_model_fans_agree_with_euler_duality(a2_third):
    # chi is a derived invariant of the pair: the pushforward of the
    # structure sheaf preserves Euler characteristics of window classes
    d = a2_third.datum
    for cls in decompose(d).spans:
        ex = euler_characteristic(a2_third.fan_x, x_label(a2_third, cls.label))
        ey = euler_characteristic(a2_third.fan_y,
                                  y_label(a2_third, cls.label[:d.n]))
        assert ex == ey
