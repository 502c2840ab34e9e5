from dataclasses import replace
from itertools import product

import pytest

from torsod import (
    canned_example,
    canned_fan,
    cohomology,
    count_identity_check,
    datum_from_fans,
    decompose,
    euler_characteristic,
    example_names,
    fan_names,
    fiber_model,
    fully_faithful_oracle_check,
    generation_certificate,
    koszul_replay_check,
    semiorthogonality_oracle_check,
    transfer_dichotomy_check,
    transfer_label,
)
from torsod.errors import ModelMismatch, UnknownExample
from torsod.models import (_validate_pair, block_euler_characteristic,
                           x_label, y_label)


def test_catalogs_present():
    assert example_names() == ["a1-half", "a1-half-crepant", "a1-half-line",
                               "a2-third", "smooth-blowup"]
    assert fan_names() == ["p1", "p2", "stacky-p1"]
    with pytest.raises(UnknownExample):
        canned_example("a3-weird")
    with pytest.raises(UnknownExample):
        canned_fan("p3")


def test_pair_from_fans_round_trip(a1_half):
    assert datum_from_fans(a1_half.fan_x, a1_half.fan_y,
                           a1_half.exceptional_index) == (
        a1_half.datum, a1_half.x_rays, a1_half.y_rays)


def test_validate_pair_rejects_tampered_correspondence(a1_half):
    _validate_pair(a1_half)
    with pytest.raises(ModelMismatch):
        _validate_pair(replace(a1_half, y_rays=(1, 0)))
    with pytest.raises(ModelMismatch):
        _validate_pair(replace(a1_half, x_rays=(1, 0, 2)))
    # the fans give r = (2, 2, 1)
    for orders in ((1, 2, 1), (2, 2, 3)):
        with pytest.raises(ModelMismatch):
            _validate_pair(replace(
                a1_half, datum=replace(a1_half.datum, orders=orders)))
    for index in (0, 3):
        with pytest.raises(ModelMismatch):
            _validate_pair(replace(a1_half, exceptional_index=index))


def test_datum_from_fans_rejects_wrong_index(a1_half):
    with pytest.raises(ModelMismatch):
        datum_from_fans(a1_half.fan_x, a1_half.fan_y, exceptional_index=0)


def test_datum_from_fans_needs_one_extra_ray(a1_half):
    with pytest.raises(ModelMismatch):
        datum_from_fans(a1_half.fan_y, a1_half.fan_y)


def test_datum_from_fans_needs_matching_rays(a1_half):
    with pytest.raises(ModelMismatch):
        datum_from_fans(a1_half.fan_x, canned_fan("p2"))


def test_labels_spread_onto_fans(a1_half):
    assert y_label(a1_half, (2, -1)) == (2, -1, 0)
    assert x_label(a1_half, (2, -1, 5)) == (2, -1, 5, 0)
    with pytest.raises(ValueError):
        y_label(a1_half, (2, -1, 0))
    with pytest.raises(ValueError):
        x_label(a1_half, (2, -1))


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
