import random
from itertools import product
from math import comb

import pytest

from torsod import (
    canned_example,
    canned_fan,
    check_complete,
    cohomology,
    euler_characteristic,
    example_names,
    fiber_model,
    make_fan,
    oracle_self_check,
    section_count,
    serre_duality_check,
)
from torsod.errors import (
    DuplicateRay,
    NonPrimitiveRay,
    NonSimplicial,
    OracleBoxError,
    SchemaError,
)
from torsod.oracle import _certified_box, _negative_pattern, _pattern_cohomology


def graded_piece(fan, k, m):
    """Reference: cohomology dims contributed by the single character m."""
    return _pattern_cohomology(fan, _negative_pattern(fan, k, m))


def test_p1_line_bundles():
    p1 = canned_fan("p1")
    for deg in range(0, 5):
        assert cohomology(p1, (deg, 0)) == (deg + 1, 0)
    assert cohomology(p1, (-1, 0)) == (0, 0)
    for deg in range(2, 5):
        assert cohomology(p1, (-deg, 0)) == (0, deg - 1)
    # the two divisor classes agree on P^1
    assert cohomology(p1, (0, 3)) == (4, 0)


def test_p2_line_bundles():
    p2 = canned_fan("p2")
    assert cohomology(p2, (0, 0, 0)) == (1, 0, 0)
    assert cohomology(p2, (-3, 0, 0)) == (0, 0, 1)
    assert cohomology(p2, (-4, 0, 0)) == (0, 0, 3)
    for deg in range(0, 4):
        assert cohomology(p2, (deg, 0, 0)) == (comb(deg + 2, 2), 0, 0)
        assert section_count(p2, (deg, 0, 0)) == comb(deg + 2, 2)
    assert cohomology(p2, (-1, 0, 0)) == (0, 0, 0)
    assert cohomology(p2, (-2, 0, 0)) == (0, 0, 0)


def test_stacky_p1_sections():
    fan = canned_fan("stacky-p1")

    def expected(k1, k2):
        # characters m with 2m + k1 >= 0 and -m + k2 >= 0
        from math import ceil
        lo, hi = ceil(-k1 / 2), k2
        return max(0, hi - lo + 1)

    for k1 in range(-3, 4):
        for k2 in range(-3, 4):
            got = cohomology(fan, (k1, k2))[0]
            assert got == expected(k1, k2), (k1, k2)


def test_graded_piece():
    p1 = canned_fan("p1")
    # sections of O(D_0 + 0*D_1) live at characters m with m+1>=0, -m>=0
    assert graded_piece(p1, (1, 0), (0,)) == (1, 0)
    assert graded_piece(p1, (1, 0), (-1,)) == (1, 0)
    assert graded_piece(p1, (1, 0), (1,)) == (0, 0)
    assert graded_piece(p1, (1, 0), (-2,)) == (0, 0)
    # H^1 of O(-2) is carried by the single character strictly inside
    assert graded_piece(p1, (-2, 0), (1,)) == (0, 1)
    assert graded_piece(p1, (-2, 0), (-1,)) == (0, 0)


def test_euler_characteristic_matches_alternating_sum():
    p2 = canned_fan("p2")
    for k in [(0, 0, 0), (2, 1, 0), (-3, 0, 0), (-1, -1, -1), (4, -2, 1)]:
        dims = cohomology(p2, k)
        alt = sum((-1) ** q * h for q, h in enumerate(dims))
        assert euler_characteristic(p2, k) == alt


def test_serre_duality_p2():
    p2 = canned_fan("p2")
    report = serre_duality_check(p2, 2)
    assert report.checked == 125
    assert report.mismatches == ()


def test_self_checks_on_catalog_fans():
    for name in ("p1", "p2", "stacky-p1"):
        assert oracle_self_check(canned_fan(name), 3).ok, name


def test_check_complete_positive():
    for name in ("p1", "p2", "stacky-p1"):
        assert check_complete(canned_fan(name))


def test_check_complete_missing_cone():
    fan = make_fan(2, ((1, 0), (0, 1), (-1, -1)), (1, 1, 1),
                   ((0, 1), (1, 2)))
    assert not check_complete(fan)


def test_check_complete_overlapping_cones():
    fan = make_fan(2, ((1, 0), (-1, 1), (-1, -1), (0, 1)), (1, 1, 1, 1),
                   ((0, 1), (1, 2), (0, 2), (0, 3)))
    assert not check_complete(fan)


def test_check_complete_affine_line():
    fan = make_fan(1, ((1,),), (1,), ((0,),))
    assert not check_complete(fan)


def test_rank_zero_point():
    fan = make_fan(0, (), (), ((),))
    assert check_complete(fan)
    assert cohomology(fan, ()) == (1,)
    assert euler_characteristic(fan, ()) == 1


def test_validate_fan_rejects_bad_data():
    with pytest.raises(NonPrimitiveRay):
        make_fan(1, ((2,),), (1,), ((0,),))
    with pytest.raises(DuplicateRay):
        make_fan(1, ((1,), (1,)), (1, 1), ((0,), (1,)))
    with pytest.raises(SchemaError):
        make_fan(1, ((1,), (-1,)), (1,), ((0,), (1,)))
    with pytest.raises(SchemaError):
        make_fan(1, ((1,), (-1,)), (1, 0), ((0,), (1,)))
    with pytest.raises(SchemaError):
        make_fan(1, ((1,), (-1,)), (1, 1), ((0,), (5,)))
    with pytest.raises(NonSimplicial):
        make_fan(2, ((1, 0), (0, 1), (-1, 0)), (1, 1, 1),
                 ((0, 1), (0, 2), (1, 2)))
    # ray never used by any cone
    with pytest.raises(SchemaError):
        make_fan(1, ((1,), (-1,)), (1, 1), ((0,),))


def test_oracle_box_error_on_affine_fan():
    fan = make_fan(1, ((1,),), (1,), ((0,),))
    with pytest.raises(OracleBoxError):
        cohomology(fan, (0,))
    # P^2 with one maximal cone removed: an unbounded cell carries infinite
    # H^1, so every scan must refuse the fan rather than report (1, 0, 0).
    fan = make_fan(2, ((1, 0), (0, 1), (-1, -1)), (1, 1, 1),
                   ((0, 1), (1, 2)))
    for scan in (cohomology, euler_characteristic, section_count):
        with pytest.raises(OracleBoxError):
            scan(fan, (0, 0, 0))


@pytest.mark.parametrize("call", [
    lambda p1: cohomology(p1, (1,)),
    lambda p1: euler_characteristic(p1, (1, 0, 0)),
    lambda p1: section_count(p1, (1,)),
], ids=["cohomology", "euler", "sections"])
def test_label_and_character_lengths_are_checked(call):
    with pytest.raises(ValueError):
        call(canned_fan("p1"))


def _box_theorem_fans():
    fans = [canned_fan(name) for name in ("p1", "p2", "stacky-p1")]
    for name in example_names():
        pair = canned_example(name)
        fans += [pair.fan_y, pair.fan_x, fiber_model(pair).fan]
    return list(dict.fromkeys(fans))


def test_vertex_box_misses_nothing():
    """Reference scan over the vertex box widened by 3 on every side.

    Graded pieces are nonnegative, so equal totals mean that no character
    outside the vertex box contributes in any degree.
    """
    rng = random.Random(20120117)
    for fan in _box_theorem_fans():
        nrays = len(fan.rays)
        for _ in range(10):
            k = tuple(rng.randint(-7, 7) for _ in range(nrays))
            lo, hi = _certified_box(fan, k)
            dims = [0] * (fan.rank + 1)
            chi = 0
            sections = 0
            for m in product(*(range(a - 3, b + 4) for a, b in zip(lo, hi))):
                h = graded_piece(fan, k, m)
                dims = [x + y for x, y in zip(dims, h)]
                chi += sum((-1) ** q * x for q, x in enumerate(h))
                sections += all(
                    r * sum(a * b for a, b in zip(m, v)) + kj >= 0
                    for v, r, kj in zip(fan.rays, fan.orders, k))
            assert cohomology(fan, k) == tuple(dims), (fan, k)
            assert euler_characteristic(fan, k) == chi, (fan, k)
            assert section_count(fan, k) == sections, (fan, k)


def test_vertex_box_is_tight():
    # stacky-p1's vertices for this label are -1/2 and 0: only m = 0 is a
    # lattice point of their hull, so the box is the single character 0.
    assert _certified_box(canned_fan("stacky-p1"), (1, 0)) == ((0,), (0,))


def test_cohomology_reports_support():
    p1 = canned_fan("p1")
    assert cohomology(p1, (2, 0)) == (3, 0)
    # O(2) on P^1 is supported on the characters -2, -1 and 0
    support = [m for m in range(-5, 6) if any(graded_piece(p1, (2, 0), (m,)))]
    assert support == [-2, -1, 0]
    assert all(graded_piece(p1, (2, 0), (m,)) == (1, 0) for m in support)
