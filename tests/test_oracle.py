import ast
import random
import re
from collections import Counter, defaultdict
from dataclasses import fields, replace
from itertools import combinations, product
from math import comb, gcd, prod
from pathlib import Path

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
)
from torsod.errors import (
    DuplicateRay,
    NonPrimitiveRay,
    NonSimplicial,
    OracleBoxError,
    SchemaError,
    ValidationError,
)
from torsod import lattice, oracle
from torsod.oracle import (
    _certified_box,
    _pattern_counts,
    _pattern_cohomology,
    _pattern_euler,
    _scaled_dots,
    _scan_kernel,
)

from props import ref_check_complete, ref_oracle_self_check, ref_vertex_box
from test_golden import GOLDEN, run_command


def negative_pattern(fan, k, m):
    """Reference: the rays j with r_j <m, v_j> + k_j < 0, read off the fan."""
    return frozenset(
        j for j, (v, r, kj) in enumerate(zip(fan.rays, fan.orders, k))
        if r * sum(a * b for a, b in zip(m, v)) + kj < 0)


def graded_piece(fan, k, m):
    """Reference: cohomology dims contributed by the single character m."""
    return _pattern_cohomology(fan, negative_pattern(fan, k, m))


def face_count_euler(fan, pattern):
    """Reference: 1 - chi of the full subcomplex on ``pattern``.

    The nonempty faces of the maximal cones that lie in ``pattern``, counted
    with sign (-1)^(dim), straight from the fan's cone list.
    """
    faces = {frozenset(face) for cone in fan.max_cones
             for size in range(1, len(cone) + 1)
             for face in combinations(cone, size)}
    return 1 - sum((-1) ** (len(f) - 1) for f in faces if f <= pattern)


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
    report = oracle_self_check(canned_fan("p2"), 2)
    assert report.ok and report.checked == 125
    assert report.duality_mismatches == ()


def _clear_scan_memos():
    _scan_kernel.cache_clear()
    _pattern_euler.cache_clear()
    _pattern_cohomology.cache_clear()


@pytest.mark.parametrize("name, mutate, counts", [
    ("_pattern_euler", lambda chi, p: chi + (len(p) == 3), (0, 0, 20)),
    ("_pattern_cohomology",                     # h^0 <-> h^2 on the full one
     lambda dims, p: dims[::-1] if len(p) == 3 else dims, (92, 20, 0)),
    ("_pattern_cohomology",
     lambda dims, p: dims if p else (2,) + dims[1:], (92, 72, 72)),
], ids=["euler-full", "swap-full", "h0-empty"])
def test_each_self_check_comparison_can_fail(monkeypatch, name, mutate,
                                             counts):
    """A mutant pattern table shows up in the comparisons that read it."""
    table = getattr(oracle, name)
    monkeypatch.setattr(oracle, name,
                        lambda fan, p: mutate(table(fan, p), p))
    _clear_scan_memos()
    try:
        report = oracle_self_check(canned_fan("p2"), 2)
    finally:
        _clear_scan_memos()             # no mutant scan outlives the test
    assert not report.ok and report.checked == 125
    assert (len(report.duality_mismatches), len(report.section_mismatches),
            len(report.euler_mismatches)) == counts


def _euler_plus_one_on_two_rays(table):
    return lambda fan, p: table(fan, p) + (len(p) == 2)


def _h0_plus_one_on_three_rays(table):
    def tampered(fan, p):
        dims = table(fan, p)
        return (dims[0] + 1,) + dims[1:] if len(p) == 3 else dims
    return tampered


@pytest.mark.parametrize("tampers, counts", [
    ({"_pattern_euler": _euler_plus_one_on_two_rays},
     [(0, 0, 53), (0, 0, 321), (0, 0, 2852), (0, 0, 6)]),
    ({"_pattern_cohomology": _h0_plus_one_on_three_rays},
     [(92, 20, 20), (625, 235, 235), (3125, 2648, 2648), (0, 0, 0)]),
    ({"_pattern_euler": _euler_plus_one_on_two_rays,
      "_pattern_cohomology": _h0_plus_one_on_three_rays},
     [(92, 20, 53), (625, 235, 287), (3125, 2648, 2850), (0, 0, 6)]),
], ids=["euler", "h0", "both"])
def test_failing_self_check_reports_equal_the_per_label_reference(
        monkeypatch, tampers, counts):
    """A class's verdict is repeated for every label of the class, so a
    failing report lists exactly the labels the per-label loop lists."""
    pair = canned_example("a1-half-line")
    fans = [canned_fan("p2"), pair.fan_y, pair.fan_x, fiber_model(pair).fan]
    for name, tamper in tampers.items():
        monkeypatch.setattr(oracle, name, tamper(getattr(oracle, name)))
    _clear_scan_memos()
    try:
        reports = [(oracle_self_check(fan, 2), ref_oracle_self_check(fan, 2))
                   for fan in fans]
    finally:
        _clear_scan_memos()             # no mutant scan outlives the test
    for got, want in reports:
        assert got == want
    assert [(len(got.duality_mismatches), len(got.section_mismatches),
             len(got.euler_mismatches)) for got, _ in reports] == counts


def test_self_check_refuses_a_negative_bound():
    with pytest.raises(ValueError):
        oracle_self_check(canned_fan("p1"), -1)
    assert oracle_self_check(canned_fan("p1"), 0).checked == 1


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


def test_check_complete_pentagram():
    # Five cones u_i u_(i+2) wind twice around the origin: every facet has
    # one partner across it, and only the generic point, covered twice,
    # tells this fan from a complete one.
    rays = ((1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3))
    fan = make_fan(2, rays, (1,) * 5, [(i, (i + 2) % 5) for i in range(5)])
    assert not check_complete(fan)
    assert not ref_check_complete(fan)


def test_check_complete_affine_line():
    fan = make_fan(1, ((1,),), (1,), ((0,),))
    assert not check_complete(fan)


def test_check_complete_matches_the_facet_kernel_reference(monkeypatch):
    # Seeded fans of rank 1-3, every draw that validates kept: rank 1 on one
    # or two of +-1; ranks 2-3 on d+1..5 primitive rays in [-2, 2]^d, each
    # d-subset a cone with a probability drawn per fan.
    pools = {d: [v for v in product(range(-2, 3), repeat=d) if gcd(*v) == 1]
             for d in (2, 3)}
    rng = random.Random(30)
    fans = []
    for _ in range(6000):
        d = rng.randint(1, 3)
        if d == 1:
            rays = rng.sample([(1,), (-1,)], rng.randint(1, 2))
        else:
            rays = rng.sample(pools[d], rng.randint(d + 1, 5))
        keep = rng.uniform(0.5, 1)
        cones = [c for c in combinations(range(len(rays)), d)
                 if rng.random() < keep]
        try:
            fans.append(make_fan(d, rays, [1] * len(rays), cones))
        except ValidationError:
            pass
    catalog = _box_theorem_fans()
    fans += catalog
    smith = []
    real = lattice.smith_normal_form_full
    monkeypatch.setattr(lattice, "smith_normal_form_full",
                        lambda mat: smith.append(mat) or real(mat))
    got = [check_complete(fan) for fan in fans]
    assert smith == []
    monkeypatch.undo()
    assert got == [ref_check_complete(fan) for fan in fans]
    assert all(got[-len(catalog):])
    for d in (1, 2, 3):
        # seed 30: 619 of 1389, 65 of 1177 and 27 of 1161 valid fans complete
        verdicts = [ok for fan, ok in zip(fans, got) if fan.rank == d]
        assert 0 < sum(verdicts) < len(verdicts), d


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


@pytest.mark.parametrize("rank, rays, orders, cones, error, fragment", [
    (-1, (), (), ((),), SchemaError, "rank must be nonnegative"),
    (2, ((1,), (0, 1)), (1, 1), ((0, 1),), SchemaError, "ray[0] has length 1"),
    (1, ((0,), (1,)), (1, 1), ((1,),), NonPrimitiveRay, "ray[0] is zero"),
    (0, (), (), (), NonSimplicial, "single empty cone"),
    (2, ((1, 0), (0, 1)), (1, 1), ((0, 0),), NonSimplicial,
     "cone (0, 0) repeats a ray"),
    (1, ((1,), (-1,)), (1, 1), ((0, 1),), NonSimplicial,
     "cone (0, 1) has too many rays"),
    (1, ((1,), (-1,)), (1, 1), ((0,), (0,), (1,)), SchemaError,
     "cone (0,) listed twice"),
], ids=["rank", "ray-length", "zero-ray", "rank-0-cones", "repeated-ray",
        "too-many-rays", "listed-twice"])
def test_validate_fan_names_each_refusal(rank, rays, orders, cones, error,
                                         fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        make_fan(rank, rays, orders, cones)


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


def test_fan_builder_and_labels_refuse_non_integers():
    with pytest.raises(TypeError):
        cohomology(canned_fan("p1"), (1.5, 0))
    with pytest.raises(TypeError):
        make_fan(1, ((1.9,), (-1,)), (1, 1), ((0,), (1,)))
    with pytest.raises(TypeError):
        make_fan(1, ((1,), (-1,)), (1.0, 1), ((0,), (1,)))


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


def _kernel_cases():
    """Every box-theorem fan on 20 random labels in [-7, 7], and an empty box."""
    rng = random.Random(20261019)
    cases = [(fan, tuple(rng.randint(-7, 7) for _ in fan.rays))
             for fan in _box_theorem_fans() for _ in range(20)]
    # vertices 1/2 and 1/3: the box is lo = 1 > hi = 0
    cases.append((make_fan(1, ((1,), (-1,)), (2, 3), ((0,), (1,))), (-1, 1)))
    return cases


def test_kernel_cases_cover_the_edge_cases():
    cases = _kernel_cases()
    assert {fan.rank for fan, _ in cases} == {0, 1, 2, 3}
    assert any(lo > hi for lo, hi in (_certified_box(*case) for case in cases))
    # rays with a zero last coordinate never flip along a row
    assert (1, 0) in canned_fan("p2").rays
    assert any((1, 0, 0) in fan.rays for fan, _ in cases)


def test_kernel_box_matches_fraction_reference():
    for fan, k in _kernel_cases():
        assert _certified_box(fan, k) == ref_vertex_box(fan, k), (fan, k)


def test_row_sweep_matches_per_point_count():
    """The sweep's pattern counts, and every public read summed from them."""
    for fan, k in _kernel_cases():
        lo, hi = _certified_box(fan, k)
        points = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        expected = Counter(negative_pattern(fan, k, m) for m in points)
        # compared as dicts: a pattern with no character must be absent
        assert dict(_pattern_counts(fan, k)) == dict(expected), (fan, k)
        dims = tuple(sum(n * _pattern_cohomology(fan, p)[q]
                         for p, n in expected.items())
                     for q in range(fan.rank + 1))
        chi = sum(n * face_count_euler(fan, p) for p, n in expected.items())
        assert cohomology(fan, k) == dims, (fan, k)
        assert section_count(fan, k) == expected[frozenset()], (fan, k)
        assert euler_characteristic(fan, k) == chi, (fan, k)


def test_scan_of_a_fresh_label_solves_nothing_and_reads_one_dot_per_row(
        monkeypatch):
    fan = canned_example("a1-half-line").fan_x
    assert fan.rank == 3
    cohomology(fan, (0,) * len(fan.rays))           # builds the fan's kernel
    _scan_kernel(fan).scans.clear()    # k's class must not be scanned yet
    calls = []
    determinant = lattice.determinant
    monkeypatch.setattr(lattice, "determinant",
                        lambda mat: calls.append(mat) or determinant(mat))

    def dot_lookups():
        info = _scaled_dots.cache_info()
        return info.hits + info.misses

    k = (9, -8, 9, -9, 8)    # outside the [-7, 7] of the other tests
    misses = _certified_box.cache_info().misses
    added = []
    for scan in (cohomology, euler_characteristic, section_count):
        before = dot_lookups()
        scan(fan, k)
        added.append(dot_lookups() - before)
    assert _certified_box.cache_info().misses == misses + 1   # a fresh label
    assert calls == []
    lo, hi = _certified_box(fan, k)
    rows = prod(b - a + 1 for a, b in zip(lo[:-1], hi[:-1]))
    assert rows > 1
    # the first read scans one dot per row; the other two read its memo
    assert added == [rows, 0, 0]


def test_self_check_scans_each_class_once(monkeypatch):
    fan = canned_example("a1-half-line").fan_x
    bound, nrays = 2, len(fan.rays)
    scans = Counter()
    pattern_counts = oracle._pattern_counts

    def counted(scanned, k):
        scans[k] += 1
        return pattern_counts(scanned, k)

    monkeypatch.setattr(oracle, "_pattern_counts", counted)
    kernel = _scan_kernel(fan)
    kernel.scans.clear()
    assert oracle_self_check(fan, bound).ok
    box = set(product(range(-bound, bound + 1), repeat=nrays))
    labels = box | {tuple(-1 - x for x in k) for k in box}
    assert len(labels) == 5226           # the label box union its dual box
    key = kernel.classes.class_key
    classes = {key(k) for k in labels}
    assert len(classes) == 676
    assert set(scans) <= labels
    assert set(scans.values()) == {1}
    assert sorted(key(k) for k in scans) == sorted(classes)
    assert set(kernel.scans) == classes


def test_fan_hash_is_computed_once_and_kept_out_of_fields():
    spec = (2, ((1, 0), (0, 1), (-1, -1)), (1, 1, 1),
            ((0, 1), (1, 2), (0, 2)))
    a, b = make_fan(*spec), make_fan(*spec)
    assert a is not b and a == b and hash(a) == hash(b)
    k = (5, 1, 0)                        # a degree-6 label on P^2
    cohomology(a, k)
    kernel = _scan_kernel(a)
    scanned = dict(kernel.scans)
    assert _scan_kernel(b) is kernel     # b finds a's kernel and its memo
    assert cohomology(b, k) == (28, 0, 0)
    assert kernel.scans == scanned
    stacky = replace(a, orders=(2, 1, 1))
    assert stacky != a
    assert hash(stacky) == hash(make_fan(2, a.rays, (2, 1, 1), a.max_cones))
    assert hash(stacky) != hash(a)
    assert hash(replace(a)) == hash(a)
    assert [f.name for f in fields(a)] == [
        "rank", "rays", "orders", "max_cones"]
    assert "_hash" not in repr(a)


def _direct_scan(fan, k):
    """(dims, sections, chi) summed from k's own box scan, past the memo."""
    counts = _pattern_counts(fan, k)
    dims = tuple(sum(n * _pattern_cohomology(fan, p)[q]
                     for p, n in counts.items())
                 for q in range(fan.rank + 1))
    chi = sum(n * _pattern_euler(fan, p) for p, n in counts.items())
    return dims, counts[frozenset()], chi


def _memo_scan(fan, k):
    return (cohomology(fan, k), section_count(fan, k),
            euler_characteristic(fan, k))


def _class_memo_fans():
    fans = []
    for name in ("a1-half", "a2-third", "a1-half-line"):
        pair = canned_example(name)
        fans += [pair.fan_x, pair.fan_y, fiber_model(pair).fan]
    return fans


def test_class_memo_matches_the_direct_scan_of_every_label():
    """Every label in [-2, 2]^rays reads its class's memo; the memo must
    equal a scan of that label's own box."""
    labels = classes = 0
    for fan in _class_memo_fans():
        key = _scan_kernel(fan).classes.class_key
        box = list(product(range(-2, 3), repeat=len(fan.rays)))
        for k in box:
            assert _memo_scan(fan, k) == _direct_scan(fan, k), (fan, k)
        labels += len(box)
        classes += len({key(k) for k in box})
    # 3,652 of the labels read a scan made for another label of their class
    assert (labels, classes) == (5277, 1625)


def test_principal_shifts_keep_the_class_and_every_scan():
    rng = random.Random(20050101)
    for fan in _class_memo_fans():
        if not fan.rank:
            continue
        key = _scan_kernel(fan).classes.class_key
        for _ in range(4):
            k = tuple(rng.randint(-3, 3) for _ in fan.rays)
            m = tuple(rng.randint(-2, 2) for _ in range(fan.rank))
            shifted = tuple(
                kj + r * sum(a * b for a, b in zip(m, v))
                for kj, v, r in zip(k, fan.rays, fan.orders))
            assert key(shifted) == key(k), (fan, k, m)
            assert _direct_scan(fan, shifted) == _direct_scan(fan, k)
            assert _memo_scan(fan, shifted) == _direct_scan(fan, k)


def test_verify_sod_scans_one_box_per_class(monkeypatch, tmp_path):
    pair = canned_example("a1-half-line")
    roles = {pair.fan_y: "target", pair.fan_x: "source",
             fiber_model(pair).fan: "fiber"}
    labels, checked, scans = defaultdict(set), defaultdict(set), Counter()
    label_scan, pattern_counts = oracle._label_scan, oracle._pattern_counts
    self_check, checking = oracle.oracle_self_check, []

    def read(fan, k):
        labels[roles[fan]].add(k)
        if checking:
            checked[roles[fan]].add(k)
        return label_scan(fan, k)

    def scan(fan, k):
        scans[roles[fan]] += 1
        return pattern_counts(fan, k)

    def traced_self_check(fan, bound):
        checking.append(fan)
        try:
            return self_check(fan, bound)
        finally:
            checking.pop()

    monkeypatch.setattr(oracle, "_label_scan", read)
    monkeypatch.setattr(oracle, "_pattern_counts", scan)
    monkeypatch.setattr(oracle, "oracle_self_check", traced_self_check)
    _scan_kernel.cache_clear()           # fresh kernels, empty memos
    got = run_command(["oracle", "a1-half-line", "--verify-sod"], tmp_path)
    name = "oracle-a1-half-line-verify"
    assert got["json"] == (GOLDEN / f"{name}.json").read_bytes()
    assert {role: len(seen) for role, seen in labels.items()} == {
        "target": 284, "source": 1001, "fiber": 38}
    assert scans == {"target": 112, "source": 676, "fiber": 19}   # 807 boxes
    for fan, role in roles.items():
        key = _scan_kernel(fan).classes.class_key
        assert len({key(k) for k in labels[role]}) == scans[role]
        # the self-check reads a class's first label and its dual, no more
        classes = {key(k) for k in checked[role]}
        assert checked[role] and len(checked[role]) <= 2 * len(classes), role


def test_oracle_imports_no_torsod_module_but_errors_and_lattice():
    """The oracle shares no window or block logic with ``sod``."""
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                imported.add(node.module.split(".")[0])
            elif node.level:
                imported.update(alias.name for alias in node.names)
            elif node.module.split(".")[0] == "torsod":
                imported.add((node.module + ".").split(".")[1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1]
                            for alias in node.names
                            if alias.name.split(".")[0] == "torsod")
    assert imported == {"errors", "lattice"}


def test_lattice_has_no_fractions_and_completeness_no_facet_kernels():
    """``lattice`` stays integer; ``check_complete`` reads cone adjugates."""
    source = Path(lattice.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
    assert "fractions" not in imported
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    (check,) = [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef)
                and node.name == "check_complete"]
    named = set()
    for node in ast.walk(check):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & {"integer_kernel", "solve_rational"}
