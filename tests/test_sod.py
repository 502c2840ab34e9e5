import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from props import (ref_W, ref_block_groups, ref_has_cycle,
                   ref_longest_descent, ref_sigma, ref_sigma_alpha,
                   ref_vanishes, ref_window_witness,
                   run_block_group_properties, solved_exceptional_exponent,
                   weighted_sum)
from torsod import (
    GenerationCertificate,
    SpanningClass,
    canned_example,
    class_group,
    decompose,
    extend_block_label,
    fiber_transfer_vanishes,
    fully_faithful_check,
    generation_certificate,
    generator_count_identity,
    make_datum,
    semiorthogonality_check,
    transfer_is_invertible,
    verify_certificate,
)
from torsod.errors import DepthExceeded, RequiresExtraction
from torsod.extraction import datum_context


def test_spanning_classes_a1_half(a1_half):
    spans = decompose(a1_half.datum).spans
    # R = 2: w in {-1/2, 0}
    assert sorted(s.W for s in spans) == [-1, -1, 0, 0]
    labels = {s.label for s in spans}
    assert len(labels) == 4
    # the trivial class is always in the window
    assert (0, 0, 0) in labels


def test_spanning_counts(a2_third, a1_half_line):
    assert len(decompose(a2_third.datum).spans) == 9
    assert len(decompose(a1_half_line.datum).spans) == 4


def test_class_group_a1_half(a1_half):
    group = class_group(a1_half.datum)
    assert group.free_rank == 1
    assert group.invariant_factors == (2,)


def test_blocks_a1_half(a1_half):
    blocks = decompose(a1_half.datum).blocks
    # R = 2: w in {1/2, 1}
    assert [(b.label, b.W) for b in blocks] == [
        ((0, 1), 1),
        ((1, 0), 1),
        ((0, 2), 2),
        ((1, 1), 2),
    ]
    assert all(b.witness == 0 for b in blocks)
    assert all(b.aliases == () for b in blocks)
    # block residues fill the complement of the spanning residues mod 4
    assert sorted((b.label[0] + b.label[1]) % 4 for b in blocks) == [1, 1, 2, 2]


def test_blocks_a2_third(a2_third):
    blocks = decompose(a2_third.datum).blocks
    assert len(blocks) == 18
    # R = 3: w in {1/3, 2/3, ..., 2}
    Ws = sorted(set(b.W for b in blocks))
    assert Ws == [1, 2, 3, 4, 5, 6]
    for W in Ws:
        assert sum(1 for b in blocks if b.W == W) == 3


def test_blocks_merge_on_twist(twist_datum):
    dec = decompose(twist_datum)
    blocks = dec.blocks
    assert len(blocks) == 4
    assert [b.label for b in blocks] == [(0, 1), (1, 0), (0, 2), (1, 1)]
    for b in blocks:
        assert b.witness == 0
        assert len(b.aliases) == 1
    lhs, rhs, parts = generator_count_identity(dec)
    assert (lhs, rhs) == (16, 16)
    assert parts == {"spanning": 8, "blocks": 4, "fiber_order": 2}


def test_block_labels_match_pairwise_reference(extraction_pairs, twist_datum,
                                               stress_datum):
    # the deep datum has 760 blocks; the twist datum's merge fires
    deep = make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2), (20, 20, 1))
    found = {}
    for d in [pair.datum for pair in extraction_pairs] + [twist_datum,
                                                          stress_datum, deep]:
        found[d] = list(decompose(d).blocks)
        assert found[d] == ref_block_groups(datum_context(d))
    assert any(b.aliases for b in found[twist_datum])
    assert len(found[deep]) == 760


def test_block_labels_match_pairwise_reference_on_random_data():
    run_block_group_properties(100)


def test_count_identities(a1_half, a2_third, a1_half_line):
    assert generator_count_identity(decompose(a1_half.datum))[:2] == (8, 8)
    assert generator_count_identity(decompose(a2_third.datum))[:2] == (27, 27)
    lhs, rhs, parts = generator_count_identity(decompose(a1_half_line.datum))
    assert (lhs, rhs) == (8, 8)
    assert parts == {"spanning": 4, "blocks": 4, "fiber_order": 1}


@pytest.mark.parametrize("orders, spanning, fiber_order",
                         [((2, 2, 1, 1), 8, 2), ((2, 2, 3, 1), 24, 6)])
def test_count_identity_fiber_order(orders, spanning, fiber_order):
    # v_3 = (1, 1, 2) maps to twice a generator of N / sat(span(v_1, v_2)),
    # so the fiber class group has order 2 * r_3.
    d = make_datum(((1, 0, 0), (1, 2, 0), (1, 1, 2), (1, 1, 0)),
                   (1, 1, 0, -2), orders)
    lhs, rhs, parts = generator_count_identity(decompose(d))
    assert parts == {"spanning": spanning, "blocks": 4,
                     "fiber_order": fiber_order}
    assert lhs == rhs == spanning + 4 * fiber_order


def test_requires_extraction():
    crepant = canned_example("a1-half-crepant").datum
    with pytest.raises(RequiresExtraction):
        decompose(crepant)
    with pytest.raises(RequiresExtraction):
        verify_certificate(crepant, GenerationCertificate((), ()))
    contraction = canned_example("smooth-blowup").datum
    with pytest.raises(RequiresExtraction):
        generation_certificate(contraction, [(0, 0)])


def test_solved_exponent_and_divisibility(a1_half):
    d = a1_half.datum
    assert solved_exceptional_exponent(d, (1, 1)) == Fraction(1, 2)
    assert solved_exceptional_exponent(d, (2, 2)) == 1
    ctx = datum_context(d)
    # certificate fires exactly when the solved exponent is not an integer
    assert fiber_transfer_vanishes(ctx, (0, 1))
    assert fiber_transfer_vanishes(ctx, (1, 2))
    assert not fiber_transfer_vanishes(ctx, (2, 2))
    assert not fiber_transfer_vanishes(ctx, (0, 0))
    # (1, 3) slips past the divisibility test but fails the exact one
    assert not fiber_transfer_vanishes(ctx, (1, 3))
    assert not transfer_is_invertible(ctx, (1, 3))
    assert transfer_is_invertible(ctx, (2, 2))
    assert transfer_is_invertible(ctx, (0, 4))


def test_transfer_vanishing_symmetric_under_negation(extraction_pairs):
    # the solved exceptional exponent negates with the label, so the
    # divisibility certificate cannot distinguish k from -k
    for pair in extraction_pairs:
        d = pair.datum
        ctx = datum_context(d)
        for head in product(range(-3, 4), repeat=d.alpha):
            k = head + (0,) * (d.n - d.alpha)
            neg = tuple(-x for x in k)
            assert fiber_transfer_vanishes(ctx, k) == \
                fiber_transfer_vanishes(ctx, neg)


def test_exceptional_lattice_order(a1_half):
    tau = datum_context(a1_half.datum).tau
    assert tau.free_rank == 0
    assert tau.order() == 8
    assert tau.contains((2, 2))
    assert not tau.contains((1, 3))


def test_extend_block_label(a1_half_line):
    assert extend_block_label(a1_half_line.datum, (0, 1)) == (0, 1, 0)


def test_fully_faithful_check(extraction_pairs):
    for pair in extraction_pairs:
        report = fully_faithful_check(decompose(pair.datum))
        assert report.ok, pair.name
        assert report.head_ok
        assert len(report.pairs) == 1


def _all_pairs_verdict(dec):
    """Reference: check every ordered pair of spanning classes directly."""
    d = dec.ctx.datum
    sa = ref_sigma_alpha(d)
    pairs_ok = True
    for p in dec.spans:
        for q in dec.spans:
            delta = tuple(x - y for x, y in zip(p.label, q.label))
            dw = weighted_sum(d, delta)
            pairs_ok &= -sa < -dw < sa and dw > -sa
    report = fully_faithful_check(dec)
    return pairs_ok and report.head_ok and all(ok for _, _, ok in report.koszul)


def _inject(dec, label):
    """The decomposition ``dec`` with one more spanning class, ``label``."""
    extra = SpanningClass(label=label, W=ref_W(dec.ctx.datum, label))
    return replace(dec, spans=dec.spans + (extra,))


def test_fully_faithful_matches_all_pairs(extraction_pairs, twist_datum):
    verdicts = []
    for d in [pair.datum for pair in extraction_pairs] + [twist_datum]:
        dec = decompose(d)
        assert fully_faithful_check(dec).ok == _all_pairs_verdict(dec)
        for c in dec.spans:
            for i in range(d.n + 1):
                for step in (-1, 1):
                    label = c.label[:i] + (c.label[i] + step,) + c.label[i + 1:]
                    injected = _inject(dec, label)
                    report = fully_faithful_check(injected)
                    assert len(report.pairs) == 1
                    assert report.ok == _all_pairs_verdict(injected)
                    verdicts.append(report.ok)
        # For an extraction one exceptional stride exceeds sigma_alpha, so a
        # class one stride below the lowest spanning class breaks both checks.
        low = min(dec.spans, key=lambda c: c.W)
        injected = _inject(dec, low.label[:-1] + (low.label[-1] + 1,))
        assert not fully_faithful_check(injected).ok
        assert not _all_pairs_verdict(injected)
    assert True in verdicts and False in verdicts


def test_semiorthogonality_check(extraction_pairs):
    for pair in extraction_pairs:
        report = semiorthogonality_check(decompose(pair.datum))
        assert report.ok, pair.name
        kinds = {e.kind for e in report.entries}
        assert "span-block" in kinds


def test_semiorthogonality_uses_lattice_reason(twist_datum):
    report = semiorthogonality_check(decompose(twist_datum))
    assert report.ok
    lattice_entries = [e for e in report.entries if e.reason == "lattice"]
    assert lattice_entries
    assert all(e.kind == "equal-w" for e in lattice_entries)


def _check_against_fraction_reference(d, box):
    """Integer windows, witnesses and vanishing tests vs the rational ones."""
    sa, s = ref_sigma_alpha(d), ref_sigma(d)
    R = lcm(*d.orders)

    def ref_w(label, witness):
        """w of ``label`` zero-extended, with exceptional exponent ``witness``."""
        return weighted_sum(d, tuple(label) + (0,) * (d.n - len(label))
                            + (witness,))

    dec = decompose(d)
    for c in dec.spans:
        w = weighted_sum(d, c.label)
        assert c.W == R * w and -sa < w <= 0
    for b in dec.blocks:
        w = ref_w(b.label, b.witness)
        assert b.W == R * w and 0 < w <= -s

    expected = {}
    for e in semiorthogonality_check(dec).entries:
        key = (e.reason, e.label)
        if key not in expected:
            expected[key] = (
                ref_vanishes(d, e.label) if e.reason == "interval"
                else not transfer_is_invertible(dec.ctx, e.label))
        assert e.certified == expected[key], e

    targets = list(product(range(-box, box + 1), repeat=d.n))
    cert = generation_certificate(d, targets)
    for node in cert.nodes:
        w = ref_w(node.label, node.witness)
        assert node.W == R * w, node.key
        # every node's w lies in the one-stride window (-sigma_alpha, -sigma]
        assert node.witness == ref_window_witness(d, node.label), node.key
        if node.kind == "span":
            assert -sa < w <= 0, node.key
        else:
            assert 0 < w <= -s, node.key
    return len(cert.nodes)


def test_integer_path_matches_fraction_reference(extraction_pairs,
                                                 twist_datum, stress_datum):
    for d in [pair.datum for pair in extraction_pairs] + [twist_datum]:
        assert _check_against_fraction_reference(d, 3)
    assert _check_against_fraction_reference(stress_datum, 2)


# ---------------------------------------------------------------------------
# Generation certificates


def small_cert(a1_half):
    return generation_certificate(a1_half.datum, [(1, 1)])


def test_certificate_structure(a1_half):
    cert = small_cert(a1_half)
    verdict = verify_certificate(a1_half.datum, cert)
    assert verdict.ok
    by_kind = {}
    for node in cert.nodes:
        by_kind.setdefault(node.kind, []).append(node)
    assert len(by_kind["koszul"]) == 3
    assert len(by_kind["block"]) == 3
    assert len(by_kind["span"]) == 5
    root_key = cert.targets[0][1]
    assert root_key == "L|1,1|0"
    root = cert.node_map()[root_key]
    assert root.W == 2 and len(root.children) == 3   # R = 2: w = 1


def test_certificate_nodes_shared_across_targets(a1_half):
    cert = generation_certificate(a1_half.datum, [(1, 1), (1, 1), (0, 1)])
    assert len(cert.targets) == 3
    keys = [node.key for node in cert.nodes]
    assert len(keys) == len(set(keys))


def tamper(cert, **kwargs):
    return GenerationCertificate(
        targets=kwargs.get("targets", cert.targets),
        nodes=kwargs.get("nodes", cert.nodes))


def swap_node(cert, key, **changes):
    nodes = tuple(replace(n, **changes) if n.key == key else n
                  for n in cert.nodes)
    return tamper(cert, nodes=nodes)


def codes_of(d, cert):
    return {v[0] for v in verify_certificate(d, cert).violations}


def test_verify_rejects_duplicate_key(a1_half):
    cert = small_cert(a1_half)
    doubled = tamper(cert, nodes=cert.nodes + (cert.nodes[0],))
    assert "DUPLICATE_KEY" in codes_of(a1_half.datum, doubled)


def test_verify_rejects_bad_label(a1_half):
    cert = small_cert(a1_half)
    bad = swap_node(cert, "L|0,0|0", label=(0, 0, 0))
    assert "BAD_LABEL" in codes_of(a1_half.datum, bad)


def test_verify_rejects_bad_root_label(a1_half):
    # The witness window of a root is only defined for a length-n label; a
    # longer root label is reported, never evaluated.
    d = a1_half.datum
    cert = generation_certificate(d, [(0, 0)])
    for label in ((0, 0, 0), (0, 0, 0, 0)):
        codes = codes_of(d, swap_node(cert, "L|0,0|0", label=label))
        assert {"BAD_LABEL", "TARGET_LABEL"} <= codes
        assert "WITNESS_WINDOW" not in codes


def test_verify_rejects_w_mismatch(a1_half):
    cert = small_cert(a1_half)
    # recomputed W = 0; R = 2, so the stored w is 7/2
    bad = swap_node(cert, "L|0,0|0", W=7)
    assert "W_MISMATCH" in codes_of(a1_half.datum, bad)


def test_verify_rejects_leaf_window(a1_half):
    d = a1_half.datum
    cert = small_cert(a1_half)
    # push a spanning leaf far below the window, keeping W consistent
    bad = swap_node(cert, "L|0,0|0", witness=3, W=-12)
    assert "LEAF_WINDOW" in codes_of(d, bad)


def test_verify_rejects_leaf_children(a1_half):
    cert = small_cert(a1_half)
    bad = swap_node(cert, "L|0,0|0", children=("L|-1,0|0",))
    assert "LEAF_CHILDREN" in codes_of(a1_half.datum, bad)


def test_verify_rejects_node_window(a1_half):
    cert = small_cert(a1_half)
    bad = swap_node(cert, "L|1,1|0", witness=-1, W=6)
    assert "NODE_WINDOW" in codes_of(a1_half.datum, bad)


def test_verify_rejects_missing_node(a1_half):
    cert = small_cert(a1_half)
    pruned = tamper(cert, nodes=tuple(n for n in cert.nodes
                                      if n.key != "L|0,0|0"))
    assert "MISSING_NODE" in codes_of(a1_half.datum, pruned)


def test_verify_rejects_corner_set(a1_half):
    cert = small_cert(a1_half)
    root = cert.node_map()["L|1,1|0"]
    children = tuple("L|-1,0|0" if c == "L|0,0|0" else c
                     for c in root.children)
    bad = swap_node(cert, "L|1,1|0", children=children)
    assert "CORNER_SET" in codes_of(a1_half.datum, bad)


def test_verify_rejects_measure_and_cycle(a1_half):
    # A self-loop is a cycle, and the edge closing it fails MEASURE.
    cert = small_cert(a1_half)
    root = cert.node_map()["L|1,1|0"]
    children = root.children[:-1] + ("L|1,1|0",)
    bad = swap_node(cert, "L|1,1|0", children=children)
    assert ref_has_cycle(bad)
    assert "MEASURE" in codes_of(a1_half.datum, bad)


def test_verify_rejects_block_mismatch(a1_half):
    cert = small_cert(a1_half)
    bad = swap_node(cert, "L|1,1|0", block_key="B|0,1|0")
    assert "BLOCK_MISMATCH" in codes_of(a1_half.datum, bad)


def test_verify_rejects_bad_kind(a1_half):
    cert = small_cert(a1_half)
    bad = swap_node(cert, "L|0,0|0", kind="mystery")
    assert "BAD_KIND" in codes_of(a1_half.datum, bad)


def test_verify_rejects_target_missing(a1_half):
    cert = small_cert(a1_half)
    bad = tamper(cert, targets=(((1, 1), "L|9,9|0"),))
    assert "TARGET_MISSING" in codes_of(a1_half.datum, bad)


def test_verify_rejects_target_label(a1_half):
    cert = small_cert(a1_half)
    bad = tamper(cert, targets=(((2, 1), "L|1,1|0"),))
    assert "TARGET_LABEL" in codes_of(a1_half.datum, bad)


def test_verify_rejects_witness_window(a1_half):
    d = a1_half.datum
    cert = generation_certificate(d, [(0, 0)])
    # shift the root witness one stride: w leaves (-sigma_alpha, -sigma]
    bad = swap_node(cert, "L|0,0|0", witness=1, W=-4)
    assert "WITNESS_WINDOW" in codes_of(d, bad)


def test_certificates_verify_on_catalog(extraction_pairs):
    from itertools import product
    for pair in extraction_pairs:
        d = pair.datum
        targets = list(product(range(-2, 3), repeat=d.n))
        cert = generation_certificate(d, targets)
        verdict = verify_certificate(d, cert)
        assert verdict.ok, (pair.name, verdict.violations[:3])
        # every node's w sits in the half-open fundamental window
        for node in cert.nodes:
            if node.kind == "span":
                assert node.W <= 0
            else:
                assert node.W > 0


# ---------------------------------------------------------------------------
# Depth guard


def _frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_depth_guard_ignores_target_order():
    # (0, 1) descends 2 steps and (-1, 1) one step.  Every order is refused
    # at max_depth 1 and built at max_depth 2.
    d = make_datum(((1, 0), (0, 1), (1, 1)), (1, 1, -1), (4, 3, 1))
    for targets in ([(0, 1)], [(-1, 1), (0, 1)], [(0, 1), (-1, 1)]):
        with pytest.raises(DepthExceeded,
                           match="generation recursion exceeded depth 1"):
            generation_certificate(d, targets, max_depth=1)
        cert = generation_certificate(d, targets, max_depth=2)
        assert ref_longest_descent(cert) == 2


def test_deep_descent_needs_no_recursion():
    # A 78-step descent builds with only 60 frames of headroom.
    d = make_datum(((1, 0), (1, 2), (1, 1)), (1, 1, -2), (40, 40, 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 60)
    try:
        cert = generation_certificate(d, [(158, 0)], max_depth=78)
    finally:
        sys.setrecursionlimit(limit)
    assert len(cert.nodes) == 6319
    assert ref_longest_descent(cert) == 78
    assert verify_certificate(d, cert).ok
