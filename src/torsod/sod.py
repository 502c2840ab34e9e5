"""Semiorthogonal decomposition combinatorics for a divisorial extraction.

Everything in this module is exact integer/rational arithmetic on a validated
:class:`~torsod.extraction.ExtractionDatum`; no fans and no cohomology.  The
central quantity is the weighted exponent sum

    w(k) = sum(a_i * k_i / r_i),

which is constant on divisor classes up to a known stride and controls three
windows: spanning classes live where -sigma_alpha < w <= 0, block labels
where 0 < w <= -sigma, and the two windows tile one full period of the
exceptional exponent.

The windows, witnesses and vanishing tests are computed on the integer
W = R * w of a :class:`~torsod.extraction.DatumContext`, with R = lcm(r_i)
and W(k) = sum(c_i * k_i), c_i = a_i * R / r_i.  R > 0, so each window keeps
its shape with integer bounds S = R * sigma and S_alpha = R * sigma_alpha:
spanning -S_alpha < W <= 0, blocks 0 < W <= -S.  One exceptional exponent
step moves W by the stride C = -c_{n+1} > 0.  Records store W; a
``Fraction(W, R)`` is built only for a report string.

:func:`decompose` is the one validated entry point: it enumerates the
spanning classes and blocks once, and the checks read its
:class:`Decomposition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul, sub

from . import errors, lattice
from .extraction import (
    DatumContext,
    ExtractionDatum,
    MorphismKind,
    classify,
    datum_context,
    koszul_corners,
    relation_rows,
    validate,
)


def _extraction_context(d: ExtractionDatum) -> DatumContext:
    """Validate ``d``, refuse anything but an extraction, build its context."""
    validate(d)
    cls = classify(d)
    if cls.kind is not MorphismKind.EXTRACTION:
        raise errors.RequiresExtraction(
            f"datum classifies as {cls.kind.value} (sigma = {cls.sigma}); "
            "decomposition enumeration needs sigma < 0")
    return datum_context(d)


def fiber_transfer_vanishes(ctx: DatumContext, k_local) -> bool:
    """Divisibility certificate that the transfer to the fiber side is zero.

    The transfer can only be nonzero when the solved exceptional exponent is
    an integer multiple of r_{n+1}.  True means certified vanishing; False
    means no certificate from this test (the sharper lattice membership test
    is :func:`transfer_is_invertible`).
    """
    n = ctx.datum.n
    if len(k_local) != n:
        raise ValueError(f"local exponent vector must have length {n}")
    return _vanishes(ctx, k_local)


def _vanishes(ctx: DatumContext, k_local) -> bool:
    """:func:`fiber_transfer_vanishes` without the length check.

    The solved exponent -W r_{n+1} / (a_{n+1} R) is an integer multiple of
    r_{n+1} exactly when a_{n+1} R divides W = W(k_local).
    """
    return ctx.W(k_local) % (-ctx.datum.coefficients[-1] * ctx.R) != 0


@dataclass(frozen=True)
class SpanningClass:
    """A divisor class in the spanning window, by canonical representative."""

    label: tuple[int, ...]   # length n+1
    W: int                   # R * w


def class_group(d: ExtractionDatum) -> lattice.AbelianGroup:
    """Divisor class group of the extraction side of the local model."""
    return lattice.cokernel(relation_rows(d, d.n + 1))


def spanning_classes(ctx: DatumContext) -> list[SpanningClass]:
    """All divisor classes with -sigma_alpha < w <= 0, canonically represented.

    w descends to the class group because it kills the relation lattice, is
    zero on torsion, and is nonzero on the rank-one free part; that makes the
    window a finite, explicitly enumerable set of classes.
    """
    group = class_group(ctx.datum)
    if group.free_rank != 1:
        raise errors.DegenerateDatum(
            f"class group has free rank {group.free_rank}, expected 1")
    free = group.free_lifts()[0]
    W_free = ctx.W(free)
    if W_free == 0:
        raise errors.DegenerateDatum("free generator has zero weighted sum")
    for lift, _ in group.torsion_lifts():
        if ctx.W(lift) != 0:
            raise errors.DegenerateDatum("torsion lift has nonzero weighted sum")

    # f * W_free must land in (-S_alpha, 0]
    if W_free > 0:
        f_lo, f_hi = -ctx.S_alpha // W_free + 1, 0
    else:
        f_lo, f_hi = 0, -(-ctx.S_alpha // -W_free) - 1

    out = []
    torsion = group.torsion_lifts()
    for f in range(f_lo, f_hi + 1):
        for combo in product(*(range(order) for _, order in torsion)):
            vec = [f * x for x in free]
            for c, (lift, _) in zip(combo, torsion):
                for j in range(len(vec)):
                    vec[j] += c * lift[j]
            rep = group.reduce(vec)
            W = ctx.W(rep)
            if W != f * W_free:
                raise AssertionError("weighted sum is not class-invariant")
            out.append(SpanningClass(label=rep, W=W))
    out.sort(key=lambda s: (-s.W, s.label))
    return out


@dataclass(frozen=True)
class BlockLabel:
    """A fiber-category block: label, its exceptional witness, and W = R * w.

    ``label`` has length alpha (exponents beyond alpha are zero by
    convention); ``witness`` is the unique integer exceptional exponent
    putting W into (0, -S]; ``aliases`` lists representatives of
    restricted classes merged into this block because their difference lies
    in the exact transfer lattice.
    """

    label: tuple[int, ...]
    witness: int
    W: int
    aliases: tuple[tuple[int, ...], ...] = ()


def _restricted_class_lattice(d: ExtractionDatum) -> lattice.AbelianGroup:
    """Z^alpha modulo the restricted lattice L_res.

    L_res keeps only the monomial directions that are trivial on the
    zero-coefficient rays: m must pair to zero with v_j for alpha < j <= n.
    """
    n, alpha = d.n, d.alpha
    constraint_rows = [list(d.rays[j]) for j in range(alpha, n)]
    if constraint_rows:
        mkernel = lattice.integer_kernel(constraint_rows)
    else:
        mkernel = [tuple(row) for row in lattice.identity_matrix(n)]
    cols = [[sum(map(mul, m, row)) for m in mkernel]
            for row in relation_rows(d, alpha)]
    group = lattice.cokernel(cols)
    if group.free_rank != 0:
        raise errors.DegenerateDatum("restricted class lattice is not finite")
    return group


def block_labels(ctx: DatumContext) -> list[BlockLabel]:
    """Enumerate the fiber blocks of the decomposition.

    Restricted classes (Z^alpha mod L_res) whose window witness puts W in
    (0, -S] are the block candidates; candidates whose difference lies in
    the exact transfer lattice L_tau describe the same block, so they share
    the key tau.reduce(label) and get merged, the aliases retained on the
    surviving label.  Their witnessed W agree, so the key needs no W: a
    difference delta = (r_i <m, v_i>)_{i <= alpha} in L_tau has
    W(delta) = R sum_{i <= alpha} a_i <m, v_i> = -R a_{n+1} <m, v_{n+1}>
    = C r_{n+1} <m, v_{n+1}> by the relation, a multiple of C, and the
    witnessed W is the one value congruent to W(label) mod C in the window
    (-S_alpha, -S] of length C.  Representatives
    prefer the lexicographically smallest all-nonnegative member with w
    already in the window (witness 0), which always lives in the finite box
    k_i <= -sigma * r_i / a_i when it exists at all.
    """
    alpha = ctx.datum.alpha
    group = _restricted_class_lattice(ctx.datum)
    S = ctx.S

    # Preferred representatives: scan the bounded nonnegative box once.
    bounds = [-S // ctx.c[i] for i in range(alpha)]
    preferred: dict[tuple[int, ...], tuple[int, ...]] = {}
    for cand in product(*(range(b + 1) for b in bounds)):
        if not (0 < ctx.W(cand) <= -S):
            continue
        key = group.reduce(cand)
        if key not in preferred or cand < preferred[key]:
            preferred[key] = cand

    groups: dict[tuple, list[tuple]] = {}
    for rep in group.classes():
        label = preferred.get(rep, rep)
        witness = _window_witness(ctx, label)
        W = ctx.W(label) - ctx.C * witness   # in (-S_alpha, -S]
        if W > 0:
            groups.setdefault(ctx.tau.reduce(label), []).append(
                (W, label, witness))

    def rep_quality(item):
        _, lab, _ = item
        nice = all(x >= 0 for x in lab) and 0 < ctx.W(lab) <= -S
        return (0 if nice else 1, lab)

    blocks: list[BlockLabel] = []
    for g in groups.values():
        g.sort(key=rep_quality)
        W, label, witness = g[0]
        blocks.append(BlockLabel(label=label, witness=witness, W=W,
                                 aliases=tuple(lab for _, lab, _ in g[1:])))
    blocks.sort(key=lambda b: (b.W, b.label))
    return blocks


def extend_block_label(d: ExtractionDatum, label) -> tuple[int, ...]:
    """Zero-extend a length-alpha block label to all n local exponents."""
    return tuple(label) + (0,) * (d.n - d.alpha)


def _shifted(label, subset) -> tuple[int, ...]:
    """``label`` minus the indicator vector of the Koszul corner ``subset``."""
    out = list(label)
    for i in subset:
        out[i] -= 1
    return tuple(out)


def transfer_is_invertible(ctx: DatumContext, k_local) -> bool:
    """Exact dichotomy: the fiber transfer of k_local is invertible or zero.

    Invertible exactly when the first-alpha part is congruent to a monomial
    twist, i.e. lies in L_tau; the exponents past alpha do not interfere with
    the criterion because their divisors miss the fiber locus.
    """
    d = ctx.datum
    if len(k_local) != d.n:
        raise ValueError(f"local exponent vector must have length {d.n}")
    return ctx.tau.contains(k_local[:d.alpha])


@dataclass(frozen=True)
class Decomposition:
    """The spanning classes and fiber blocks of one datum, enumerated once."""

    ctx: DatumContext
    spans: tuple[SpanningClass, ...]
    blocks: tuple[BlockLabel, ...]


def decompose(d: ExtractionDatum) -> Decomposition:
    """Validate an extraction datum and enumerate its collection once."""
    ctx = _extraction_context(d)
    return Decomposition(ctx=ctx, spans=tuple(spanning_classes(ctx)),
                         blocks=tuple(block_labels(ctx)))


@dataclass(frozen=True)
class PairInequality:
    """One ordered pair of spanning classes and its faithfulness inequalities."""

    source: tuple[int, ...]
    target: tuple[int, ...]
    delta_W: int              # R * delta_w
    within_bounds: bool       # -S_alpha < -delta_W < S_alpha
    higher_vanishing: bool    # pushforward of the difference has no R^{>0}


@dataclass(frozen=True)
class FaithfulnessReport:
    ok: bool
    head_ok: bool                              # a_{n+1}/r_{n+1} < -sigma_alpha
    pairs: tuple[PairInequality, ...]          # the one extremal pair
    # (corner, R * sum of a_i / r_i over the corner, strictly inside (0, C))
    koszul: tuple[tuple[tuple[int, ...], int, bool], ...]


def fully_faithful_check(dec: Decomposition) -> FaithfulnessReport:
    """Inequality certificates that comparison on spanning pairs is bijective.

    For every ordered pair of spanning classes the difference must sit
    strictly inside the symmetric window (|delta_w| < sigma_alpha) and its
    pushforward must have vanishing higher derived images (delta_w >
    -sigma_alpha); on the Koszul side every nonempty corner sum must sit
    strictly between 0 and the exceptional stride |a_{n+1}| / r_{n+1}.

    One pair decides the spanning side.  w is additive, so over all ordered
    pairs delta_w = w_target - w_source ranges over [w_min - w_max,
    w_max - w_min].  Both inequalities hold for every pair exactly when they
    hold for the pair from the class of largest w to the class of smallest w,
    so ``pairs`` holds that one extremal pair and the verdict is the same as
    checking all |span|^2 pairs.
    """
    ctx = dec.ctx
    Sa = ctx.S_alpha
    head_ok = -ctx.C < -Sa

    q = max(dec.spans, key=lambda c: c.W)
    p = min(dec.spans, key=lambda c: c.W)
    delta = tuple(x - y for x, y in zip(p.label, q.label))
    dW = ctx.W(delta)
    extremal = PairInequality(
        source=q.label,
        target=p.label,
        delta_W=dW,
        within_bounds=-Sa < -dW < Sa,
        higher_vanishing=dW > -Sa,
    )

    koszul = []
    for subset in koszul_corners(ctx.datum.alpha)[1:]:
        part = sum(ctx.c[i] for i in subset)
        koszul.append((subset, part, 0 < part < ctx.C))

    ok = (head_ok
          and extremal.within_bounds and extremal.higher_vanishing
          and all(entry[2] for entry in koszul))
    return FaithfulnessReport(ok=ok, head_ok=head_ok, pairs=(extremal,),
                              koszul=tuple(koszul))


@dataclass(frozen=True)
class OrthogonalityEntry:
    """A single vanishing claim between two generators of the decomposition."""

    kind: str                      # "span-block" | "block-block" | "equal-w"
    source: tuple[int, ...]
    target: tuple[int, ...]
    corner: tuple[int, ...]        # Koszul corner subset (empty for none)
    label: tuple[int, ...]         # length-n local label whose transfer must die
    certified: bool
    reason: str                    # "interval" | "lattice"


@dataclass(frozen=True)
class SemiorthogonalityReport:
    ok: bool
    entries: tuple[OrthogonalityEntry, ...]


def semiorthogonality_check(dec: Decomposition) -> SemiorthogonalityReport:
    """Certify every Hom-vanishing the decomposition asserts.

    Three families: spanning classes against blocks (all degrees), ordered
    block pairs with increasing w, and distinct blocks of equal w (both
    directions).  Interval certificates place the solved exceptional exponent
    strictly between consecutive integers; the remaining equal-w corner uses
    exact non-membership in the transfer lattice.
    """
    ctx = dec.ctx
    d = ctx.datum
    alpha = d.alpha
    entries: list[OrthogonalityEntry] = []
    corners = koszul_corners(alpha)
    blocks = [(b, extend_block_label(d, b.label)) for b in dec.blocks]

    for l in dec.spans:
        for b, b_ext in blocks:
            base = tuple(map(sub, l.label, b_ext))
            entries.append(OrthogonalityEntry(
                kind="span-block",
                source=l.label, target=b.label, corner=(),
                label=base,
                certified=_vanishes(ctx, base),
                reason="interval"))

    for b, b_ext in blocks:
        for c, c_ext in blocks:
            if b is c:
                continue
            base = tuple(map(sub, b_ext, c_ext))
            if c.W > b.W:
                for subset in corners:
                    lab = _shifted(base, subset)
                    entries.append(OrthogonalityEntry(
                        kind="block-block",
                        source=b.label, target=c.label, corner=subset,
                        label=lab,
                        certified=_vanishes(ctx, lab),
                        reason="interval"))
            elif c.W == b.W:
                entries.append(OrthogonalityEntry(
                    kind="equal-w",
                    source=b.label, target=c.label, corner=(),
                    label=base,
                    certified=not ctx.tau.contains(base[:alpha]),
                    reason="lattice"))
                for subset in corners[1:]:
                    lab = _shifted(base, subset)
                    entries.append(OrthogonalityEntry(
                        kind="equal-w",
                        source=b.label, target=c.label, corner=subset,
                        label=lab,
                        certified=_vanishes(ctx, lab),
                        reason="interval"))

    return SemiorthogonalityReport(
        ok=all(e.certified for e in entries), entries=tuple(entries))


def generator_count_identity(dec: Decomposition):
    """K-theoretic bookkeeping: |Cl_local| = #spanning + #blocks * |Cl_fiber|.

    The left side is the order of the local class group of the base cone,
    |det(r_i v_i)| over i <= n; each block contributes the order of the local
    fiber class group.  Returns (lhs, rhs, parts) for reporting.

    The fiber lattice is N_F = N / sat(span(v_1..v_alpha)).  The ray
    v_{n+1} lies in the rational span of v_1..v_alpha, so dividing N by
    Z v_{n+1} and then by the saturated span of the images of v_1..v_alpha
    is the one saturated quotient pi: N -> N_F.  Fiber ray i (alpha < i <= n)
    is the primitive vector along pi(v_i), with order r_i times the
    multiplicity of pi(v_i), so the fiber class group has order
    |det(r_i pi(v_i))|: the empty determinant 1 when alpha = n.  Another
    basis of N_F changes pi by a unimodular matrix, which leaves |det|
    unchanged.
    """
    d = dec.ctx.datum
    n, alpha = d.n, d.alpha
    rows = relation_rows(d, n)
    lhs = abs(lattice.determinant(rows))
    # pi is linear, so pi(r_i v_i) = r_i pi(v_i)
    proj = lattice.quotient_project(n, d.rays[:alpha])
    fiber_order = abs(lattice.determinant(
        [list(proj.apply(row)) for row in rows[alpha:]]))
    n_span, n_blocks = len(dec.spans), len(dec.blocks)
    rhs = n_span + n_blocks * fiber_order
    return lhs, rhs, {"spanning": n_span, "blocks": n_blocks,
                      "fiber_order": fiber_order}


# ---------------------------------------------------------------------------
# Generation certificates


@dataclass(frozen=True)
class CertificateNode:
    key: str
    label: tuple[int, ...]        # length n
    witness: int                  # exceptional exponent shared along the DAG
    W: int                        # R * w
    kind: str                     # "span" | "koszul" | "block"
    children: tuple[str, ...] = ()
    block_key: str | None = None


@dataclass(frozen=True)
class GenerationCertificate:
    """DAG witnessing that the enumerated generators reach every target label."""

    targets: tuple[tuple[tuple[int, ...], str], ...]   # (label, root key)
    nodes: tuple[CertificateNode, ...]

    def node_map(self) -> dict[str, CertificateNode]:
        return {node.key: node for node in self.nodes}


def _node_key(prefix: str, label, witness: int) -> str:
    """Node key: prefix "L" for a line bundle (span or koszul), "B" a block."""
    return f"{prefix}|{','.join(str(x) for x in label)}|{witness}"


def _window_witness(ctx: DatumContext, label) -> int:
    """Unique integer exceptional exponent with W in (-S_alpha, -S].

    The window has length S_alpha - S = C, exactly one exponent stride, so
    the integer always exists and is unique.
    """
    C = ctx.C
    W_n = ctx.W(label)
    k = -(-(ctx.S + W_n) // C)
    if not (C * k < ctx.S_alpha + W_n):
        raise AssertionError("witness window miscomputed")
    return k


def generation_certificate(d: ExtractionDatum, targets,
                           max_depth: int = 64) -> GenerationCertificate:
    """Build the Koszul descent DAG proving the targets are generated.

    Each line-bundle node carries the witness exponent fixing its w inside
    (-sigma_alpha, -sigma]; nonpositive w is a spanning leaf, positive w
    expands through the 2^alpha - 1 Koszul corners (same witness) plus one
    block leaf.  The coordinate sum strictly decreases toward the corners, so
    the descent terminates; nodes are shared across targets.

    Every corner lowers W by at least m = min(c_i : i <= alpha), and the
    corner e_i at that minimum lowers it by exactly m, so the longest descent
    from a root with W_0 > 0 has exactly ceil(W_0 / m) steps.  That bound is
    checked against ``max_depth`` for every target before any node is built.
    """
    ctx = _extraction_context(d)
    n, alpha = d.n, d.alpha
    C = ctx.C
    roots = []
    for target in targets:
        label = tuple(int(x) for x in target)
        if len(label) != n:
            raise ValueError(f"target label must have length {n}")
        roots.append((label, _window_witness(ctx, label)))
    m = min(ctx.c[:alpha])   # ceil(W_0 / m) steps, none from a span root
    if any(max(0, -(-(ctx.W(label) - C * witness) // m)) > max_depth
           for label, witness in roots):
        raise errors.DepthExceeded(
            f"generation recursion exceeded depth {max_depth}")

    corners = koszul_corners(alpha)[1:]
    nodes: dict[tuple, CertificateNode] = {}
    for pos, (root, witness) in enumerate(roots):
        # A koszul node is popped twice: first to push its corners, then,
        # with every corner built, to be built itself.  Corners have a smaller
        # coordinate sum, so they never lead back to a node on the stack.
        stack = [(root, None)]
        while stack:
            label, kids = stack.pop()
            ident = ("L", label, witness)
            if kids is None and ident in nodes:
                continue
            W = ctx.W(label) - C * witness
            if W <= 0:
                if not (-ctx.S_alpha < W):
                    raise AssertionError("spanning leaf outside its window")
                nodes[ident] = CertificateNode(
                    key=_node_key(*ident), label=label, witness=witness,
                    W=W, kind="span")
            elif kids is None:
                if not (W <= -ctx.S):
                    raise AssertionError("koszul node outside its window")
                kids = [_shifted(label, subset) for subset in corners]
                stack.append((label, kids))
                stack.extend((kid, None) for kid in kids)
            else:
                bident = ("B", label, witness)
                block = nodes[bident] = CertificateNode(
                    key=_node_key(*bident), label=label, witness=witness,
                    W=W, kind="block")
                nodes[ident] = CertificateNode(
                    key=_node_key(*ident), label=label, witness=witness, W=W,
                    kind="koszul",
                    children=tuple(nodes["L", kid, witness].key
                                   for kid in kids),
                    block_key=block.key)
        roots[pos] = (root, nodes["L", root, witness].key)
    ordered = tuple(sorted(nodes.values(), key=lambda nd: nd.key))
    return GenerationCertificate(targets=tuple(roots), nodes=ordered)


@dataclass(frozen=True)
class CertificateVerification:
    ok: bool
    violations: tuple[tuple[str, str, str], ...]   # (code, node key, detail)


def verify_certificate(d: ExtractionDatum,
                       cert: GenerationCertificate) -> CertificateVerification:
    """Replay every structural rule of a generation certificate.

    Checks each stored W and node window against the recomputed W, witness
    windows at the roots, exact Koszul corner sets with inherited witnesses,
    block leaves matching their Koszul parents and the strictly decreasing
    coordinate-sum measure.
    Purely combinatorial; the Euler-characteristic replay against the
    cohomology oracle lives in the model layer.

    Acyclicity needs no search of its own, because every cycle comes with
    another violation.  A span or block node with edges is LEAF_CHILDREN, and
    a node of another kind or label length is BAD_KIND or BAD_LABEL, so a
    cycle without those runs through koszul nodes only.  A child edge that
    passes MEASURE lowers the coordinate sum, and a block edge that passes
    BLOCK_MISMATCH ends at a block node, which has no edges.
    """
    ctx = _extraction_context(d)
    n = d.n
    corners = koszul_corners(d.alpha)[1:]
    R, Sa, S = ctx.R, ctx.S_alpha, ctx.S
    violations: list[tuple[str, str, str]] = []
    node_map: dict[str, CertificateNode] = {}
    for node in cert.nodes:
        if node.key in node_map:
            violations.append(("DUPLICATE_KEY", node.key, "key appears twice"))
        node_map[node.key] = node

    def wval(node):
        return ctx.W(node.label) - ctx.C * node.witness

    for node in cert.nodes:
        if len(node.label) != n:
            violations.append(("BAD_LABEL", node.key, "label length"))
            continue
        W = wval(node)
        if W != node.W:
            violations.append(("W_MISMATCH", node.key,
                               f"recomputed {Fraction(W, R)}, "
                               f"stored {Fraction(node.W, R)}"))
        if node.kind == "span":
            if not (-Sa < W <= 0):
                violations.append(("LEAF_WINDOW", node.key,
                                   f"w = {Fraction(W, R)}"))
            if node.children or node.block_key:
                violations.append(("LEAF_CHILDREN", node.key,
                                   "spanning leaf has children"))
        elif node.kind == "block":
            if not (0 < W <= -S):
                violations.append(("LEAF_WINDOW", node.key,
                                   f"w = {Fraction(W, R)}"))
            if node.children or node.block_key:
                violations.append(("LEAF_CHILDREN", node.key,
                                   "block leaf has children"))
        elif node.kind == "koszul":
            if not (0 < W <= -S):
                violations.append(("NODE_WINDOW", node.key,
                                   f"w = {Fraction(W, R)}"))
            expected = [(_shifted(node.label, subset), node.witness)
                        for subset in corners]
            got = []
            for ckey in node.children:
                child = node_map.get(ckey)
                if child is None:
                    violations.append(("MISSING_NODE", node.key,
                                       f"child {ckey} absent"))
                    continue
                got.append((child.label, child.witness))
                if sum(child.label) >= sum(node.label):
                    violations.append(("MEASURE", node.key,
                                       f"child {ckey} does not decrease"))
            if sorted(got) != sorted(expected):
                violations.append(("CORNER_SET", node.key,
                                   "children are not the Koszul corners"))
            block = node_map.get(node.block_key or "")
            if block is None:
                violations.append(("MISSING_NODE", node.key, "block leaf absent"))
            elif (block.kind != "block" or block.label != node.label
                  or block.witness != node.witness):
                violations.append(("BLOCK_MISMATCH", node.key,
                                   "block leaf disagrees with its parent"))
        else:
            violations.append(("BAD_KIND", node.key, node.kind))

    for label, root_key in cert.targets:
        root = node_map.get(root_key)
        if root is None:
            violations.append(("TARGET_MISSING", root_key, str(label)))
            continue
        if root.label != tuple(label):
            violations.append(("TARGET_LABEL", root_key,
                               f"root label {root.label} != target {label}"))
        if len(root.label) != n:
            continue   # BAD_LABEL is already reported for this node
        W = wval(root)
        if not (-Sa < W <= -S):
            violations.append(("WITNESS_WINDOW", root_key,
                               f"w = {Fraction(W, R)}"))

    return CertificateVerification(ok=not violations,
                                   violations=tuple(violations))
