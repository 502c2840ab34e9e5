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

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, attrgetter, index, mul, sub

from . import errors, lattice
from .extraction import (
    DatumContext,
    ExtractionDatum,
    MorphismKind,
    classify,
    datum_context,
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
    is :func:`transfer_is_invertible`).  Every entry of ``k_local`` must be
    an integer (``operator.index``), so a float raises TypeError.
    """
    n = ctx.datum.n
    k_local = tuple(map(index, k_local))
    if len(k_local) != n:
        raise ValueError(f"local exponent vector must have length {n}")
    return _vanishes(ctx, ctx.W(k_local))


def _vanishes(ctx: DatumContext, W: int) -> bool:
    """The divisibility certificate on the integer weight W = W(k_local).

    The solved exponent -W r_{n+1} / (a_{n+1} R) is an integer multiple of
    r_{n+1} exactly when M = |a_{n+1}| R divides W.
    """
    return W % _modulus(ctx) != 0


def _modulus(ctx: DatumContext) -> int:
    """M = |a_{n+1}| R, the modulus of the divisibility certificate."""
    return -ctx.datum.coefficients[-1] * ctx.R


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

    if W_free < 0:
        free, W_free = tuple(-x for x in free), -W_free

    # f * free + t with t a torsion class is its own canonical representative
    # (its Smith coordinates are +-f and residues 0 <= c_i < d_i), and W is
    # linear and zero on torsion, so its weight is f * W_free, which must
    # land in (-S_alpha, 0].
    torsion = group.classes()
    out = [SpanningClass(label=tuple(f * x + y for x, y in zip(free, t)),
                         W=f * W_free)
           for f in range(-ctx.S_alpha // W_free + 1, 1) for t in torsion]
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
        witness, W = _window_witness(ctx, ctx.W(label))
        if W > 0:
            groups.setdefault(ctx.tau.reduce(label), []).append(
                (W, label, witness))

    def rep_quality(item):
        # A grouped candidate has its witnessed W in (0, -S], inside the
        # one-stride window (-S_alpha, -S]; so W(lab) itself lies in (0, -S]
        # exactly when witness 0 puts it in the window, i.e. when the unique
        # witness is 0.
        _, lab, witness = item
        nice = all(x >= 0 for x in lab) and witness == 0
        return (0 if nice else 1, lab)

    blocks: list[BlockLabel] = []
    for g in groups.values():
        g.sort(key=rep_quality)
        W, label, witness = g[0]
        blocks.append(BlockLabel(label=label, witness=witness, W=W,
                                 aliases=tuple(lab for _, lab, _ in g[1:])))
    blocks.sort(key=lambda b: (b.W, b.label))
    return blocks


def transfer_is_invertible(ctx: DatumContext, k_local) -> bool:
    """Exact dichotomy: the fiber transfer of k_local is invertible or zero.

    Invertible exactly when the first-alpha part is congruent to a monomial
    twist, i.e. lies in L_tau; the exponents past alpha do not interfere with
    the criterion because their divisors miss the fiber locus.  Every entry
    of ``k_local`` must be an integer (``operator.index``).
    """
    d = ctx.datum
    k_local = tuple(map(index, k_local))
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

    koszul = [(subset, part, 0 < part < ctx.C)
              for subset, _, part in ctx.corners[1:]]

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


class _Entries:
    """The orthogonality entries of one report, each computed when iterated.

    The entries come in two runs.  First every spanning class against
    every block, spans outer.  Then every ordered block pair (b, c) with
    b is not c and c.W >= b.W (:meth:`_pairs`), 2^alpha entries each, one
    per corner of ``ctx.corners``: "block-block" when c.W > b.W, "equal-w"
    when equal.  Only the weight W of each span's and block's local label
    (l[:n] and the zero-extended b) is stored; each verdict is computed as
    its entry is yielded, so the entries can be iterated again.  The length
    is counted on the sorted stored weights, with no pass over the pairs.
    """

    __slots__ = ("_ctx", "_spans", "_blocks", "_span_W", "_block_W", "_len")

    def __init__(self, dec: Decomposition):
        ctx = dec.ctx
        self._ctx, self._spans, self._blocks = ctx, dec.spans, dec.blocks
        self._span_W = [ctx.W(l.label[:ctx.datum.n]) for l in dec.spans]
        self._block_W = [ctx.W(b.label) for b in dec.blocks]
        stored_W = sorted(b.W for b in dec.blocks)
        # b pairs with every block of W >= b.W but the positions holding b
        seen = Counter(map(id, dec.blocks))
        pairs = sum(len(stored_W) - bisect_left(stored_W, b.W) - seen[id(b)]
                    for b in dec.blocks)
        self._len = (len(dec.spans) * len(dec.blocks)
                     + pairs * len(ctx.corners))

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for pos, j in product(range(len(self._spans)),
                              range(len(self._blocks))):
            yield self._span_entry(pos, j)
        for i, j in self._pairs():
            for s in range(len(self._ctx.corners)):
                yield self._pair_entry(i, j, s)

    def _pairs(self):
        """Yield the positions (i, j) of the ordered block pairs, in order."""
        for i, b in enumerate(self._blocks):
            for j, c in enumerate(self._blocks):
                if c is not b and c.W >= b.W:
                    yield i, j

    def _span_entry(self, pos: int, j: int) -> OrthogonalityEntry:
        return _orthogonality_entry(
            self._ctx.datum.n, "span-block", self._spans[pos].label,
            self._blocks[j].label, (),
            _vanishes(self._ctx, self._span_W[pos] - self._block_W[j]))

    def _pair_entry(self, i: int, j: int, s: int) -> OrthogonalityEntry:
        b, c = self._blocks[i], self._blocks[j]
        subset, _, part = self._ctx.corners[s]
        kind = "block-block" if c.W > b.W else "equal-w"
        if kind == "equal-w" and s == 0:
            certified = not self._ctx.tau.contains(
                tuple(map(sub, b.label, c.label)))
        else:
            certified = _vanishes(
                self._ctx, self._block_W[i] - self._block_W[j] - part)
        return _orthogonality_entry(self._ctx.datum.n, kind, b.label,
                                    c.label, subset, certified)

    def failures(self):
        """Yield the uncertified entries, in order.

        A span-block entry fails exactly when its two local weights agree
        mod M = |a_{n+1}| R, so each span reads the blocks of its residue
        and no passing span-block entry is visited.  A block pair's interval
        corners fail where the corner weight agrees with the pair's weight
        difference mod M, read from a residue table of the corners.
        """
        ctx = self._ctx
        M = _modulus(ctx)
        blocks_at: dict[int, list[int]] = {}
        for j, W_b in enumerate(self._block_W):
            blocks_at.setdefault(W_b % M, []).append(j)
        for pos, W_l in enumerate(self._span_W):
            for j in blocks_at.get(W_l % M, ()):
                yield self._span_entry(pos, j)

        corners_at: dict[int, list[int]] = {}
        for s, (_, _, part) in enumerate(ctx.corners):
            corners_at.setdefault(part % M, []).append(s)
        for i, j in self._pairs():
            b, c = self._blocks[i], self._blocks[j]
            failing = corners_at.get(
                (self._block_W[i] - self._block_W[j]) % M, ())
            if c.W == b.W:
                # corner 0 of an equal-w pair is the lattice verdict
                if ctx.tau.contains(tuple(map(sub, b.label, c.label))):
                    yield self._pair_entry(i, j, 0)
                failing = [s for s in failing if s]
            for s in failing:
                yield self._pair_entry(i, j, s)


def _orthogonality_entry(n: int, kind: str, source, target, corner,
                         certified: bool) -> OrthogonalityEntry:
    """The entry with local label source[:n] - target - 1_corner."""
    label = list(source[:n]) + [0] * (n - len(source))
    for i, x in enumerate(target):
        label[i] -= x
    for i in corner:
        label[i] -= 1
    return OrthogonalityEntry(
        kind=kind, source=source, target=target, corner=corner,
        label=tuple(label), certified=certified,
        reason="lattice" if kind == "equal-w" and not corner else "interval")


@dataclass(frozen=True)
class SemiorthogonalityReport:
    ok: bool
    entries: Iterable[OrthogonalityEntry]       # sized; built as iterated
    failures: tuple[OrthogonalityEntry, ...]    # the uncertified entries


def semiorthogonality_check(dec: Decomposition) -> SemiorthogonalityReport:
    """Certify every Hom-vanishing the decomposition asserts.

    Three families: spanning classes against blocks (all degrees), ordered
    block pairs with increasing w, and distinct blocks of equal w (both
    directions).  Interval certificates place the solved exceptional exponent
    strictly between consecutive integers; the remaining equal-w corner uses
    exact non-membership in the transfer lattice.

    W is linear, so the local label l[:n] - b_ext - 1_S has weight

        W(l[:n]) - W(b_ext) - sum_{i in S} c_i,

    and the same with a block in place of l for block pairs.  W is found
    once per span and block from its label, so the verdicts hold for the
    labels whatever weights the records store; the corner sums are read
    from ``ctx.corners``, and each verdict is that weight mod
    M = |a_{n+1}| R != 0 (:func:`_vanishes`).  ``entries`` stores nothing
    per entry: it has a length and can be iterated again, and it computes
    each :class:`OrthogonalityEntry` as it is yielded.  ``failures`` holds
    the uncertified entries, in order, found by joining spans and blocks on
    their weights' residues mod M.
    """
    entries = _Entries(dec)
    failures = tuple(entries.failures())
    return SemiorthogonalityReport(ok=not failures, entries=entries,
                                   failures=failures)


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

MAX_DEPTH = 64   # default bound on a target's Koszul descent steps


@dataclass(frozen=True, slots=True)
class CertificateNode:
    """One DAG node; slotted, since a certificate can hold tens of thousands."""

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


def _key_pattern(prefix: str, n: int) -> str:
    """The ``%`` pattern of a node key, for labels of length n.

    Prefix "L" marks a line bundle (span or koszul), "B" a block; the label's
    entries come next, then the witness: ``_key_pattern("L", 2) % (1, -2, 0)``
    is ``"L|1,-2|0"``.
    """
    return prefix + "|" + ",".join(["%d"] * n) + "|%d"


def _window_witness(ctx: DatumContext, W_n: int) -> tuple[int, int]:
    """The witness k and witnessed weight W_n - C k in (-S_alpha, -S].

    ``W_n`` is the weight W(label) of a label without exceptional exponent,
    and k is the unique integer exceptional exponent putting W_n - C k in
    the window: it has length S_alpha - S = C, exactly one exponent stride,
    so k always exists.
    """
    C = ctx.C
    k = -(-(ctx.S + W_n) // C)
    W = W_n - C * k
    if not (-ctx.S_alpha < W):
        raise AssertionError("witness window miscomputed")
    return k, W


def _refuse_depth(ctx: DatumContext, W_max: int, max_depth: int) -> None:
    """Refuse a descent from a root of witnessed weight ``W_max`` if too deep.

    Every corner lowers W by at least m = min(c_i : i <= alpha), and the
    corner e_i at that minimum lowers it by exactly m, so the longest descent
    from a root with W_0 > 0 has exactly ceil(W_0 / m) steps, and none from a
    span root (W_0 <= 0).
    """
    if -(-max(W_max, 0) // min(ctx.c[:ctx.datum.alpha])) > max_depth:
        raise errors.DepthExceeded(
            f"generation recursion exceeded depth {max_depth}")


def _roots(ctx: DatumContext, targets, max_depth: int):
    """Yield each target as (label, witness, W); refuse an over-deep descent.

    ``targets`` may be any iterable of labels and is read once; every entry
    must be an integer (``operator.index``), so a float raises TypeError
    rather than being truncated.  Each root's W is computed once.  The depth
    bound of the largest witnessed W (:func:`_refuse_depth`) is checked once
    the last target is read, so a caller that reads every root first builds
    no node of a refused certificate.
    """
    n = ctx.datum.n
    W_max = 0
    for target in targets:
        label = tuple(map(index, target))
        if len(label) != n:
            raise ValueError(f"target label must have length {n}")
        witness, W = _window_witness(ctx, ctx.W(label))
        if W > W_max:
            W_max = W
        yield label, witness, W
    _refuse_depth(ctx, W_max, max_depth)


def box_heads(d: ExtractionDatum, bound: int) -> list[tuple[int, ...]]:
    """The heads of the box [-bound, bound]^n: its labels with the tail zero.

    A head is a box label whose exponents past alpha are zero, so it is the
    zero extension of a length-alpha label of [-bound, bound]^alpha; the
    heads come in ``product`` order.  A negative bound raises ValueError.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    zero = (0,) * (d.n - d.alpha)
    return [head + zero
            for head in product(range(-bound, bound + 1), repeat=d.alpha)]


def certificate_parts(d: ExtractionDatum, bound: int,
                      max_depth: int = MAX_DEPTH):
    """Yield the certificate of the heads of [-bound, bound]^n by witness.

    The targets are :func:`box_heads`, one part per witness, ascending, each
    in box order.  Koszul children and block leaves inherit their parent's
    witness (CORNER_SET, BLOCK_MISMATCH), so the parts are closed,
    node-disjoint DAGs that together are :func:`generation_certificate`
    over the heads.

    Lemma: every rule of :func:`verify_certificate` is invariant under
    adding (0, ..., 0, t) to every label of a DAG and filling t into its
    keys.  c_i = 0 for alpha < i <= n, so W and the windows do not change;
    Koszul corners and block leaves move only the head, so corner sets and
    block keys shift together; and the measure sum(label) shifts by the
    constant sum(t).  So the DAG of the box's targets with tail t is the
    heads' DAG with t put in, node for node (:func:`translate_certificate`):
    a part that verifies verifies at every tail, and the box has |tails|
    times the heads' targets and nodes.

    At the first ``next()`` the heads' largest witnessed W refuses an
    over-deep descent as :func:`generation_certificate` would over the box,
    before any part is built; then each ``next()`` builds one part.  A
    negative bound raises ValueError at the first ``next()``.
    """
    ctx = _extraction_context(d)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for head, witness, _ in _roots(ctx, box_heads(d, bound), max_depth):
        groups.setdefault(witness, []).append(head)
    for witness in sorted(groups):
        yield generation_certificate(d, groups.pop(witness), max_depth)


def translate_certificate(d: ExtractionDatum, cert: GenerationCertificate,
                          tail) -> GenerationCertificate:
    """``cert`` with ``tail`` added to label[alpha:] of every label and key.

    The target labels, node labels, node keys, child keys and block keys
    all move, so a tail-zero part of :func:`certificate_parts` becomes the
    part of the same witness at ``tail``.  A key not of the builder's form
    names no label and is kept as it is.
    """
    alpha, tail = d.alpha, tuple(tail)

    def label_at(label):
        if len(label) != d.n:
            return label   # a BAD_LABEL node stays as it is
        return tuple(label[:alpha]) + tuple(map(add, label[alpha:], tail))

    moved: dict[str, str] = {}   # each key is parsed once

    def key_at(key):
        if key not in moved:
            try:
                prefix, entries, witness = key.split("|")
                label = tuple(map(int, entries.split(",")))
            except ValueError:
                moved[key] = key
            else:
                moved[key] = "|".join(
                    (prefix, ",".join(map(str, label_at(label))), witness))
        return moved[key]

    return GenerationCertificate(
        targets=tuple((label_at(label), key_at(key))
                      for label, key in cert.targets),
        nodes=tuple(CertificateNode(
            key=key_at(node.key), label=label_at(node.label),
            witness=node.witness, W=node.W, kind=node.kind,
            children=tuple(map(key_at, node.children)),
            block_key=node.block_key and key_at(node.block_key))
            for node in cert.nodes))


def generation_certificate(
        d: ExtractionDatum, targets,
        max_depth: int = MAX_DEPTH) -> GenerationCertificate:
    """Build the Koszul descent DAG proving the targets are generated.

    Each line-bundle node carries the witness exponent fixing its w inside
    (-sigma_alpha, -sigma]; nonpositive w is a spanning leaf, positive w
    expands through the 2^alpha - 1 Koszul corners (same witness) plus one
    block leaf.  The coordinate sum strictly decreases toward the corners, so
    the descent terminates; nodes are shared across targets.

    The targets are read once, and the depth bound of :func:`_roots` is
    checked against ``max_depth`` for every target before any node is built.
    Down the descent a corner's W is its parent's minus the corner weight
    and its label its parent's minus the corner vector, both read from
    ``ctx.corners``; the two key patterns are found once per call.
    Line-bundle nodes are looked up in one label map per witness, and the
    nodes are sorted by key once, at the end.
    """
    ctx = _extraction_context(d)
    n = d.n
    roots = list(_roots(ctx, targets, max_depth))

    corners = ctx.corners[1:]
    line_fmt, block_fmt = _key_pattern("L", n), _key_pattern("B", n)
    built: list[CertificateNode] = []
    lines: dict[int, dict[tuple[int, ...], CertificateNode]] = {}
    for pos, (root, witness, W_root) in enumerate(roots):
        # Line-bundle nodes of one witness, by label; a block node is reached
        # only through its koszul parent, so it needs no lookup.
        seen = lines.setdefault(witness, {})
        # A koszul node is popped twice: first to push its corners, then,
        # with every corner built, to be built itself.  Corners have a smaller
        # coordinate sum, so they never lead back to a node on the stack.
        stack = [(root, W_root, None)]
        while stack:
            label, W, kids = stack.pop()
            if kids is None and label in seen:
                continue
            if W <= 0:
                if not (-ctx.S_alpha < W):
                    raise AssertionError("spanning leaf outside its window")
                node = CertificateNode(
                    key=line_fmt % (*label, witness), label=label,
                    witness=witness, W=W, kind="span")
            elif kids is None:
                if not (W <= -ctx.S):
                    raise AssertionError("koszul node outside its window")
                kids = [(tuple(map(sub, label, vec)), W - part, None)
                        for _, vec, part in corners]
                stack.append((label, W, kids))
                stack.extend(kids)
                continue
            else:
                fields = (*label, witness)
                block = CertificateNode(
                    key=block_fmt % fields, label=label,
                    witness=witness, W=W, kind="block")
                built.append(block)
                node = CertificateNode(
                    key=line_fmt % fields, label=label,
                    witness=witness, W=W, kind="koszul",
                    children=tuple([seen[kid].key for kid, _, _ in kids]),
                    block_key=block.key)
            seen[label] = node
            built.append(node)
        roots[pos] = (root, seen[root].key)
    del lines   # free the label maps before sorting and copying the nodes
    built.sort(key=attrgetter("key"))   # keys are unique
    return GenerationCertificate(targets=tuple(roots), nodes=tuple(built))


@dataclass(frozen=True)
class CertificateVerification:
    ok: bool
    violations: tuple[tuple[str, str, str], ...]   # (code, node key, detail)


def verify_certificate(d: ExtractionDatum,
                       cert: GenerationCertificate) -> CertificateVerification:
    """Replay every structural rule of a generation certificate.

    Checks each stored W and node window against the recomputed W, witness
    windows at the roots (W recomputed from the root's label again, never
    read from the node), exact Koszul corner sets with inherited witnesses,
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
    corners = [vec for _, vec, _ in ctx.corners[1:]]
    R, Sa, S = ctx.R, ctx.S_alpha, ctx.S
    # node kind -> (W window lo < W <= hi, violation code outside it,
    # leaf name or None for the one inner kind)
    rules = {"span": (-Sa, 0, "LEAF_WINDOW", "spanning"),
             "block": (0, -S, "LEAF_WINDOW", "block"),
             "koszul": (0, -S, "NODE_WINDOW", None)}
    violations: list[tuple[str, str, str]] = []
    node_map: dict[str, CertificateNode] = {}
    for node in cert.nodes:
        if node.key in node_map:
            violations.append(("DUPLICATE_KEY", node.key, "key appears twice"))
        node_map[node.key] = node

    for node in cert.nodes:
        if len(node.label) != n:
            violations.append(("BAD_LABEL", node.key, "label length"))
            continue
        W = ctx.W(node.label) - ctx.C * node.witness
        if W != node.W:
            violations.append(("W_MISMATCH", node.key,
                               f"recomputed {Fraction(W, R)}, "
                               f"stored {Fraction(node.W, R)}"))
        rule = rules.get(node.kind)
        if rule is None:
            violations.append(("BAD_KIND", node.key, node.kind))
            continue
        lo, hi, code, leaf = rule
        if not (lo < W <= hi):
            violations.append((code, node.key, f"w = {Fraction(W, R)}"))
        if leaf is not None:
            if node.children or node.block_key:
                violations.append(("LEAF_CHILDREN", node.key,
                                   f"{leaf} leaf has children"))
            continue
        # The 2^alpha - 1 corners are distinct, so the children are
        # exactly the corners when they have as many members and the
        # same set.  A child that is a corner has a smaller sum.
        expected = {(tuple(map(sub, node.label, vec)), node.witness)
                    for vec in corners}
        measure = sum(node.label)
        got = []
        for ckey in node.children:
            child = node_map.get(ckey)
            if child is None:
                violations.append(("MISSING_NODE", node.key,
                                   f"child {ckey} absent"))
                continue
            item = (child.label, child.witness)
            got.append(item)
            if item not in expected and sum(child.label) >= measure:
                violations.append(("MEASURE", node.key,
                                   f"child {ckey} does not decrease"))
        if not (len(got) == len(expected) and set(got) == expected):
            violations.append(("CORNER_SET", node.key,
                               "children are not the Koszul corners"))
        block = node_map.get(node.block_key or "")
        if block is None:
            violations.append(("MISSING_NODE", node.key, "block leaf absent"))
        elif (block.kind != "block" or block.label != node.label
              or block.witness != node.witness):
            violations.append(("BLOCK_MISMATCH", node.key,
                               "block leaf disagrees with its parent"))

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
        W = ctx.W(root.label) - ctx.C * root.witness
        if not (-Sa < W <= -S):
            violations.append(("WITNESS_WINDOW", root_key,
                               f"w = {Fraction(W, R)}"))

    return CertificateVerification(ok=not violations,
                                   violations=tuple(violations))
