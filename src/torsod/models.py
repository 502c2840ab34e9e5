"""Canned compactified models and the oracle-side decomposition checks.

A model pairs a local extraction datum with complete stacky fans for both
sides of the map: the target fan (before inserting the exceptional ray) and
the source fan (after).  On top of a pair this module builds the fiber fan as
the star of the extraction center, transfers labels to it exactly, and replays
every combinatorial claim of the decomposition against brute-force cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import index

from . import errors, lattice, oracle, sod
from .extraction import (ExtractionDatum, koszul_corners, make_datum,
                         relation_rows)
from .oracle import StackyFan, make_fan


@dataclass(frozen=True)
class ModelPair:
    """A local datum realized inside a pair of complete stacky fans.

    The target fan's rays are v_1..v_n and then one extra compactification
    ray, which carries exponent zero for every local label; the source fan's
    rays are the same with v_E inserted at ``exceptional_index``.
    """

    name: str
    datum: ExtractionDatum
    fan_x: StackyFan
    fan_y: StackyFan
    exceptional_index: int


def y_label(pair: ModelPair, k_local) -> tuple[int, ...]:
    """A length-n local label on the target fan's rays (0 on the extra ray).

    Every entry must be an integer (``operator.index``); a float raises
    TypeError rather than being truncated.
    """
    if len(k_local) != pair.datum.n:
        raise ValueError(f"label must have length {pair.datum.n}")
    return tuple(map(index, k_local)) + (0,)


def x_label(pair: ModelPair, k_full) -> tuple[int, ...]:
    """A length-(n+1) label on the source fan's rays: k_E at v_E's index."""
    n, e = pair.datum.n, pair.exceptional_index
    if len(k_full) != n + 1:
        raise ValueError(f"label must have length {n + 1}")
    full = y_label(pair, k_full[:n])
    return full[:e] + (index(k_full[n]),) + full[e:]


# ---------------------------------------------------------------------------
# Catalog: each model is a datum (rays, a, r) plus one extra ray and the
# source-fan index of v_E.

_CATALOG = {
    "a1-half": (((1, 0), (1, 2), (1, 1)), (1, 1, -2), (2, 2, 1),
                (-1, -1), 2),
    "smooth-blowup": (((1, 0), (0, 1), (1, 1)), (1, 1, -1), (1, 1, 1),
                      (-1, -1), 2),
    "a2-third": (((1, 0), (1, 3), (1, 1)), (2, 1, -3), (3, 3, 1),
                 (-3, -4), 2),
    "a1-half-crepant": (((1, 0), (1, 2), (1, 1)), (1, 1, -2), (1, 1, 1),
                        (-1, -1), 2),
    "a1-half-line": (((1, 0, 0), (1, 2, 0), (0, 0, 1), (1, 1, 0)),
                     (1, 1, 0, -2), (2, 2, 1, 1), (-2, -2, -1), 4),
}

_FAN_CATALOG = {
    "p1": lambda: make_fan(1, ((1,), (-1,)), (1, 1), ((0,), (1,))),
    "p2": lambda: make_fan(2, ((1, 0), (0, 1), (-1, -1)), (1, 1, 1),
                           ((0, 1), (1, 2), (0, 2))),
    "stacky-p1": lambda: make_fan(1, ((1,), (-1,)), (2, 1), ((0,), (1,))),
}


def example_names() -> list[str]:
    return sorted(_CATALOG)


def fan_names() -> list[str]:
    return sorted(_FAN_CATALOG)


def canned_example(name: str) -> ModelPair:
    try:
        rays, a, r, extra, index = _CATALOG[name]
    except KeyError:
        raise errors.UnknownExample(
            f"unknown model {name!r}; available: {', '.join(example_names())}"
        ) from None
    return _compact_pair(name, make_datum(rays, a, r), extra, index)


def canned_fan(name: str) -> StackyFan:
    try:
        builder = _FAN_CATALOG[name]
    except KeyError:
        raise errors.UnknownExample(
            f"unknown fan {name!r}; available: {', '.join(fan_names())}"
        ) from None
    return builder()


def _star_subdivision(cones, center, extra) -> set[tuple[int, ...]]:
    """Star subdivision of simplicial cones at a ray inside face ``center``.

    Each cone containing the center face splits into one cone per center ray,
    with that ray replaced by ``extra``; every other cone is kept
    (Cox-Little-Schenck, *Toric Varieties*, section 3.3).
    """
    out = set()
    for cone in cones:
        if set(center) <= set(cone):
            out.update(tuple(sorted(set(cone) - {j} | {extra}))
                       for j in center)
        else:
            out.add(tuple(sorted(cone)))
    return out


def _compact_pair(name, datum, extra, exceptional_index) -> ModelPair:
    """Complete a local datum by one extra ray, with trivial order.

    The target fan is the simplex fan on v_1..v_n and ``extra``: its maximal
    cones are all n-subsets of those n+1 rays.  The source fan inserts v_E at
    ``exceptional_index`` and is the star subdivision along the center
    v_1..v_alpha.
    """
    n, e = datum.n, exceptional_index
    rays = datum.rays[:n] + (tuple(extra),)
    orders = datum.orders[:n] + (1,)
    cones = list(combinations(range(n + 1), n))
    # Target ray j sits at source index j, or j + 1 from v_E's index on.
    shift = [j + (j >= e) for j in range(n + 1)]
    fan_y = make_fan(n, rays, orders, cones)
    fan_x = make_fan(
        n, rays[:e] + datum.rays[n:] + rays[e:],
        orders[:e] + datum.orders[n:] + orders[e:],
        _star_subdivision([[shift[j] for j in cone] for cone in cones],
                          shift[:datum.alpha], e))
    pair = ModelPair(name=name, datum=datum, fan_x=fan_x, fan_y=fan_y,
                     exceptional_index=e)
    _validate_pair(pair)
    return pair


def _validate_pair(pair: ModelPair) -> None:
    """Both fans are complete and carry the ray layout the labels assume.

    The target rays and orders must be the datum's first n and then one
    extra ray; the source's the same with v_E's at ``exceptional_index``.
    """
    if not oracle.check_complete(pair.fan_y):
        raise errors.ModelMismatch(f"{pair.name}: target fan is not complete")
    if not oracle.check_complete(pair.fan_x):
        raise errors.ModelMismatch(f"{pair.name}: source fan is not complete")
    d, e = pair.datum, pair.exceptional_index
    local = tuple(zip(d.rays, d.orders))
    target = tuple(zip(pair.fan_y.rays, pair.fan_y.orders))
    source = tuple(zip(pair.fan_x.rays, pair.fan_x.orders))
    if (target[:-1] != local[:-1]
            or source != target[:e] + local[-1:] + target[e:]):
        raise errors.ModelMismatch(
            f"{pair.name}: fans do not carry the datum's rays and orders in "
            "the stated layout")


# ---------------------------------------------------------------------------
# Fiber side


@dataclass(frozen=True)
class FiberModel:
    """Star of the extraction center: the fan the blocks live on.

    ``source_rays`` maps each fiber ray back to the target-fan ray it came
    from.  ``transfer`` is Z^alpha modulo the lattice of the center rows
    r_i <m, v_i>, whose preimages are the transfer's characters.
    """

    fan: StackyFan
    source_rays: tuple[int, ...]
    transfer: lattice.AbelianGroup


def fiber_model(pair: ModelPair) -> FiberModel:
    """Project the star of the center face onto the fiber lattice.

    Each star cone drops the center rays; the remaining rays map to
    primitive generators whose multiplicities fold into the fiber orders.
    """
    d = pair.datum
    alpha = d.alpha
    center = range(alpha)
    proj = lattice.quotient_project(d.n, [pair.fan_y.rays[j] for j in center])
    star = [c for c in pair.fan_y.max_cones if set(center) <= set(c)]
    if not star:
        raise errors.ModelMismatch("center face lies in no maximal cone")

    images: dict[int, tuple[tuple[int, ...], int]] = {}
    for cone in star:
        for j in cone:
            if j in center or j in images:
                continue
            images[j] = lattice.primitivize(proj.apply(pair.fan_y.rays[j]))
    source = sorted(images)
    index_of = {j: i for i, j in enumerate(source)}
    rays_f = [images[j][0] for j in source]
    if len(set(rays_f)) != len(rays_f):
        raise errors.ModelMismatch(
            "two star rays project to the same fiber ray")
    orders_f = [pair.fan_y.orders[j] * images[j][1] for j in source]
    cones_f = sorted(tuple(sorted(index_of[j] for j in cone
                                  if j not in center))
                     for cone in star)
    fan_f = make_fan(d.n - alpha, rays_f, orders_f, cones_f)
    if not oracle.check_complete(fan_f):
        raise errors.ModelMismatch("fiber fan is not complete")
    return FiberModel(fan=fan_f, source_rays=tuple(source),
                      transfer=lattice.cokernel(relation_rows(d, alpha)))


def transfer_label(pair: ModelPair, fiber: FiberModel, k_local):
    """Exact fiber transfer of a local label, or None when it vanishes.

    The transfer is nonzero exactly when some character m solves
    r_i <m, v_i> = k_i on the center rays; the fiber label then shifts every
    star exponent by the monomial twist: ktilde_j = k_j - r_j <m, u_j>.
    """
    full = y_label(pair, k_local)
    m0 = fiber.transfer.preimage(full[:pair.datum.alpha])
    if m0 is None:
        return None
    out = []
    for j in fiber.source_rays:
        twist = pair.fan_y.orders[j] * sum(
            a * b for a, b in zip(m0, pair.fan_y.rays[j]))
        out.append(full[j] - twist)
    return tuple(out)


def block_euler_characteristic(pair: ModelPair, fiber: FiberModel,
                               k_local) -> int:
    """Euler characteristic of the block sheaf attached to a local label."""
    transferred = transfer_label(pair, fiber, k_local)
    if transferred is None:
        return 0
    return oracle.euler_characteristic(fiber.fan, transferred)


# ---------------------------------------------------------------------------
# Oracle-side decomposition checks


@dataclass(frozen=True)
class CrossCheck:
    name: str
    total: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """No failure among at least one comparison: none passes vacuously."""
        return self.total > 0 and not self.failures


def _koszul_corner_sum(pair: ModelPair, label) -> int:
    """Alternating Euler sum over the Koszul corners of a local label."""
    total = 0
    for subset in koszul_corners(pair.datum.alpha):
        corner = [k - (i in subset) for i, k in enumerate(label)]
        total += (-1) ** len(subset) * oracle.euler_characteristic(
            pair.fan_y, y_label(pair, corner))
    return total


def koszul_replay_check(pair: ModelPair, cert: sod.GenerationCertificate,
                        fiber: FiberModel) -> CrossCheck:
    """Replay every Koszul node of a certificate against the oracle.

    The alternating sum of target-side Euler characteristics over the corner
    labels must equal the Euler characteristic of the block sheaf the node
    claims to produce.
    """
    failures = []
    total = 0
    for node in cert.nodes:
        if node.kind != "koszul":
            continue
        total += 1
        lhs = _koszul_corner_sum(pair, node.label)
        rhs = block_euler_characteristic(pair, fiber, node.label)
        if lhs != rhs:
            failures.append(f"{node.key}: corner sum {lhs} != block chi {rhs}")
    return CrossCheck(name="koszul-replay", total=total,
                      failures=tuple(failures))


def fully_faithful_oracle_check(pair: ModelPair,
                                dec: sod.Decomposition) -> CrossCheck:
    """Source-vs-target cohomology agreement on all spanning differences.

    For every ordered pair of spanning classes the Hom dims upstairs (source
    fan, full label difference) must equal the Hom dims downstairs (target
    fan, truncated difference).
    """
    d = pair.datum
    failures = []
    total = 0
    for p in dec.spans:
        for q in dec.spans:
            delta = tuple(a - b for a, b in zip(p.label, q.label))
            hx = oracle.cohomology(pair.fan_x, x_label(pair, delta))
            hy = oracle.cohomology(pair.fan_y, y_label(pair, delta[:d.n]))
            total += 1
            if hx != hy:
                failures.append(f"delta {delta}: source {hx} != target {hy}")
    return CrossCheck(name="fully-faithful-oracle", total=total,
                      failures=tuple(failures))


def semiorthogonality_oracle_check(pair: ModelPair, dec: sod.Decomposition,
                                   fiber: FiberModel) -> CrossCheck:
    """Verify every claimed Hom-vanishing through the fiber transfer.

    Each orthogonality entry provides a local label whose transfer must be
    the zero sheaf (or at least have no cohomology in any degree); block
    self-Homs must come out one-dimensional in degree zero.  The self-Hom
    corner labels are minus the corner indicators whatever the block, so
    their verdict is found once and counted once per block.
    """
    d = pair.datum
    report = sod.semiorthogonality_check(dec)
    failures = []
    total = 0
    for entry in report.entries:
        total += 1
        transferred = transfer_label(pair, fiber, entry.label)
        if transferred is None:
            continue
        dims = oracle.cohomology(fiber.fan, transferred)
        if any(dims):
            failures.append(
                f"{entry.kind} {entry.source}->{entry.target} corner "
                f"{entry.corner}: transfer {transferred} has dims {dims}")

    expected = (1,) + (0,) * fiber.fan.rank
    dims = (0,) * (fiber.fan.rank + 1)
    nonzero = []   # masks of the nonempty corners whose transfer survives
    for mask, subset in enumerate(koszul_corners(d.alpha)):
        delta = [-(i in subset) for i in range(d.n)]
        transferred = transfer_label(pair, fiber, delta)
        if transferred is None:
            continue
        if mask:
            nonzero.append(mask)
        else:
            dims = oracle.cohomology(fiber.fan, transferred)
    for b in dec.blocks:
        total += 1
        failures.extend(
            f"block {b.label}: corner {mask:b} transfer unexpectedly nonzero"
            for mask in nonzero)
        if not nonzero and dims != expected:
            failures.append(
                f"block {b.label}: self-Hom dims {dims} != {expected}")
    return CrossCheck(name="semiorthogonality-oracle", total=total,
                      failures=tuple(failures))


def transfer_dichotomy_check(pair: ModelPair, dec: sod.Decomposition,
                             bound: int, fiber: FiberModel) -> CrossCheck:
    """Compare both vanishing tests against the oracle over a label box.

    For every local label supported on the first alpha rays inside
    [-bound, bound]^alpha: the divisibility certificate must never contradict
    the oracle (certified implies zero corner sum), and the exact lattice
    test must match the oracle's verdict on the nose.  The corner sum used as
    the oracle verdict is the alternating Euler sum, which equals the Euler
    characteristic of the transferred sheaf.  A negative bound would
    compare nothing and raises ValueError.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    d = pair.datum
    failures = []
    total = 0
    for head in product(range(-bound, bound + 1), repeat=d.alpha):
        label = tuple(head) + (0,) * (d.n - d.alpha)
        total += 1
        corner_sum = _koszul_corner_sum(pair, label)
        certified = sod.fiber_transfer_vanishes(dec.ctx, label)
        invertible = sod.transfer_is_invertible(dec.ctx, label)
        if certified and corner_sum != 0:
            failures.append(
                f"label {label}: certified vanishing but corner sum "
                f"{corner_sum}")
        expected = block_euler_characteristic(pair, fiber, label)
        if corner_sum != expected:
            failures.append(
                f"label {label}: corner sum {corner_sum} != transfer chi "
                f"{expected}")
        if invertible == (expected == 0) and d.n == d.alpha:
            # On a point fiber an invertible transfer has chi exactly 1.
            failures.append(
                f"label {label}: lattice test {invertible} disagrees with "
                f"oracle chi {expected}")
    return CrossCheck(name="transfer-dichotomy", total=total,
                      failures=tuple(failures))


def count_identity_check(dec: sod.Decomposition) -> CrossCheck:
    """Local generator bookkeeping: |Cl| = #spanning + #blocks * |Cl_fiber|."""
    lhs, rhs, parts = sod.generator_count_identity(dec)
    failure = () if lhs == rhs else (f"lhs {lhs} != rhs {rhs} ({parts})",)
    return CrossCheck(name="count-identity", total=1, failures=failure)
