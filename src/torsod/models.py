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
from math import lcm

from . import errors, lattice, oracle, sod
from .extraction import (ExtractionDatum, koszul_corners, make_datum,
                         relation_rows)
from .oracle import StackyFan, make_fan


@dataclass(frozen=True)
class ModelPair:
    """A local datum realized inside a pair of complete stacky fans.

    ``x_rays``/``y_rays`` map datum ray indices to fan ray indices; rays of
    the fans that appear in neither map are compactification rays carrying
    exponent zero for every local label.
    """

    name: str
    datum: ExtractionDatum
    fan_x: StackyFan
    fan_y: StackyFan
    exceptional_index: int
    x_rays: tuple[int, ...]   # length n+1
    y_rays: tuple[int, ...]   # length n


def y_label(pair: ModelPair, k_local) -> tuple[int, ...]:
    """Spread a length-n local label over the target fan's rays (zeros elsewhere)."""
    return _spread(pair.y_rays, len(pair.fan_y.rays), k_local)


def x_label(pair: ModelPair, k_full) -> tuple[int, ...]:
    """Spread a length-(n+1) label over the source fan's rays."""
    return _spread(pair.x_rays, len(pair.fan_x.rays), k_full)


def _spread(index, size, label) -> tuple[int, ...]:
    """Put ``label[i]`` at position ``index[i]`` of a zero vector of ``size``."""
    if len(label) != len(index):
        raise ValueError(f"label must have length {len(index)}")
    full = [0] * size
    for j, k in zip(index, label):
        full[j] = int(k)
    return tuple(full)


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
                     exceptional_index=e, x_rays=tuple(shift[:n]) + (e,),
                     y_rays=tuple(range(n)))
    _validate_pair(pair)
    return pair


def _validate_pair(pair: ModelPair) -> None:
    if not oracle.check_complete(pair.fan_y):
        raise errors.ModelMismatch(f"{pair.name}: target fan is not complete")
    if not oracle.check_complete(pair.fan_x):
        raise errors.ModelMismatch(f"{pair.name}: source fan is not complete")
    # datum_from_fans refuses an exceptional index that is not the extra
    # ray; equal datum and maps then imply every ray and order agrees.
    recovered, x_map, y_map = datum_from_fans(
        pair.fan_x, pair.fan_y, pair.exceptional_index)
    if (recovered != pair.datum or x_map != pair.x_rays
            or y_map != pair.y_rays):
        raise errors.ModelMismatch(
            f"{pair.name}: fans do not reconstruct the stated datum")


# ---------------------------------------------------------------------------
# Reconstruction


def datum_from_fans(fan_x: StackyFan, fan_y: StackyFan,
                    exceptional_index: int | None = None):
    """Recover the local datum relating two fans by one star subdivision.

    Matches rays between the fans, identifies the single extra ray of the
    source fan, locates the face of the target fan containing it, checks that
    the source cones are exactly the star subdivision, and solves the ray
    relation with coprime integer coefficients.  The zero-coefficient rays are
    taken from the lexicographically first maximal target cone containing the
    center face.  Returns (datum, x_ray_map, y_ray_map).
    """
    x_index = {key: xi
               for xi, key in enumerate(zip(fan_x.rays, fan_x.orders))}
    y_to_x = []
    for yi, key in enumerate(zip(fan_y.rays, fan_y.orders)):
        if key not in x_index:
            raise errors.ModelMismatch(
                f"target ray {yi} {key[0]} has no counterpart in the "
                "source fan")
        y_to_x.append(x_index[key])
    leftovers = set(range(len(fan_x.rays))) - set(y_to_x)
    if len(leftovers) != 1:
        raise errors.ModelMismatch(
            f"expected exactly one extra source ray, found {len(leftovers)}")
    extra = leftovers.pop()
    if exceptional_index is not None and exceptional_index != extra:
        raise errors.ModelMismatch(
            f"stated exceptional index {exceptional_index}, found {extra}")
    ve = fan_x.rays[extra]

    # The first full-dimensional target cone holding v_E, in sorted order,
    # gives both the center (its positive coordinates) and the relation:
    # every full-dimensional cone holding v_E contains the center face, and
    # every one containing the center face holds v_E.
    for host in sorted(fan_y.max_cones):
        if len(host) != fan_y.rank:
            continue
        coords = oracle._cone_coordinates(fan_y, host, ve)
        if all(c >= 0 for c in coords):
            break
    else:
        raise errors.ModelMismatch(
            "exceptional ray lies outside the target fan's support cones")
    weights = {j: c for j, c in zip(host, coords) if c > 0}
    center = tuple(weights)
    if len(center) < 2:
        raise errors.ModelMismatch(
            "exceptional ray must be interior to a face of dimension >= 2")

    # The source cones must be exactly the star subdivision along the center.
    cones = [[y_to_x[j] for j in cone] for cone in fan_y.max_cones]
    if (_star_subdivision(cones, [y_to_x[j] for j in center], extra)
            != set(fan_x.max_cones)):
        raise errors.ModelMismatch(
            "source fan is not the star subdivision of the target fan")

    # Scale the relation sum(a_i v_i) = |a_E| v_E over the center rays to
    # coprime integers; the host's other rays get coefficient zero.
    scale = lcm(*(w.denominator for w in weights.values()))
    *a_pos, a_e = lattice.primitivize(
        [int(weights[j] * scale) for j in center] + [scale])[0]
    zero_rays = tuple(j for j in host if j not in center)

    y_order = tuple(center) + zero_rays
    rays = tuple(fan_y.rays[j] for j in y_order) + (ve,)
    coefficients = tuple(a_pos) + (0,) * len(zero_rays) + (-a_e,)
    orders = tuple(fan_y.orders[j] for j in y_order) + (fan_x.orders[extra],)
    datum = make_datum(rays, coefficients, orders)
    x_map = tuple(y_to_x[j] for j in y_order) + (extra,)
    return datum, x_map, y_order


# ---------------------------------------------------------------------------
# Fiber side


@dataclass(frozen=True)
class FiberModel:
    """Star of the extraction center: the fan the blocks live on.

    ``source_rays`` maps each fiber ray back to the target-fan ray it came
    from.
    """

    fan: StackyFan
    source_rays: tuple[int, ...]


def fiber_model(pair: ModelPair) -> FiberModel:
    """Project the star of the center face onto the fiber lattice.

    Each star cone drops the center rays; the remaining rays map to
    primitive generators whose multiplicities fold into the fiber orders.
    """
    d = pair.datum
    alpha = d.alpha
    center = sorted(pair.y_rays[i] for i in range(alpha))
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
    return FiberModel(fan=fan_f, source_rays=tuple(source))


def transfer_label(pair: ModelPair, fiber: FiberModel, k_local):
    """Exact fiber transfer of a local label, or None when it vanishes.

    The transfer is nonzero exactly when some character m solves
    r_i <m, v_i> = k_i on the center rays; the fiber label then shifts every
    star exponent by the monomial twist: ktilde_j = k_j - r_j <m, u_j>.
    """
    d = pair.datum
    if len(k_local) != d.n:
        raise ValueError(f"local label must have length {d.n}")
    m0 = lattice.solve_integer(relation_rows(d, d.alpha),
                               list(k_local[:d.alpha]))
    if m0 is None:
        return None
    full = y_label(pair, k_local)
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
    ok: bool
    total: int
    failures: tuple[str, ...]


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
    return CrossCheck(name="koszul-replay", ok=not failures, total=total,
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
    return CrossCheck(name="fully-faithful-oracle", ok=not failures,
                      total=total, failures=tuple(failures))


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
    return CrossCheck(name="semiorthogonality-oracle", ok=not failures,
                      total=total, failures=tuple(failures))


def transfer_dichotomy_check(pair: ModelPair, dec: sod.Decomposition,
                             bound: int, fiber: FiberModel) -> CrossCheck:
    """Compare both vanishing tests against the oracle over a label box.

    For every local label supported on the first alpha rays inside
    [-bound, bound]^alpha: the divisibility certificate must never contradict
    the oracle (certified implies zero corner sum), and the exact lattice
    test must match the oracle's verdict on the nose.  The corner sum used as
    the oracle verdict is the alternating Euler sum, which equals the Euler
    characteristic of the transferred sheaf.
    """
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
    return CrossCheck(name="transfer-dichotomy", ok=not failures, total=total,
                      failures=tuple(failures))


def count_identity_check(dec: sod.Decomposition) -> CrossCheck:
    """Local generator bookkeeping: |Cl| = #spanning + #blocks * |Cl_fiber|."""
    lhs, rhs, parts = sod.generator_count_identity(dec)
    ok = lhs == rhs
    failure = () if ok else (f"lhs {lhs} != rhs {rhs} ({parts})",)
    return CrossCheck(name="count-identity", ok=ok, total=1, failures=failure)
