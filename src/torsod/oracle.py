"""Brute-force line-bundle cohomology on complete simplicial stacky fans.

For a label k (one integer per ray) the q-th cohomology of the associated
invertible sheaf decomposes over characters m of the dense torus; the piece
at m is the reduced simplicial cohomology, shifted by one, of the full
subcomplex of the fan's ray complex on the "negative" rays

    { j : r_j * <m, v_j> + k_j < 0 }.

Only finitely many m contribute because the fan is complete, and those lie
in the bounding box of the vertices of the hyperplane arrangement
r_j <m, v_j> = -k_j (argument in :func:`_certified_box`); completeness is
checked once per fan before any scan.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, floor

from . import errors, lattice


@dataclass(frozen=True)
class StackyFan:
    """Complete simplicial fan with a stabilizer order along each ray."""

    rank: int
    rays: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    max_cones: tuple[tuple[int, ...], ...]   # sorted 0-based ray indices


def make_fan(rank, rays, orders, max_cones) -> StackyFan:
    """Build a fan from plain sequences, validating every invariant."""
    fan = StackyFan(
        rank=int(rank),
        rays=tuple(tuple(int(x) for x in v) for v in rays),
        orders=tuple(int(r) for r in orders),
        max_cones=tuple(sorted(tuple(sorted(int(i) for i in c))
                               for c in max_cones)),
    )
    validate_fan(fan)
    return fan


def validate_fan(fan: StackyFan) -> None:
    if fan.rank < 0:
        raise errors.SchemaError("rank must be nonnegative")
    if len(fan.orders) != len(fan.rays):
        raise errors.SchemaError(
            f"{len(fan.rays)} rays but {len(fan.orders)} orders")
    for i, r in enumerate(fan.orders):
        if r < 1:
            raise errors.SchemaError(f"order[{i}] = {r} must be >= 1")
    seen = {}
    for i, v in enumerate(fan.rays):
        if len(v) != fan.rank:
            raise errors.SchemaError(f"ray[{i}] has length {len(v)}")
        if all(x == 0 for x in v):
            raise errors.NonPrimitiveRay(f"ray[{i}] is zero")
        prim, mult = lattice.primitivize(v)
        if mult != 1:
            raise errors.NonPrimitiveRay(f"ray[{i}] has content {mult}")
        if v in seen:
            raise errors.DuplicateRay(f"rays {seen[v]} and {i} coincide")
        seen[v] = i
    if fan.rank == 0:
        if fan.max_cones != ((),):
            raise errors.NonSimplicial(
                "a rank-0 fan consists of the single empty cone")
        return
    if not fan.max_cones:
        raise errors.SchemaError("fan has no maximal cones")
    covered = set()
    cone_sets = set()
    for cone in fan.max_cones:
        if len(set(cone)) != len(cone):
            raise errors.NonSimplicial(f"cone {cone} repeats a ray")
        if any(i < 0 or i >= len(fan.rays) for i in cone):
            raise errors.SchemaError(f"cone {cone} has an out-of-range ray index")
        if len(cone) > fan.rank:
            raise errors.NonSimplicial(f"cone {cone} has too many rays")
        if len(cone) == fan.rank:
            if lattice.determinant([list(fan.rays[i]) for i in cone]) == 0:
                raise errors.NonSimplicial(f"cone {cone} is degenerate")
        else:
            if lattice.rank_q([list(fan.rays[i]) for i in cone]) != len(cone):
                raise errors.NonSimplicial(f"cone {cone} is degenerate")
        if cone in cone_sets:
            raise errors.SchemaError(f"cone {cone} listed twice")
        cone_sets.add(cone)
        covered.update(cone)
    for face in fan.max_cones:
        for cone in fan.max_cones:
            if face != cone and set(face) <= set(cone):
                raise errors.SchemaError(f"cone {face} is a face of cone {cone}")
    missing = sorted(set(range(len(fan.rays))) - covered)
    if missing:
        raise errors.SchemaError(f"rays {missing} lie in no maximal cone")


# ---------------------------------------------------------------------------
# Simplicial machinery, memoized per (fan, vertex pattern)


@lru_cache(maxsize=None)
def _face_sets(fan: StackyFan) -> frozenset:
    faces = set()
    for cone in fan.max_cones:
        for size in range(len(cone) + 1):
            for sub in combinations(cone, size):
                faces.add(frozenset(sub))
    return frozenset(faces)


@lru_cache(maxsize=None)
def _pattern_cohomology(fan: StackyFan, pattern: frozenset) -> tuple[int, ...]:
    """Reduced rational cohomology dims of the full subcomplex on ``pattern``.

    The returned tuple is indexed by sheaf degree q = 0..rank, i.e. entry q
    holds the reduced cohomology in simplicial degree q - 1 (the empty
    pattern contributes 1 in degree q = 0 through the empty simplex).
    """
    faces = sorted((f for f in _face_sets(fan) if f <= pattern),
                   key=lambda f: (len(f), tuple(sorted(f))))
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))

    def coboundary_rank(p):
        # rank of C^p -> C^(p+1)
        lower = by_dim.get(p, [])
        upper = by_dim.get(p + 1, [])
        if not lower or not upper:
            return 0
        index = {f: i for i, f in enumerate(lower)}
        rows = []
        for simplex in upper:
            row = [0] * len(lower)
            for j in range(len(simplex)):
                facet = simplex[:j] + simplex[j + 1:]
                row[index[facet]] = -1 if j % 2 else 1
            rows.append(row)
        # rank of the transpose equals rank of the map
        return lattice.rank_q(rows)

    out = []
    for q in range(fan.rank + 1):
        p = q - 1
        dim_c = len(by_dim.get(p, []))
        h = dim_c - coboundary_rank(p) - coboundary_rank(p - 1)
        out.append(h)
    return tuple(out)


@lru_cache(maxsize=None)
def _pattern_euler(fan: StackyFan, pattern: frozenset) -> int:
    """Euler contribution 1 - chi(subcomplex), via face counts only.

    Deliberately independent of the rank computations above so that the two
    can cross-check each other.
    """
    chi = 0
    for f in _face_sets(fan):
        if f and f <= pattern:
            chi += -1 if len(f) % 2 == 0 else 1
    return 1 - chi


@lru_cache(maxsize=None)
def _scaled_dots(fan: StackyFan, m: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(r * sum(mi * vi for mi, vi in zip(m, v))
                 for v, r in zip(fan.rays, fan.orders))


def _negative_pattern(fan: StackyFan, k, m) -> frozenset:
    dots = _scaled_dots(fan, m)
    return frozenset(j for j in range(len(k)) if dots[j] + k[j] < 0)


def _label(fan: StackyFan, k) -> tuple[int, ...]:
    k = tuple(int(x) for x in k)
    if len(k) != len(fan.rays):
        raise ValueError(f"label must have length {len(fan.rays)}")
    return k


# ---------------------------------------------------------------------------
# Scan boxes


def _arrangement_vertices(fan: StackyFan, k):
    """All vertices of the hyperplane arrangement r_j <m, v_j> = -k_j."""
    d = fan.rank
    verts = []
    for subset in combinations(range(len(fan.rays)), d):
        rows = [[fan.orders[j] * fan.rays[j][i] for i in range(d)]
                for j in subset]
        det = lattice.determinant(rows)
        if det == 0:
            continue
        # Cramer's rule, exact.
        vert = []
        for col in range(d):
            mod = [row[:col] + [-k[j]] + row[col + 1:]
                   for row, j in zip(rows, subset)]
            vert.append(Fraction(lattice.determinant(mod), det))
        verts.append(tuple(vert))
    return verts


def _box_points(lo, hi):
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


@lru_cache(maxsize=None)
def _require_complete(fan: StackyFan) -> None:
    if not check_complete(fan):
        raise errors.OracleBoxError(
            "cohomology needs a complete fan; this fan is not complete")


@lru_cache(maxsize=None)
def _certified_box(fan: StackyFan, k) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bounding box of the arrangement vertices; no character outside it counts.

    The argument (Cox-Little-Schenck, *Toric Varieties*, section 9.1):

    1. The negative pattern is constant on each face of the arrangement
       r_j <m, v_j> = -k_j.
    2. An unbounded face that holds one lattice point holds infinitely many,
       because its recession cone is rational.
    3. Cohomology on a complete fan is finite, so such a face has an acyclic
       pattern: zero cohomology, zero Euler piece and no section (the empty
       pattern is not acyclic).
    4. Bounded faces lie in the convex hull of the arrangement vertices, and
       a lattice point of that hull has each coordinate in [ceil(min),
       floor(max)] of the vertex coordinates.

    When lo > hi in some coordinate, the hull holds no lattice point and the
    empty scan is correct.  Completeness is checked first; an incomplete fan
    raises OracleBoxError.
    """
    _require_complete(fan)
    verts = _arrangement_vertices(fan, k)
    lo = tuple(min(ceil(v[i]) for v in verts) for i in range(fan.rank))
    hi = tuple(max(floor(v[i]) for v in verts) for i in range(fan.rank))
    return lo, hi


# ---------------------------------------------------------------------------
# Public oracle operations


def cohomology(fan: StackyFan, k) -> tuple[int, ...]:
    """Dims (h^0, ..., h^rank) of the sheaf with ray exponents k, exactly."""
    return _cohomology_cached(fan, _label(fan, k))


@lru_cache(maxsize=None)
def _cohomology_cached(fan: StackyFan, k: tuple[int, ...]) -> tuple[int, ...]:
    lo, hi = _certified_box(fan, k)
    dims = [0] * (fan.rank + 1)
    for m in _box_points(lo, hi):
        h = _pattern_cohomology(fan, _negative_pattern(fan, k, m))
        if any(h):
            for q, x in enumerate(h):
                dims[q] += x
    return tuple(dims)


def euler_characteristic(fan: StackyFan, k) -> int:
    """Alternating sum over degrees, computed from face counts alone.

    Scans the same vertex box as :func:`cohomology` (characters outside it
    have zero Euler piece, see :func:`_certified_box`) but shares none of the
    rank computations, so agreement between the two is a real consistency
    check.
    """
    k = _label(fan, k)
    lo, hi = _certified_box(fan, k)
    return sum(_pattern_euler(fan, _negative_pattern(fan, k, m))
               for m in _box_points(lo, hi))


def section_count(fan: StackyFan, k) -> int:
    """Number of characters with every r_j <m, v_j> + k_j >= 0.

    Direct lattice-point count of the section polytope; used to double-check
    the degree-0 entry of :func:`cohomology`.
    """
    k = _label(fan, k)
    lo, hi = _certified_box(fan, k)
    count = 0
    for m in _box_points(lo, hi):
        dots = _scaled_dots(fan, m)
        if all(dots[j] + k[j] >= 0 for j in range(len(k))):
            count += 1
    return count


def check_complete(fan: StackyFan) -> bool:
    """Exact completeness test for a validated simplicial fan.

    Requires every maximal cone to be full-dimensional, every facet to be
    shared with exactly one other maximal cone lying on the opposite side,
    and a deterministic generic point to be covered exactly once (which rules
    out overlapping interiors).
    """
    d = fan.rank
    if d == 0:
        return fan.max_cones == ((),)
    for cone in fan.max_cones:
        if len(cone) != d:
            return False
    if d == 1:
        if len(fan.max_cones) != 2:
            return False
        signs = {1 if fan.rays[c[0]][0] > 0 else -1 for c in fan.max_cones}
        return signs == {1, -1}

    normals = []
    cone_sets = [set(c) for c in fan.max_cones]
    for ci, cone in enumerate(fan.max_cones):
        for drop in cone:
            facet = sorted(set(cone) - {drop})
            kernel = lattice.integer_kernel([list(fan.rays[j]) for j in facet])
            if len(kernel) != 1:
                return False
            normal = kernel[0]
            normals.append(normal)
            partners = [cj for cj, other in enumerate(cone_sets)
                        if cj != ci and set(facet) <= other]
            if len(partners) != 1:
                return False
            other_extra = (cone_sets[partners[0]] - set(facet)).pop()
            side_a = sum(x * y for x, y in zip(normal, fan.rays[drop]))
            side_b = sum(x * y for x, y in zip(normal, fan.rays[other_extra]))
            if side_a == 0 or side_b == 0 or (side_a > 0) == (side_b > 0):
                return False

    point = _generic_point(d, normals)
    inside = 0
    for cone in fan.max_cones:
        cols = [list(fan.rays[j]) for j in cone]
        det = lattice.determinant(lattice.transpose(cols))
        if det == 0:
            return False
        ok = True
        for pos in range(d):
            replaced = [list(fan.rays[cone[j]]) if j != pos else list(point)
                        for j in range(d)]
            num = lattice.determinant(lattice.transpose(replaced))
            if num * det <= 0:
                ok = False
                break
        if ok:
            inside += 1
    return inside == 1


def _generic_point(d, normals):
    """Deterministic point avoiding all the given hyperplanes: (1, t, t^2, ...)."""
    t = 1
    while True:
        point = tuple(t ** i for i in range(d))
        if all(sum(x * y for x, y in zip(n, point)) != 0 for n in normals):
            return point
        t += 1


@dataclass(frozen=True)
class DualityReport:
    ok: bool
    checked: int
    mismatches: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]


def serre_duality_check(fan: StackyFan, bound: int) -> DualityReport:
    """h^q(k) == h^(rank-q)(K - k) for every label in [-bound, bound]^rays.

    K = (-1, ..., -1) is the canonical label.  Mismatches are returned as
    (label, dims, dual dims) triples.
    """
    nrays = len(fan.rays)
    canonical = (-1,) * nrays
    mismatches = []
    checked = 0
    for k in product(range(-bound, bound + 1), repeat=nrays):
        h = cohomology(fan, k)
        dual = tuple(c - x for c, x in zip(canonical, k))
        hd = cohomology(fan, dual)
        checked += 1
        if h != tuple(reversed(hd)):
            mismatches.append((k, h, hd))
    return DualityReport(ok=not mismatches, checked=checked,
                         mismatches=tuple(mismatches))


@dataclass(frozen=True)
class SelfCheckReport:
    ok: bool
    complete: bool
    zero_label_ok: bool
    duality: DualityReport
    section_mismatches: tuple[tuple[tuple[int, ...], int, int], ...]
    euler_mismatches: tuple[tuple[tuple[int, ...], int, int], ...]


def oracle_self_check(fan: StackyFan, bound: int) -> SelfCheckReport:
    """Internal consistency suite for one fan.

    Completeness, structure sheaf dims (1, 0, ..., 0), Serre duality over the
    label box, h^0 against a direct section-polytope count, and the
    alternating sum of dims against the face-count Euler characteristic.
    """
    complete = check_complete(fan)
    if not complete:
        # cohomology is only finite on complete fans; report the failure
        # without attempting scans, which would raise OracleBoxError
        return SelfCheckReport(
            ok=False, complete=False, zero_label_ok=False,
            duality=DualityReport(ok=True, checked=0, mismatches=()),
            section_mismatches=(), euler_mismatches=())
    zero = cohomology(fan, (0,) * len(fan.rays))
    zero_ok = zero == (1,) + (0,) * fan.rank
    duality = serre_duality_check(fan, bound)
    section_bad = []
    euler_bad = []
    for k in product(range(-bound, bound + 1), repeat=len(fan.rays)):
        dims = cohomology(fan, k)
        h0 = dims[0]
        direct = section_count(fan, k)
        if h0 != direct:
            section_bad.append((k, h0, direct))
        alternating = sum((-1) ** q * x for q, x in enumerate(dims))
        chi = euler_characteristic(fan, k)
        if alternating != chi:
            euler_bad.append((k, alternating, chi))
    ok = (complete and zero_ok and duality.ok
          and not section_bad and not euler_bad)
    return SelfCheckReport(
        ok=ok, complete=complete, zero_label_ok=zero_ok, duality=duality,
        section_mismatches=tuple(section_bad),
        euler_mismatches=tuple(euler_bad))
