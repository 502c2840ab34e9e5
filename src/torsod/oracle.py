"""Brute-force line-bundle cohomology on complete simplicial stacky fans.

For a label k (one integer per ray) the q-th cohomology of the associated
invertible sheaf decomposes over characters m of the dense torus; the piece
at m is the reduced simplicial cohomology, shifted by one, of the full
subcomplex of the fan's ray complex on the "negative" rays

    { j : r_j * <m, v_j> + k_j < 0 }.

Only finitely many m contribute because the fan is complete, and those lie
in the bounding box of the vertices of the hyperplane arrangement
r_j <m, v_j> = -k_j (argument in :func:`_certified_box`); completeness is
checked once per fan before any scan.  All arithmetic is exact and integer:
each vertex is adj_S (-k_S) / det_S with the adjugate and determinant of the
scaled rows S built once per fan, and the box's ceil and floor are integer
floor divisions.  The scan sweeps each row of the box along the last
coordinate, where every ray's sign flips at most once.  Each (fan, class)
box is scanned once: labels that differ by a principal label
(r_j <m, v_j>)_j have translated characters (argument in
:func:`_label_scan`), and one memoised pass per class gives the cohomology
dims, the section count and the Euler characteristic together, and the
fan's kernel weighs each pattern of those scans by a per-fan memo of its two
pattern tables.  The self-check judges its box once per class: the first
label of a class reads that triple and its Serre dual's dims, and the other
labels of the class repeat the verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from operator import index, mul

from . import errors, lattice


@dataclass(frozen=True)
class StackyFan:
    """Complete simplicial fan with a stabilizer order along each ray.

    Every oracle cache is keyed by the fan, so its hash is computed once, in
    ``__post_init__``, and kept as an attribute that is not a field: fields,
    ``repr`` and equality do not see it.
    """

    rank: int
    rays: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]
    max_cones: tuple[tuple[int, ...], ...]   # sorted 0-based ray indices

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (self.rank, self.rays, self.orders, self.max_cones)))

    def __hash__(self):
        return self._hash


def make_fan(rank, rays, orders, max_cones) -> StackyFan:
    """Build a fan from plain sequences, validating every invariant.

    Every entry must be an integer (``operator.index``); a float raises
    TypeError rather than being truncated.
    """
    fan = StackyFan(
        rank=index(rank),
        rays=tuple(tuple(map(index, v)) for v in rays),
        orders=tuple(map(index, orders)),
        max_cones=tuple(sorted(tuple(sorted(map(index, c)))
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
    """r_j <m, v_j> for every ray j; the scan reads one per row of its box."""
    return tuple(sum(map(mul, m, row)) for row in _scan_kernel(fan).rows)


def _label(fan: StackyFan, k) -> tuple[int, ...]:
    k = tuple(map(index, k))
    if len(k) != len(fan.rays):
        raise ValueError(f"label must have length {len(fan.rays)}")
    return k


# ---------------------------------------------------------------------------
# The per-fan scan kernel and the scan boxes


@dataclass(frozen=True)
class _ScanKernel:
    """Label-free tables of one complete fan, and its memo of class scans."""

    rows: tuple[tuple[int, ...], ...]     # r_j v_j
    slopes: tuple[int, ...]               # last column of rows
    # (S, adj_S, det_S) for every d-subset S of rays with independent rows,
    # signed so that det_S > 0
    solvers: tuple[tuple, ...]
    # Z^rays modulo the principal labels (r_j <m, v_j>)_j, the span of rows
    classes: lattice.AbelianGroup
    # class key -> (h^0, ..., h^rank, sections, chi), filled by _label_scan
    scans: dict = field(default_factory=dict)
    # pattern -> (_pattern_cohomology, _pattern_euler), filled by _label_scan
    weights: dict = field(default_factory=dict)


def _adjugate(mat) -> list[list[int]]:
    """Integer adjugate by cofactors: mat @ adj == det(mat) * identity."""
    d = len(mat)
    return [[(-1) ** (i + j) * lattice.determinant(
                [row[:i] + row[i + 1:] for r, row in enumerate(mat) if r != j])
             for j in range(d)] for i in range(d)]


@lru_cache(maxsize=None)
def _scan_kernel(fan: StackyFan) -> _ScanKernel:
    """The scan tables of ``fan``; an incomplete fan raises OracleBoxError."""
    if not check_complete(fan):
        raise errors.OracleBoxError(
            "cohomology needs a complete fan; this fan is not complete")
    rows = tuple(tuple(r * x for x in v) for v, r in zip(fan.rays, fan.orders))
    solvers = []
    for subset in combinations(range(len(rows)), fan.rank):
        mat = [rows[j] for j in subset]
        det = lattice.determinant(mat)
        if det:
            sign = 1 if det > 0 else -1
            adj = tuple(tuple(sign * x for x in row) for row in _adjugate(mat))
            solvers.append((subset, adj, sign * det))
    return _ScanKernel(rows=rows, slopes=tuple(row[-1] for row in rows),
                       solvers=tuple(solvers),
                       classes=lattice.cokernel([list(row) for row in rows]))


def _box_points(lo, hi):
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


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

    The vertex of a d-subset S of rays with independent rows is
    adj_S (-k_S) / det_S, from the kernel's label-free adjugate and positive
    determinant, so its ceil and floor are integer floor divisions, and one
    pass over the solvers keeps their running min and max.  When lo > hi in
    some coordinate, the hull holds no lattice point and the empty scan is
    correct.  Completeness is checked first; an incomplete fan raises
    OracleBoxError.
    """
    lo, hi = [None] * fan.rank, [None] * fan.rank
    for subset, adj, det in _scan_kernel(fan).solvers:
        rhs = [-k[j] for j in subset]
        for i, row in enumerate(adj):
            num = sum(map(mul, row, rhs))
            ceil, floor = -(-num // det), num // det
            if lo[i] is None or ceil < lo[i]:
                lo[i] = ceil
            if hi[i] is None or floor > hi[i]:
                hi[i] = floor
    return tuple(lo), tuple(hi)


# ---------------------------------------------------------------------------
# Public oracle operations


def cohomology(fan: StackyFan, k) -> tuple[int, ...]:
    """Dims (h^0, ..., h^rank) of the sheaf with ray exponents k, exactly."""
    return _label_scan(fan, _label(fan, k))[:fan.rank + 1]


def euler_characteristic(fan: StackyFan, k) -> int:
    """Alternating sum over degrees, computed from face counts alone.

    Weighs each negative pattern of the box scan by its face-count Euler
    piece (characters outside the box have none, see :func:`_certified_box`).
    It shares only the patterns with :func:`cohomology`, none of the rank
    computations, so agreement between the two is a real consistency check.
    """
    return _label_scan(fan, _label(fan, k))[-1]


def section_count(fan: StackyFan, k) -> int:
    """Number of characters with every r_j <m, v_j> + k_j >= 0.

    Those are the characters with an empty negative pattern: the lattice
    points of the section polytope, counted without any cohomology, as a
    check on the degree-0 entry of :func:`cohomology`.
    """
    return _label_scan(fan, _label(fan, k))[-2]


def _label_scan(fan: StackyFan, k: tuple[int, ...]) -> tuple[int, ...]:
    """(h^0, ..., h^rank, sections, chi) of label ``k``, one box scan per class.

    The result depends only on the class of ``k`` in Z^rays modulo the
    principal labels (r_j <m, v_j>)_j, m in Z^d (Cox-Little-Schenck, *Toric
    Varieties*, Thm 4.1.3 and section 9.1; Borisov-Chen-Smith 2005 for the
    stacky rows r_j v_j).  For k' = k + (r_j <m, v_j>)_j the negative pattern
    of k' at a character x is the pattern of k at x + m, so translation by m
    matches the characters of k' with those of k pattern for pattern.  Every
    non-acyclic pattern then has the same count for both, and by the
    argument of :func:`_certified_box` either label's box holds all of them.
    Acyclic patterns add nothing to the dims or to chi, and the empty
    pattern, which the section count reads, is not acyclic.  So the box of
    any one representative gives the class's dims, sections and chi.

    The fan's kernel keeps one result per class, keyed by
    :meth:`lattice.AbelianGroup.class_key`, and only the first label asked
    of a class is scanned.  The three public reads each take their slice.
    Each pattern's count is weighed twice, by its rank-computed dims and by
    its face-count Euler piece, and the two sums never read each other.
    The kernel keeps both weights of each pattern it has met, so a pattern's
    two tables are looked up once per fan.
    """
    kernel = _scan_kernel(fan)
    key = kernel.classes.class_key(k)
    result = kernel.scans.get(key)
    if result is None:
        dims = [0] * (fan.rank + 1)
        chi = 0
        weights = kernel.weights
        counts = _pattern_counts(fan, k)
        for pattern, count in counts.items():
            weight = weights.get(pattern)
            if weight is None:
                weight = weights[pattern] = (_pattern_cohomology(fan, pattern),
                                             _pattern_euler(fan, pattern))
            cohom, euler = weight
            for q, x in enumerate(cohom):
                dims[q] += count * x
            chi += count * euler
        result = kernel.scans[key] = (*dims, counts[frozenset()], chi)
    return result


def _pattern_counts(fan: StackyFan, k: tuple[int, ...]) -> Counter:
    """How many characters of the certified box have each negative pattern.

    The one scan over the box behind :func:`_label_scan`, run once per
    (fan, class).  It sweeps the box row by row along the last coordinate t:
    ray j is negative where b_j + s_j t < 0, with b_j read once per row and
    s_j its slope, a half-line in t, so it flips at most once per row and the
    row splits into at most N + 1 runs of one pattern.  Patterns are ray
    bitmasks until the counts are returned.
    """
    lo, hi = _certified_box(fan, k)
    if any(a > b for a, b in zip(lo, hi)):
        return Counter()
    if not fan.rank:
        return Counter({frozenset(): 1})
    rays = [(j, 1 << j, kj, s)
            for j, (kj, s) in enumerate(zip(k, _scan_kernel(fan).slopes))]
    first, last = lo[-1], hi[-1] + 1          # a row is t in [first, last)
    runs: dict[int, int] = {}
    for prefix in _box_points(lo[:-1], hi[:-1]):
        dots = _scaled_dots(fan, prefix + (0,))
        mask, cuts = 0, []
        for j, bit, kj, s in rays:
            b = dots[j] + kj
            if s > 0:                         # negative for t < c
                c = -(b // s)
                if first < c:
                    mask |= bit
                    if c < last:
                        cuts.append((c, bit))
            elif s < 0:                       # negative for t >= c
                c = b // -s + 1
                if c <= first:
                    mask |= bit
                elif c < last:
                    cuts.append((c, bit))
            elif b < 0:
                mask |= bit
        start = first
        cuts.sort()
        for c, bit in cuts:
            if c > start:
                runs[mask] = runs.get(mask, 0) + c - start
                start = c
            mask ^= bit
        runs[mask] = runs.get(mask, 0) + last - start
    return Counter({_mask_pattern(mask): n for mask, n in runs.items()})


@lru_cache(maxsize=None)
def _mask_pattern(mask: int) -> frozenset:
    """The ray indices of the set bits of ``mask``."""
    return frozenset(j for j in range(mask.bit_length()) if mask >> j & 1)


def check_complete(fan: StackyFan) -> bool:
    """Exact completeness test for a validated simplicial fan.

    Requires every maximal cone to be full-dimensional, every facet to be
    shared with exactly one other maximal cone lying on the opposite side,
    and a deterministic generic point to be covered exactly once (which rules
    out overlapping interiors).

    Each cone is read off one integer adjugate.  With the cone's rays as
    rows, rays @ adj == det * identity, so column i of adj is the normal of
    the facet without ray i and <ray_i, col_i> == det.  The partner cone's
    other ray lies across that facet iff det * <col_i, v> < 0, and a point
    lies inside the cone iff det * <point, col_i> > 0 for every i.  In rank 1
    the adjugate is [[1]] and det is the ray itself.
    """
    d = fan.rank
    if d == 0:
        return fan.max_cones == ((),)
    if any(len(cone) != d for cone in fan.max_cones):
        return False
    cone_sets = [set(c) for c in fan.max_cones]
    geometry = []
    for ci, cone in enumerate(fan.max_cones):
        cols = lattice.transpose(_adjugate([list(fan.rays[j]) for j in cone]))
        det = sum(map(mul, fan.rays[cone[0]], cols[0]))
        geometry.append((det, cols))
        for drop, col in zip(cone, cols):
            facet = cone_sets[ci] - {drop}
            partners = [other for cj, other in enumerate(cone_sets)
                        if cj != ci and facet <= other]
            if len(partners) != 1:
                return False
            (other_extra,) = partners[0] - facet
            if det * sum(map(mul, col, fan.rays[other_extra])) >= 0:
                return False
    point = _generic_point(d, [col for _, cols in geometry for col in cols])
    inside = sum(all(det * sum(map(mul, point, col)) > 0 for col in cols)
                 for det, cols in geometry)
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
class SelfCheckReport:
    ok: bool
    complete: bool
    zero_label_ok: bool
    checked: int                          # labels in [-bound, bound]^rays
    # (label, dims, dims of the Serre dual label K - label)
    duality_mismatches: tuple[
        tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    # (label, h^0, section count)
    section_mismatches: tuple[tuple[tuple[int, ...], int, int], ...]
    # (label, alternating sum of dims, face-count chi)
    euler_mismatches: tuple[tuple[tuple[int, ...], int, int], ...]


def oracle_self_check(fan: StackyFan, bound: int) -> SelfCheckReport:
    """Internal consistency suite for one fan, judged once per class.

    Completeness, structure sheaf dims (1, 0, ..., 0), and for every label k
    in [-bound, bound]^rays: Serre duality h^q(k) == h^(rank-q)(K - k) with
    the canonical label K = (-1, ..., -1), h^0 against the direct
    section-polytope count, and the alternating sum of dims against the
    face-count Euler characteristic.  A negative bound would check nothing
    and raises ValueError.

    All three verdicts depend on k only through its class (see
    :func:`_label_scan`; the dual K - k moves with k's class).  So the box is
    walked with its class keys, the first label of each class reads its own
    scan and its dual's, and every later label of the class repeats that
    verdict: a failing class lists each of its labels, in box order.
    """
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    try:
        _scan_kernel(fan)
    except errors.OracleBoxError:
        # cohomology is only finite on complete fans; report the failure
        # without attempting scans
        return SelfCheckReport(
            ok=False, complete=False, zero_label_ok=False, checked=0,
            duality_mismatches=(), section_mismatches=(), euler_mismatches=())
    top = fan.rank + 1
    zero = _label_scan(fan, (0,) * len(fan.rays))[:top]
    zero_ok = zero == (1,) + (0,) * fan.rank
    duality_bad, section_bad, euler_bad = [], [], []
    verdicts = {}                        # class key -> its failing checks
    labels = product(range(-bound, bound + 1), repeat=len(fan.rays))
    keys = _scan_kernel(fan).classes.box_class_keys(bound)
    for k, key in zip(labels, keys):
        verdict = verdicts.get(key)
        if verdict is None:
            scan = _label_scan(fan, k)
            dims, (sections, chi) = scan[:top], scan[top:]
            dual = _label_scan(fan, tuple(-1 - x for x in k))[:top]
            alternating = sum((-1) ** q * x for q, x in enumerate(dims))
            verdict = []
            if dims != dual[::-1]:
                verdict.append((duality_bad, (dims, dual)))
            if dims[0] != sections:
                verdict.append((section_bad, (dims[0], sections)))
            if alternating != chi:
                verdict.append((euler_bad, (alternating, chi)))
            verdict = verdicts[key] = tuple(verdict)
        for found, values in verdict:
            found.append((k, *values))
    return SelfCheckReport(
        ok=zero_ok and not (duality_bad or section_bad or euler_bad),
        complete=True, zero_label_ok=zero_ok,
        checked=(2 * bound + 1) ** len(fan.rays),
        duality_mismatches=tuple(duality_bad),
        section_mismatches=tuple(section_bad),
        euler_mismatches=tuple(euler_bad))
