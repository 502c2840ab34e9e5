"""Local models of toric divisorial extractions with stack structure.

A datum consists of n+1 primitive rays v_1..v_{n+1} in Z^n tied by a single
integer relation sum(a_i * v_i) = 0 whose coefficients follow the sign layout
(a_1..a_alpha > 0, a_{alpha+1}..a_n = 0, a_{n+1} < 0), together with orders
r_i >= 1 prescribing the generic stabilizer along each toric divisor.  The
last ray is the exceptional one; inserting it star-subdivides the cone spanned
by the first n rays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index, mul

from . import errors, lattice


@dataclass(frozen=True)
class ExtractionDatum:
    """Immutable local model; run :func:`validate` before trusting one."""

    rays: tuple[tuple[int, ...], ...]      # v_1..v_{n+1}, each of length n
    coefficients: tuple[int, ...]          # a_1..a_{n+1}
    orders: tuple[int, ...]                # r_1..r_{n+1}

    @property
    def n(self) -> int:
        return len(self.rays) - 1

    @property
    def alpha(self) -> int:
        """Number of leading strictly positive coefficients."""
        count = 0
        for a in self.coefficients[:-1]:
            if a <= 0:
                break
            count += 1
        return count


def make_datum(rays, coefficients, orders) -> ExtractionDatum:
    """Build and validate a datum from plain sequences of integers.

    Entries go through ``operator.index``, so a float raises TypeError
    rather than being truncated.
    """
    d = ExtractionDatum(
        rays=tuple(tuple(map(index, v)) for v in rays),
        coefficients=tuple(map(index, coefficients)),
        orders=tuple(map(index, orders)),
    )
    validate(d)
    return d


def validate(d: ExtractionDatum) -> None:
    """Check every structural invariant; raises a ValidationError subclass."""
    n = d.n
    if n < 1:
        raise errors.SchemaError("datum needs at least two rays")
    if any(len(v) != n for v in d.rays):
        raise errors.SchemaError(
            f"expected {n + 1} rays of length {n}; got lengths "
            f"{[len(v) for v in d.rays]}")
    if len(d.coefficients) != n + 1:
        raise errors.SchemaError(
            f"expected {n + 1} coefficients, got {len(d.coefficients)}")
    if len(d.orders) != n + 1:
        raise errors.SchemaError(f"expected {n + 1} orders, got {len(d.orders)}")
    for i, r in enumerate(d.orders):
        if r < 1:
            raise errors.SchemaError(f"order r[{i}] = {r} must be >= 1")

    for i, v in enumerate(d.rays):
        if all(x == 0 for x in v):
            raise errors.NonPrimitiveRay(f"ray v[{i}] is zero")
        _, mult = lattice.primitivize(v)
        if mult != 1:
            raise errors.NonPrimitiveRay(f"ray v[{i}] has content {mult}")
    seen: dict[tuple[int, ...], int] = {}
    for i, v in enumerate(d.rays):
        if v in seen:
            raise errors.DuplicateRay(f"rays v[{seen[v]}] and v[{i}] coincide")
        seen[v] = i

    residue = [sum(d.coefficients[i] * d.rays[i][j] for i in range(n + 1))
               for j in range(n)]
    if any(residue):
        raise errors.RelationViolated(
            f"sum(a_i * v_i) = {tuple(residue)}, expected zero")

    g = 0
    for a in d.coefficients:
        g = gcd(g, a)
    if g != 1:
        raise errors.NotCoprime(f"coefficients have common factor {g}")

    # Sign layout: positives first, then zeros, then a single negative last.
    alpha = d.alpha
    if alpha < 1:
        raise errors.SignPattern(f"a[0] = {d.coefficients[0]} must be positive")
    for i in range(alpha, n):
        if d.coefficients[i] != 0:
            raise errors.SignPattern(
                f"a[{i}] = {d.coefficients[i]} breaks the + ... + 0 ... 0 - layout")
    if d.coefficients[n] >= 0:
        raise errors.SignPattern(
            f"a[{n}] = {d.coefficients[n]} must be negative")

    # The first n rays must be linearly independent: the exceptional ray
    # subdivides the full-dimensional simplicial cone they span.
    if lattice.determinant([list(v) for v in d.rays[:n]]) == 0:
        raise errors.DegenerateDatum("rays v_1..v_n are linearly dependent")


class MorphismKind(enum.Enum):
    EXTRACTION = "Extraction"
    LOG_CREPANT = "LogCrepant"
    CONTRACTION = "Contraction"


@dataclass(frozen=True)
class BirationalClass:
    kind: MorphismKind
    sigma: Fraction


def sigma(d: ExtractionDatum) -> Fraction:
    """The discrepancy-like invariant sum(a_i / r_i) over all n+1 indices."""
    ctx = datum_context(d)
    return Fraction(ctx.S, ctx.R)


def sigma_alpha(d: ExtractionDatum) -> Fraction:
    """Positive part sum(a_i / r_i) over i <= alpha."""
    ctx = datum_context(d)
    return Fraction(ctx.S_alpha, ctx.R)


def classify(d: ExtractionDatum) -> BirationalClass:
    """Trichotomy by the sign of sigma.

    Negative sigma means the exceptional divisor carries negative discrepancy
    (a divisorial extraction), zero is the log-crepant boundary case, and
    positive sigma means the map is a divisorial contraction viewed from the
    other side.
    """
    s = sigma(d)
    if s < 0:
        kind = MorphismKind.EXTRACTION
    elif s == 0:
        kind = MorphismKind.LOG_CREPANT
    else:
        kind = MorphismKind.CONTRACTION
    return BirationalClass(kind=kind, sigma=s)


@dataclass(frozen=True)
class DatumContext:
    """The weight w of a datum in integer form, built once per computation.

    With R = lcm(r_i) and c_i = a_i R / r_i, the integer W(k) = sum(c_i k_i)
    equals R * w(k).  R > 0, so every window on w is the same window on W
    with its bounds scaled by R: S = R * sigma and S_alpha = R * sigma_alpha.
    One step of the exceptional exponent moves W by -C.
    """

    datum: ExtractionDatum
    R: int
    c: tuple[int, ...]      # c_1..c_{n+1}
    S: int                  # R * sigma
    S_alpha: int            # R * sigma_alpha
    C: int                  # -c_{n+1} > 0, the exceptional exponent stride

    def W(self, k) -> int:
        """R * w(k) for an exponent vector of length <= n+1."""
        if len(k) > len(self.c):
            raise ValueError("exponent vector too long")
        return sum(map(mul, self.c, k))

    @cached_property
    def tau(self) -> lattice.AbelianGroup:
        """Z^alpha modulo L_tau = {(r_i <m, v_i>)_{i <= alpha} : m in M}."""
        return lattice.cokernel(relation_rows(self.datum, self.datum.alpha))

    @cached_property
    def corners(self) -> tuple[tuple, ...]:
        """The Koszul corners as (subset, length-n indicator, weight).

        In :func:`koszul_corners` order, the empty corner first; a corner's
        weight is W of its indicator, the sum of c_i over its subset.
        """
        n = self.datum.n
        return tuple((subset, tuple(int(i in subset) for i in range(n)),
                      sum(self.c[i] for i in subset))
                     for subset in koszul_corners(self.datum.alpha))


def datum_context(d: ExtractionDatum) -> DatumContext:
    """Integer weights of ``d``; ``tau`` and ``corners`` are built on use."""
    R = lcm(*d.orders)
    c = tuple(a * (R // r) for a, r in zip(d.coefficients, d.orders))
    return DatumContext(datum=d, R=R, c=c, S=sum(c),
                        S_alpha=sum(c[:d.alpha]), C=-c[-1])


def koszul_corners(alpha: int) -> list[tuple[int, ...]]:
    """The Koszul corners: every subset of range(alpha), in bitmask order.

    The subset at position p holds the set bits of p; the empty one is first.
    """
    corners = [()]
    for i in range(alpha):
        corners += [subset + (i,) for subset in corners]
    return corners


def relation_rows(d: ExtractionDatum, count: int) -> list[list[int]]:
    """The rows r_i v_i of the first ``count`` rays.

    Their cokernel Z^count / {(r_i <m, v_i>)_i : m in M} is the class group
    of the extraction side for count = n + 1, of the base cone for count = n,
    and Z^alpha modulo the exact transfer lattice for count = alpha.
    """
    return [[d.orders[i] * x for x in d.rays[i]] for i in range(count)]

