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
from operator import mul

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

    @property
    def exceptional_ray(self) -> tuple[int, ...]:
        return self.rays[-1]


def make_datum(rays, coefficients, orders) -> ExtractionDatum:
    """Build and validate a datum from plain sequences."""
    d = ExtractionDatum(
        rays=tuple(tuple(int(x) for x in v) for v in rays),
        coefficients=tuple(int(a) for a in coefficients),
        orders=tuple(int(r) for r in orders),
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
        g = 0
        for x in v:
            g = gcd(g, x)
        if g != 1:
            raise errors.NonPrimitiveRay(f"ray v[{i}] has content {g}")
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
    return sum((Fraction(a, r) for a, r in zip(d.coefficients, d.orders)),
               Fraction(0))


def sigma_alpha(d: ExtractionDatum) -> Fraction:
    """Positive part sum(a_i / r_i) over i <= alpha."""
    return sum((Fraction(d.coefficients[i], d.orders[i]) for i in range(d.alpha)),
               Fraction(0))


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


def weighted_sum(d: ExtractionDatum, k) -> Fraction:
    """w(k) = sum(a_i * k_i / r_i) for a full-length exponent vector k."""
    if len(k) != d.n + 1:
        raise ValueError(f"exponent vector must have length {d.n + 1}")
    return sum((Fraction(a * ki, r)
                for a, r, ki in zip(d.coefficients, d.orders, k)),
               Fraction(0))


def weighted_sum_partial(d: ExtractionDatum, k) -> Fraction:
    """Same weighted sum but over a truncated exponent vector (length <= n+1)."""
    if len(k) > d.n + 1:
        raise ValueError("exponent vector too long")
    return sum((Fraction(d.coefficients[i] * ki, d.orders[i])
                for i, ki in enumerate(k)),
               Fraction(0))


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


def datum_context(d: ExtractionDatum) -> DatumContext:
    """Integer weights of ``d``; the transfer lattice is found on first use."""
    R = lcm(*d.orders)
    c = tuple(a * (R // r) for a, r in zip(d.coefficients, d.orders))
    return DatumContext(datum=d, R=R, c=c, S=sum(c),
                        S_alpha=sum(c[:d.alpha]), C=-c[-1])


def relation_rows(d: ExtractionDatum, count: int) -> list[list[int]]:
    """The rows r_i v_i of the first ``count`` rays.

    Their cokernel Z^count / {(r_i <m, v_i>)_i : m in M} is the class group
    of the extraction side for count = n + 1, of the base cone for count = n,
    and Z^alpha modulo the exact transfer lattice for count = alpha.
    """
    return [[d.orders[i] * x for x in d.rays[i]] for i in range(count)]


@dataclass(frozen=True)
class FibrationDatum:
    """Combinatorics of the exceptional divisor fibered over its center.

    The divisor lattice is N_D = N / Z v_{n+1} and the fiber lattice is the
    further quotient N_F = N_D / saturation(span of the projected first alpha
    rays).  Each original ray maps to a multiple of a primitive vector; the
    multiplicities t_i (into N_D) and s_i (from N_D to N_F) record how much
    stack structure the fibration direction absorbs.
    """

    datum: ExtractionDatum
    proj_xd: lattice.LatticeProjection       # N -> N_D
    proj_df: lattice.LatticeProjection       # N_D -> N_F
    rays_d: tuple[tuple[int, ...], ...]      # primitive images of v_1..v_n in N_D
    t: tuple[int, ...]                       # multiplicities into N_D, i = 1..n
    rays_f: tuple[tuple[int, ...], ...]      # primitive images in N_F, i = alpha+1..n
    s: tuple[int, ...]                       # multiplicities N_D -> N_F, i = alpha+1..n
    t_base: int                              # gcd of a_i t_i over i <= alpha
    reduced_coefficients: tuple[int, ...]    # a_i t_i / t_base, i = 1..alpha


def induced_fibration(d: ExtractionDatum) -> FibrationDatum:
    """Project out the exceptional ray and then the fiber directions.

    Checks along the way: every projected ray is nonzero, the reduced
    relation sum(abar_i * vbar_i) = 0 holds in N_D with coprime reduced
    coefficients, and alpha >= 2 (a single positive coefficient would force
    two original rays to coincide).
    """
    validate(d)
    n, alpha = d.n, d.alpha
    if alpha < 2:
        raise errors.DegenerateDatum(
            "alpha = 1 is impossible for distinct primitive rays")

    proj_xd = lattice.quotient_project(n, [d.exceptional_ray], saturate=True)
    rays_d, t = [], []
    for i in range(n):
        image = proj_xd.apply(d.rays[i])
        prim, mult = lattice.primitivize(image)  # nonzero: v_i independent of v_{n+1}
        rays_d.append(prim)
        t.append(mult)

    t_base = 0
    for i in range(alpha):
        t_base = gcd(t_base, d.coefficients[i] * t[i])
    reduced = tuple(d.coefficients[i] * t[i] // t_base for i in range(alpha))

    # Reduced relation in N_D: the a_i v_i relation descends because the
    # exceptional term is exactly what got quotiented out.
    for j in range(n - 1):
        acc = sum(reduced[i] * rays_d[i][j] for i in range(alpha))
        if acc != 0:
            raise errors.RelationViolated(
                "reduced relation fails in the divisor lattice")

    proj_df = lattice.quotient_project(
        n - 1, [rays_d[i] for i in range(alpha)], saturate=True)
    if proj_df.target_rank != n - alpha:
        raise errors.DegenerateDatum(
            "projected fiber rays do not span the expected rank")
    rays_f, s = [], []
    for i in range(alpha, n):
        image = proj_df.apply(rays_d[i])
        prim, mult = lattice.primitivize(image)
        rays_f.append(prim)
        s.append(mult)

    return FibrationDatum(
        datum=d,
        proj_xd=proj_xd,
        proj_df=proj_df,
        rays_d=tuple(rays_d),
        t=tuple(t),
        rays_f=tuple(rays_f),
        s=tuple(s),
        t_base=t_base,
        reduced_coefficients=reduced,
    )
