"""Exact integer linear algebra: Smith normal form, saturation, quotients.

Everything operates on dense row-major ``list[list[int]]`` matrices with
arbitrary-precision Python ints; no floats anywhere.  The routines target the
tiny matrices of fan combinatorics (dimensions below ~10), so they prefer
auditability and bit-stable determinism over asymptotic cleverness.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd
from operator import add, mod, mul

Matrix = list[list[int]]
Vector = tuple[int, ...]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, v) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def primitivize(vec) -> tuple[Vector, int]:
    """Divide a nonzero integer vector by its content gcd.

    Returns (primitive_vector, multiplicity) with multiplicity > 0 and
    direction preserved, e.g. (4, -6) -> ((2, -3), 2).
    """
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(x // g for x in vec), g


class _SnfWork:
    """Row/column reduction workspace tracking U, V and U^-1.

    Invariant maintained by every elementary operation:
        u @ original @ v == d,   uinv == u^-1.
    """

    def __init__(self, mat: Matrix):
        self.nrows = len(mat)
        self.ncols = len(mat[0]) if mat else 0
        if any(len(row) != self.ncols for row in mat):
            raise ValueError("ragged matrix")
        self.d = [list(row) for row in mat]
        self.u = identity_matrix(self.nrows)
        self.uinv = identity_matrix(self.nrows)
        self.v = identity_matrix(self.ncols)

    # -- elementary row operations (left multiplication) ------------------

    def row_swap(self, i, j):
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for row in self.uinv:
            row[i], row[j] = row[j], row[i]

    def row_add(self, i, j, c):
        # row_i += c * row_j
        if c == 0:
            return
        for mat in (self.d, self.u):
            ri, rj = mat[i], mat[j]
            for k in range(len(ri)):
                ri[k] += c * rj[k]
        for row in self.uinv:
            row[j] -= c * row[i]

    def row_negate(self, i):
        self.d[i] = [-x for x in self.d[i]]
        self.u[i] = [-x for x in self.u[i]]
        for row in self.uinv:
            row[i] = -row[i]

    # -- elementary column operations (right multiplication) --------------

    def col_swap(self, i, j):
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def col_add(self, j, i, c):
        # col_j += c * col_i
        if c == 0:
            return
        for mat in (self.d, self.v):
            for row in mat:
                row[j] += c * row[i]

    def col_negate(self, i):
        for row in self.d:
            row[i] = -row[i]
        for row in self.v:
            row[i] = -row[i]

    # -- reduction ---------------------------------------------------------

    def _select_pivot(self, t):
        """Smallest |entry| != 0 in the trailing submatrix, row-major ties."""
        best = None
        for i in range(t, self.nrows):
            row = self.d[i]
            for j in range(t, self.ncols):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return None if best is None else (best[1], best[2])

    def _clear_column(self, t):
        for i in range(t + 1, self.nrows):
            while self.d[i][t] != 0:
                if self.d[t][t] < 0:
                    self.row_negate(t)
                q = self.d[i][t] // self.d[t][t]
                self.row_add(i, t, -q)
                if self.d[i][t] != 0:
                    self.row_swap(t, i)

    def _clear_row(self, t):
        for j in range(t + 1, self.ncols):
            while self.d[t][j] != 0:
                if self.d[t][t] < 0:
                    self.col_negate(t)
                q = self.d[t][j] // self.d[t][t]
                self.col_add(j, t, -q)
                if self.d[t][j] != 0:
                    self.col_swap(t, j)

    def _find_nondivisible(self, t):
        p = self.d[t][t]
        for i in range(t + 1, self.nrows):
            for j in range(t + 1, self.ncols):
                if self.d[i][j] % p:
                    return i
        return None

    def diagonalize(self):
        t = 0
        while True:
            piv = self._select_pivot(t)
            if piv is None:
                break
            self.row_swap(t, piv[0])
            self.col_swap(t, piv[1])
            while True:
                self._clear_column(t)
                self._clear_row(t)
                if any(self.d[i][t] for i in range(t + 1, self.nrows)):
                    continue  # column got dirtied by row clearing
                bad = self._find_nondivisible(t)
                if bad is None:
                    break
                # Fold the offending row into row t so the next pass pulls
                # the gcd into the pivot; |pivot| strictly decreases.
                self.row_add(t, bad, 1)
            if self.d[t][t] < 0:
                self.row_negate(t)
            t += 1


def smith_normal_form_full(mat: Matrix):
    """Smith normal form with its transforms and the inverse of U.

    Returns (U, D, V, Uinv) with U @ mat @ V == D, U and V unimodular,
    and D diagonal with nonnegative entries satisfying d_1 | d_2 | ... .
    Pivots are chosen deterministically (smallest absolute value, ties in
    row-major order), so identical inputs yield bit-identical transforms.
    """
    work = _SnfWork(mat)
    work.diagonalize()
    return work.u, work.d, work.v, work.uinv


def diagonal_of(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def _echelon(mat: Matrix) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) row echelon form: (rank, swap sign, last pivot).

    A column with no nonzero entry at or below the current row is skipped, so
    the input may be rectangular or rank-deficient.  After each pivot every
    remaining entry is an exact minor of the input (Bareiss 1968), so the
    division by the previous pivot is exact.  On a square matrix of full
    rank, sign * last pivot is the determinant.
    """
    a = [list(row) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv = rank
        while piv < nrows and not a[piv][col]:
            piv += 1
        if piv == nrows:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for row in a[rank + 1:]:
            x = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * p - x * top[j]) // prev
        prev = p
        rank += 1
    return rank, sign, prev


def determinant(mat: Matrix) -> int:
    """Integer determinant: the signed last pivot of :func:`_echelon`."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    rank, sign, last = _echelon(mat)
    return sign * last if rank == n else 0


def rank_q(mat: Matrix) -> int:
    """Rank over the rationals, by exact integer elimination."""
    return _echelon(mat)[0]


def integer_kernel(mat: Matrix) -> list[Vector]:
    """Basis of the integer kernel {x : mat @ x = 0}.

    The kernel of an integer matrix is automatically saturated, so the
    returned basis spans it over Z.
    """
    ncols = len(mat[0]) if mat else 0
    if ncols == 0:
        return []
    if not mat:
        return [tuple(row) for row in identity_matrix(ncols)]
    _, d, v, _ = smith_normal_form_full(mat)
    diag = diagonal_of(d)
    s = sum(1 for x in diag if x)
    return [tuple(v[i][j] for i in range(ncols)) for j in range(s, ncols)]


@dataclass(frozen=True)
class LatticeProjection:
    """Surjection Z^source_rank -> Z^target_rank; ``matrix`` holds its rows."""

    source_rank: int
    target_rank: int
    matrix: tuple[Vector, ...]

    def apply(self, vec) -> Vector:
        if len(vec) != self.source_rank:
            raise ValueError("vector has wrong length for this projection")
        return tuple(mat_vec(self.matrix, vec))


def quotient_project(rank: int, kernel_gens) -> LatticeProjection:
    """Projection of Z^rank onto its quotient by the saturated span of gens.

    The quotient is by the saturation of the span of ``kernel_gens``, so the
    result is always free of rank rank - dim span.
    """
    gens = [list(g) for g in kernel_gens]
    if any(len(g) != rank for g in gens):
        raise ValueError("kernel generator has wrong length")
    if not gens:
        eye = identity_matrix(rank)
        return LatticeProjection(rank, rank, tuple(tuple(r) for r in eye))
    cols = transpose(gens)  # rank x len(gens); columns are the generators
    u, d, _, _ = smith_normal_form_full(cols)
    s = sum(1 for x in diagonal_of(d) if x)
    return LatticeProjection(rank, rank - s,
                             tuple(tuple(u[i]) for i in range(s, rank)))


@dataclass(frozen=True)
class AbelianGroup:
    """Z^ambient_rank modulo the column span of an integer matrix.

    Stores the classification (free rank, invariant factors >= 2) together
    with the unimodular change of basis that realizes it, which is what turns
    arbitrary vectors into canonical representatives: write y = U v, reduce
    y_i modulo the i-th diagonal entry, and map back through U^-1.  The
    column transform V is kept too, for :meth:`preimage`.
    """

    ambient_rank: int
    free_rank: int
    invariant_factors: tuple[int, ...]
    _u: tuple[Vector, ...]
    _uinv: tuple[Vector, ...]
    _v: tuple[Vector, ...]
    _diag: tuple[int, ...]  # nonzero diagonal, including leading 1s

    def __post_init__(self):
        # The rows of U that class keys read, torsion rows first, and the
        # torsion rows' invariant factors; the rows of a unit diagonal entry,
        # always zero modulo 1, are left out.  Attributes, not fields, so
        # equality and repr do not see them.
        torsion = [i for i, di in enumerate(self._diag) if di != 1]
        object.__setattr__(self, "_key_rows", tuple(
            [self._u[i] for i in torsion] + list(self._u[len(self._diag):])))
        object.__setattr__(self, "_moduli",
                           tuple(self._diag[i] for i in torsion))

    def _coords(self, vec) -> list[int]:
        """Smith coordinates y = U vec, read by reduce and preimage."""
        if len(vec) != self.ambient_rank:
            raise ValueError("vector has wrong length for this group")
        return mat_vec(self._u, vec)

    def reduce(self, vec) -> Vector:
        """Canonical representative of the class of ``vec``."""
        y = self._coords(vec)
        for i, di in enumerate(self._diag):
            y[i] %= di
        return tuple(mat_vec(self._uinv, y))

    def class_key(self, vec) -> Vector:
        """A tuple that two vectors share exactly when their classes agree.

        The Smith coordinates y = U vec: each torsion one modulo its invariant
        factor, then each free one as it is; the always-zero ones of a unit
        diagonal entry are never computed.  Unlike :meth:`reduce` it does not
        map y back through U^-1, so it is a key, not a representative.
        """
        if len(vec) != self.ambient_rank:
            raise ValueError("vector has wrong length for this group")
        return self._key([sum(map(mul, row, vec)) for row in self._key_rows])

    def box_class_keys(self, bound: int) -> Iterator[Vector]:
        """:meth:`class_key` of every label of the box [-bound, bound]^ambient.

        Lazily, in the order of ``product(range(-bound, bound + 1),
        repeat=ambient_rank)``.  The unreduced key of a label is the sum of
        one U column per coordinate, scaled by that coordinate, so each
        level of the product adds one scaled column to the partial sums of
        the level before, and only the finished sums are reduced modulo
        the invariant factors.
        """
        sums = iter([(0,) * len(self._key_rows)])
        for j in range(self.ambient_rank):
            sums = _add_each(sums, [tuple(x * row[j] for row in self._key_rows)
                                    for x in range(-bound, bound + 1)])
        return map(self._key, sums)

    def _key(self, y) -> Vector:
        """The class key of the key rows' coordinates y: torsion reduced."""
        return (*map(mod, y, self._moduli), *y[len(self._moduli):])

    def preimage(self, vec) -> Vector | None:
        """One integer x with mat @ x == vec, or None if there is none.

        With U mat V = D, solve D z = U vec entrywise; then x = V z.
        """
        y = self._coords(vec)
        if any(y[len(self._diag):]):
            return None
        z = [0] * len(self._v)
        for i, di in enumerate(self._diag):
            z[i], rem = divmod(y[i], di)
            if rem:
                return None
        return tuple(mat_vec(self._v, z))

    def contains(self, vec) -> bool:
        """Whether ``vec`` lies in the subgroup that was quotiented out."""
        return not any(self.class_key(vec))

    def torsion_lifts(self) -> list[tuple[Vector, int]]:
        """(lift, order) pairs generating the torsion subgroup."""
        out = []
        for i, di in enumerate(self._diag):
            if di >= 2:
                out.append((tuple(row[i] for row in self._uinv), di))
        return out

    def free_lifts(self) -> list[Vector]:
        """Lifts of a basis of the free part."""
        return [tuple(row[i] for row in self._uinv)
                for i in range(len(self._diag), self.ambient_rank)]

    def classes(self) -> list[tuple[int, ...]]:
        """Canonical representatives of the torsion classes.

        These are the torsion lifts' combinations c_i * lift_i with
        0 <= c_i < d_i, in product order: U^-1 applied to every combo of
        diagonal residues, each its own :meth:`reduce`.  For a finite group
        that is every class; a diagonal 1 only ever contributes residue 0.
        """
        out = [(0,) * self.ambient_rank]
        for lift, order in self.torsion_lifts():
            out = [tuple(x + c * y for x, y in zip(v, lift))
                   for v in out for c in range(order)]
        return out


def _add_each(sums, columns):
    """Every sum plus every column, sums outer: one level of a product box."""
    for y in sums:
        for column in columns:
            yield tuple(map(add, y, column))


def cokernel(mat: Matrix) -> AbelianGroup:
    """Cokernel Z^p / (column span) of a p x q integer matrix."""
    p = len(mat)
    u, d, v, uinv = smith_normal_form_full(mat)
    diag = [x for x in diagonal_of(d) if x]
    invariant = tuple(x for x in diag if x >= 2)
    return AbelianGroup(
        ambient_rank=p,
        free_rank=p - len(diag),
        invariant_factors=invariant,
        _u=tuple(tuple(r) for r in u),
        _uinv=tuple(tuple(r) for r in uinv),
        _v=tuple(tuple(r) for r in v),
        _diag=tuple(diag),
    )
