"""Exact integer / rational lattice linear algebra.

Everything here is arbitrary precision: matrices over the integers,
vectors over Fraction, and linear algebra over F2.  No floating point
is used anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


Vec = tuple  # tuple of int or Fraction


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples."""

    entries: tuple

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            ncols = len(data[0])
            if any(len(row) != ncols for row in data):
                raise ValueError("ragged rows")
        return IntMatrix(data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        bt = tuple(zip(*other.entries))
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.entries))

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector (int or Fraction entries)."""
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def mod2(self) -> tuple:
        return tuple(tuple(a & 1 for a in row) for row in self.entries)

    def det(self) -> int:
        """Exact determinant (fraction-free Bareiss elimination)."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def inverse(self) -> "IntMatrix":
        """Exact inverse of a unimodular matrix (det = +-1)."""
        inv = rational_inverse(self.entries) if self.rows == self.cols \
            else None
        if inv is None or any(x.denominator != 1 for row in inv for x in row):
            raise ValueError("matrix is not unimodular")
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in inv))

    def rank(self) -> int:
        """Rank over the rationals."""
        return len(row_reduce(self.entries)[1])

    def rank_mod2(self) -> int:
        m = [list(row) for row in self.mod2()]
        rank = 0
        cols = self.cols
        for j in range(cols):
            piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            for i in range(len(m)):
                if i != rank and m[i][j]:
                    m[i] = [(a ^ b) for a, b in zip(m[i], m[rank])]
            rank += 1
        return rank

    def is_involution(self) -> bool:
        return self.rows == self.cols and self @ self == IntMatrix.identity(self.rows)


def row_reduce(rows):
    """Reduced row echelon form over Q of a matrix given by its rows (int
    or Fraction entries): (rows as lists of Fraction, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for j in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][j]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(j)
    return m, tuple(pivots)


def rational_inverse(rows):
    """Inverse over Q of a square matrix given by its rows, as lists of
    Fraction; None when the matrix is singular."""
    n = len(rows)
    rref, pivots = row_reduce(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)])
    if pivots != tuple(range(n)):
        return None
    return [row[n:] for row in rref]


def smith_normal_form(m: IntMatrix):
    """Return (u, d, v) with u @ m @ v = d, u and v unimodular and d
    diagonal with d[i] | d[i+1] (diagonal entries nonnegative)."""
    return smith_normal_form_with_inverse(m)[:3]


def smith_normal_form_with_inverse(m: IntMatrix):
    """(u, d, v, v^-1) with (u, d, v) as in smith_normal_form; each column
    operation on v is mirrored by the inverse row operation on v^-1."""
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    vinv = [row[:] for row in v]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j; on v^-1 row_j += q * row_i
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]
        vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    t = 0
    while t < min(rows, cols):
        # find a pivot
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # clear row and column t
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
                    dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
                    dirty = True
            if not dirty:
                break
        t += 1

    # make diagonal nonnegative
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    # enforce divisibility d[i] | d[i+1]
    changed = True
    while changed:
        changed = False
        for i in range(min(rows, cols) - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if di != 0 and dj % di != 0:
                # add col i+1 to col i, then redo the 2x2 block
                col_op(i, i + 1, -1)
                while True:
                    if a[i + 1][i] != 0:
                        q = a[i + 1][i] // a[i][i]
                        row_op(i + 1, i, q)
                        if a[i + 1][i] != 0:
                            swap_rows(i + 1, i)
                            continue
                    if a[i][i + 1] != 0:
                        q = a[i][i + 1] // a[i][i]
                        col_op(i + 1, i, q)
                        if a[i][i + 1] != 0:
                            swap_cols(i + 1, i)
                            continue
                    break
                if a[i][i] < 0:
                    a[i] = [-x for x in a[i]]
                    u[i] = [-x for x in u[i]]
                if a[i + 1][i + 1] < 0:
                    a[i + 1] = [-x for x in a[i + 1]]
                    u[i + 1] = [-x for x in u[i + 1]]
                changed = True

    return (IntMatrix.from_rows(u), IntMatrix.from_rows(a),
            IntMatrix.from_rows(v), IntMatrix.from_rows(vinv))


# ---------------------------------------------------------------------------
# rational vectors mod Z^n


def frac_vec(v: Sequence) -> tuple:
    return tuple(Fraction(x) for x in v)


def vec_add(a: Sequence, b: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, v: Sequence) -> tuple:
    return tuple(c * x for x in v)


def vec_dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def vec_mod1(v: Sequence) -> tuple:
    """Reduce each coordinate into [0, 1)."""
    return tuple(Fraction(x) - (Fraction(x).numerator // Fraction(x).denominator)
                 for x in v)


def is_integral(v: Sequence) -> bool:
    return all(Fraction(x).denominator == 1 for x in v)


@dataclass(frozen=True)
class RatVecModZ:
    """A rational vector with every entry reduced into [0, 1).

    Coordinates of a finite-order torus element exp(2*pi*i*lambda),
    lambda in the cocharacter lattice tensor Q, modulo the lattice.
    """

    entries: tuple

    @staticmethod
    def reduce(v: Sequence) -> "RatVecModZ":
        return RatVecModZ(vec_mod1(frac_vec(v)))

    def __add__(self, other: "RatVecModZ") -> "RatVecModZ":
        return RatVecModZ.reduce(vec_add(self.entries, other.entries))

    def __neg__(self) -> "RatVecModZ":
        return RatVecModZ.reduce(tuple(-x for x in self.entries))

    @property
    def order(self) -> int:
        """Order as an element of (Q/Z)^n."""
        from math import lcm
        return lcm(*(Fraction(x).denominator for x in self.entries)) \
            if self.entries else 1


# ---------------------------------------------------------------------------
# F2 linear algebra


def f2_vec(v: Sequence) -> tuple:
    return tuple(int(x) & 1 for x in v)


def f2_add(a: Sequence, b: Sequence) -> tuple:
    return tuple((x ^ y) for x, y in zip(a, b))


def f2_mat_apply(m: Sequence, v: Sequence) -> tuple:
    return tuple(sum(a & b for a, b in zip(row, v)) & 1 for row in m)


class F2Basis:
    """Row-echelon basis of a subspace of F2^n with a canonical
    coset-representative map for the quotient space."""

    def __init__(self, gens: Iterable[Sequence[int]], space_dim: int):
        self.space_dim = space_dim
        basis = []  # echelon rows, each with a known pivot
        pivots = []
        for g in gens:
            v = self._reduce_against(f2_vec(g), basis, pivots)
            if any(v):
                p = next(i for i, x in enumerate(v) if x)
                # insert keeping pivots sorted
                pos = sum(1 for q in pivots if q < p)
                basis.insert(pos, v)
                pivots.insert(pos, p)
                # back-substitute
                for k in range(len(basis)):
                    if k != pos and basis[k][p]:
                        basis[k] = f2_add(basis[k], v)
        self.basis = tuple(basis)
        self.pivots = tuple(pivots)

    @staticmethod
    def _reduce_against(v, basis, pivots):
        for row, p in zip(basis, pivots):
            if v[p]:
                v = f2_add(v, row)
        return v

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def quotient_dim(self) -> int:
        return self.space_dim - self.rank

    def reduce(self, v: Sequence[int]) -> tuple:
        """Canonical representative of v modulo the span."""
        return self._reduce_against(f2_vec(v), self.basis, self.pivots)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))


def two_group_quotient(gens: Iterable[Sequence[int]], space_dim: int) -> F2Basis:
    """Quotient of F2^space_dim by the span of gens."""
    return F2Basis(gens, space_dim)


# ---------------------------------------------------------------------------
# lattice congruences: solve M @ x = c (mod Z^m) over the rationals


def solve_congruence(m: IntMatrix, c: Sequence):
    """One rational solution x of m @ x = c mod Z^rows, or None.

    c may have rational entries; the solution is any x in Q^cols with
    m @ x - c integral.
    """
    u, d, v = smith_normal_form(m)
    uc = u.apply(frac_vec(c))
    y = [Fraction(0)] * m.cols
    r = min(m.rows, m.cols)
    for i in range(m.rows):
        di = d[i, i] if i < r else 0
        if di == 0:
            if i < len(uc) and Fraction(uc[i]).denominator != 1:
                return None
        else:
            y[i] = Fraction(uc[i]) / di
    return v.apply(y)


def torsion_solutions(m: IntMatrix):
    """Structure of {x in Q^n / Z^n : m @ x integral}.

    Returns (invariant_factors, generators, kernel_dim): the torsion
    part is the direct sum of Z/d for the listed d > 1 with the given
    generating vectors (reduced mod 1); kernel_dim counts the free
    rational directions (solutions form a torus iff kernel_dim > 0).
    """
    u, d, v = smith_normal_form(m)
    n = m.cols
    r = min(m.rows, m.cols)
    factors = []
    gens = []
    kernel_dim = 0
    for j in range(n):
        dj = d[j, j] if j < r else 0
        if dj == 0:
            kernel_dim += 1
        elif dj > 1:
            factors.append(dj)
            gens.append(vec_mod1(vec_scale(Fraction(1, dj), v.col(j))))
    return factors, gens, kernel_dim
