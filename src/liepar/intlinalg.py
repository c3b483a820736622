"""Exact integer lattice linear algebra.

Everything here is arbitrary precision: matrices and vectors over the
integers, and vectors mod 2.  The module has one elimination, the Smith
normal form; rank and inverse read it.  A torus element of finite order
is held inside the package as an integer vector D z mod D; RatVecModZ,
its Fraction form, is built only for output.  No floating point is used
anywhere in the package.  The integer kernels (dot products, matrix
products, sums, F2 additions) run their inner loops in C through map
over operator functions: sum(map(mul, a, b)), tuple(map(xor, a, b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul, xor
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored as a tuple of row tuples: one
    with no rows is 0 x 0, and a 0 x c one (c > 0) raises ValueError."""

    entries: tuple

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        data = tuple(tuple(map(int, row)) for row in rows)
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
        if not rows and cols:
            raise ValueError("a matrix with no rows has no columns")
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
        if self.entries and not self.entries[0]:
            raise ValueError("a matrix with no rows has no columns")
        return IntMatrix(tuple(zip(*self.entries)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return IntMatrix(tuple(tuple(map(add, ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + -other

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not compose")
        return IntMatrix(mat_mul(self.entries, other.entries))

    def apply(self, v: Sequence) -> tuple:
        """Matrix times column vector (int or Fraction entries)."""
        return mat_apply(self.entries, v)

    def rank(self) -> int:
        """Rank over the rationals: the number of nonzero invariant
        factors."""
        d = smith_normal_form(self)[1]
        return sum(1 for i in range(min(self.rows, self.cols)) if d[i, i])

    def is_involution(self) -> bool:
        return self.rows == self.cols and self @ self == IntMatrix.identity(self.rows)


def smith_normal_form(m: IntMatrix):
    """Return (u, d, v) with u @ m @ v = d, u and v unimodular and d
    diagonal with d[i] | d[i+1] (diagonal entries nonnegative)."""
    return smith_normal_form_with_inverse(m)[:3]


def scaled_inverse(m: IntMatrix):
    """(den, N) with m @ N = den I for the square matrix m, den its largest
    invariant factor, or None when m is singular: with U m V = diag(d),
    N = V diag(den / d) U."""
    u, d, v = smith_normal_form(m)
    n = m.rows
    den = d[n - 1, n - 1] if n else 1
    if den == 0:
        return None
    scale = [den // d[t, t] for t in range(n)]
    return den, IntMatrix(tuple(tuple(map(mul, row, scale))
                                for row in v.entries)) @ u


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


def vec_dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def mat_apply(m, v) -> tuple:
    """The rows of m dotted with v."""
    return tuple([sum(map(mul, row, v)) for row in m])


def mat_mul(a, b) -> tuple:
    """The product of two matrices given as tuples of rows."""
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


# ---------------------------------------------------------------------------
# rational vectors mod Z^n


@dataclass(frozen=True)
class RatVecModZ:
    """A rational vector with every entry reduced into [0, 1).

    Coordinates of a finite-order torus element exp(2*pi*i*lambda),
    lambda in the cocharacter lattice tensor Q, modulo the lattice: the
    output form of the integer vector scaled(D) = D lambda mod D.
    """

    entries: tuple

    @staticmethod
    def reduce(v: Sequence) -> "RatVecModZ":
        return RatVecModZ(tuple(Fraction(x) % 1 for x in v))

    @staticmethod
    def from_scaled(y: Sequence, den: int) -> "RatVecModZ":
        """The vector y / den mod the lattice, for integers y."""
        return RatVecModZ(tuple(Fraction(x % den, den) for x in y))

    def scaled(self, den: int) -> tuple:
        """den z as integers; den is a multiple of the order."""
        return tuple(x.numerator * (den // x.denominator)
                     for x in self.entries)

    def __add__(self, other: "RatVecModZ") -> "RatVecModZ":
        return RatVecModZ.reduce(x + y for x, y in
                                 zip(self.entries, other.entries))

    def __neg__(self) -> "RatVecModZ":
        return RatVecModZ.reduce(-x for x in self.entries)

    def __str__(self):
        return ",".join(map(str, self.entries))

    @property
    def order(self) -> int:
        """Order as an element of (Q/Z)^n."""
        return lcm(*(x.denominator for x in self.entries))


# ---------------------------------------------------------------------------
# vectors mod 2


def f2_vec(v: Sequence) -> tuple:
    return tuple([int(x) & 1 for x in v])


def f2_add(a: Sequence, b: Sequence) -> tuple:
    return tuple(map(xor, a, b))
