"""Exact integer lattice linear algebra.

Everything here is arbitrary precision: matrices and vectors over the
integers, and vectors mod 2.  A matrix is a tuple of integer row tuples
(any sequence of rows is accepted as input); one with no rows is 0 x 0.
The module has one elimination, smith_normal_form, which returns the
invariant factors d with u, v and v^-1; rank and scaled_inverse read
it.  A torus element of finite order is held inside the package as an
integer vector D z mod D; RatVecModZ, its Fraction form, is built only
for output.  No floating point is used anywhere in the package.  The
integer kernels (dot products, matrix products, sums, F2 additions) run
their inner loops in C through map over operator functions:
sum(map(mul, a, b)), tuple(map(xor, a, b))."""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from operator import add, mul, ne, xor
from typing import NamedTuple, Sequence


def vec_dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def mat_apply(m, v) -> tuple:
    """The rows of m dotted with v."""
    return tuple([sum(map(mul, row, v)) for row in m])


def mat_mul(a, b) -> tuple:
    """The product of two matrices given as tuples of rows."""
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


@cache
def identity(n: int) -> tuple:
    """The n x n identity, built once per n: its rows are tuples."""
    return tuple(tuple([int(i == j) for j in range(n)]) for i in range(n))


def mat_add(a, b) -> tuple:
    """The entrywise sum of two matrices; ValueError when their shapes
    differ."""
    if len(a) != len(b) or any(map(ne, map(len, a), map(len, b))):
        raise ValueError("matrix shapes differ")
    return tuple(tuple(map(add, ra, rb)) for ra, rb in zip(a, b))


def smith_normal_form(m):
    """(u, d, v, v^-1) for the matrix m of rows: u m v = diag(d), u and v
    unimodular, d the invariant factors, nonnegative with d[i] | d[i+1];
    each column operation on v is mirrored by the inverse row operation
    on v^-1.  Ragged rows raise ValueError."""
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged rows")
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)]
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

    d = tuple([a[i][i] for i in range(min(rows, cols))])
    return (tuple(map(tuple, u)), d, tuple(map(tuple, v)),
            tuple(map(tuple, vinv)))


def rank(m) -> int:
    """Rank over the rationals: the number of nonzero invariant factors."""
    return sum(map(bool, smith_normal_form(m)[1]))


def scaled_inverse(m):
    """(den, N) with m N = den 1 for the square matrix m, den its largest
    invariant factor, or None when m is singular: with U m V = diag(d),
    N = V diag(den / d) U."""
    u, d, v, _ = smith_normal_form(m)
    den = d[-1] if d else 1
    if den == 0:
        return None
    scale = [den // x for x in d]
    return den, mat_mul([tuple(map(mul, row, scale)) for row in v], u)


class IntMatrix(tuple):
    """A matrix of rows with entrywise +, kept only for the benchmark's
    intlinalg.snf_us probe, smith_normal_form(IntMatrix.identity(n) +
    theta_matrix(tau, ic)); it goes when ROADMAP item 1 retires that
    probe."""

    __slots__ = ()

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(identity(n))

    def __add__(self, other) -> "IntMatrix":
        return IntMatrix(mat_add(self, other))


# ---------------------------------------------------------------------------
# rational vectors mod Z^n


class RatVecModZ(NamedTuple):
    """A rational vector with every entry reduced into [0, 1).

    Coordinates of a finite-order torus element exp(2*pi*i*lambda),
    lambda in the cocharacter lattice tensor Q, modulo the lattice: the
    output form of the integer vector scaled(D) = D lambda mod D.  A
    named tuple, but + and unary - are the group law mod Z^n.
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
        if len(self.entries) != len(other.entries):
            raise ValueError(f"cannot add vectors of lengths "
                             f"{len(self.entries)} and {len(other.entries)}")
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
