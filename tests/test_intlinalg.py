"""Exact integer/rational linear algebra."""

from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from liepar.intlinalg import (IntMatrix, RatVecModZ, f2_add, f2_vec,
                              identity, mat_add, mat_apply, mat_mul, rank,
                              scaled_inverse, smith_normal_form, vec_dot)
from props import (bareiss_det, rank_mod2, rational_inverse, rational_rank,
                   reference_apply, reference_dot, reference_entrywise,
                   reference_f2_add, reference_mat_mul, row_reduce)

small_int = st.integers(min_value=-9, max_value=9)
small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def matrices(rows, cols):
    return st.lists(st.lists(small_int, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
                        lambda m: tuple(map(tuple, m)))


def square_matrices(nmax=4):
    return st.integers(min_value=1, max_value=nmax).flatmap(
        lambda n: matrices(n, n))


def rect_matrices(nmax=4):
    return st.tuples(st.integers(1, nmax), st.integers(1, nmax)).flatmap(
        lambda rc: matrices(*rc))


# ---------------------------------------------------------------------------
# the map/operator kernels against index loops


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
       .flatmap(lambda s: st.tuples(matrices(s[0], s[1]),
                                    matrices(s[1], s[2]),
                                    matrices(s[0], s[1]))))
def test_matrix_kernels_match_index_loops(mats):
    a, b, c = mats
    assert mat_mul(a, b) == reference_mat_mul(a, b)
    assert mat_add(a, c) == reference_entrywise(a, c, add)
    assert IntMatrix(a) + c == mat_add(a, c)


@settings(max_examples=300, deadline=None)
@given(rect_matrices().flatmap(lambda m: st.tuples(
    st.just(m), st.lists(small_int, min_size=len(m[0]), max_size=len(m[0])),
    st.lists(small_frac, min_size=len(m[0]), max_size=len(m[0])))))
def test_apply_and_dot_match_index_loops(data):
    m, v, f = data
    assert mat_apply(m, v) == reference_apply(m, v)
    assert mat_apply(m, f) == reference_apply(m, f)
    assert all(isinstance(x, int) for x in mat_apply(m, v))
    for row in m:
        assert vec_dot(row, v) == reference_dot(row, v)
        assert vec_dot(row, f) == reference_dot(row, f)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(-3, 3), min_size=n, max_size=n)] * 2)))
def test_f2_kernels_match_addition_mod_2(pair):
    a, b = pair
    assert f2_vec(a) == tuple(x % 2 for x in a)
    a, b = f2_vec(a), f2_vec(b)
    assert f2_add(a, b) == reference_f2_add(a, b)


@settings(max_examples=300, deadline=None)
@given(rect_matrices())
def test_smith_form_tracks_v_inverse(m):
    _, _, v, vinv = smith_normal_form(m)
    ident = identity(len(m[0]))
    assert mat_mul(v, vinv) == ident
    assert mat_mul(vinv, v) == ident


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_scaled_inverse_matches_rational_inverse(m):
    inv = rational_inverse(m)
    scaled = scaled_inverse(m)
    assert (scaled is None) == (inv is None)
    if scaled is None:
        return
    den, n = scaled
    k = len(m)
    assert den == smith_normal_form(m)[1][-1] > 0
    assert mat_mul(m, n) == tuple(tuple(den * (i == j) for j in range(k))
                                  for i in range(k))
    assert [[Fraction(x, den) for x in row] for row in n] == inv


@settings(max_examples=200, deadline=None)
@given(rect_matrices())
def test_row_reduce_is_reduced_echelon(m):
    rref, pivots = row_reduce(m)
    assert list(pivots) == sorted(set(pivots))
    for r, j in enumerate(pivots):
        assert [row[j] for row in rref] == [int(i == r) for i in range(len(m))]
        assert all(x == 0 for x in rref[r][:j])
    assert all(x == 0 for row in rref[len(pivots):] for x in row)
    # the row space is unchanged: each input row is a combination of the
    # pivot rows with its own entries in the pivot columns as weights
    for row in m:
        assert [sum(row[j] * rref[r][c] for r, j in enumerate(pivots))
                for c in range(len(row))] == list(row)


@settings(max_examples=300, deadline=None)
@given(rect_matrices())
def test_smith_normal_form(m):
    u, d, v, _ = smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    assert len(d) == min(rows, cols)
    assert mat_mul(mat_mul(u, m), v) == tuple(
        tuple(d[i] if i == j else 0 for j in range(cols)) for i in range(rows))
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    for a, b in zip(d, d[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in d)
    assert rank(m) == rational_rank(m)
    # any sequence of rows is read alike
    assert smith_normal_form([list(row) for row in m]) == (u, d, v, _)


@settings(max_examples=200, deadline=None)
@given(rect_matrices())
def test_rank_mod2_bounded_by_rank(m):
    assert 0 <= rank_mod2(m) <= rank(m) <= min(len(m), len(m[0]))


def test_ratvecmodz():
    a = RatVecModZ.reduce([Fraction(3, 2), Fraction(-1, 4)])
    assert a.entries == (Fraction(1, 2), Fraction(3, 4))
    assert (a + a).entries == (Fraction(0), Fraction(1, 2))
    assert (-a).entries == (Fraction(1, 2), Fraction(1, 4))
    assert a.order == 4
    zero = RatVecModZ.reduce([0, 0])
    assert zero.order == 1
    assert a + (-a) == zero
    assert RatVecModZ.reduce((Fraction(5, 2), Fraction(-1, 3))).entries == \
        (Fraction(1, 2), Fraction(2, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small_int, st.integers(1, 6)), max_size=4),
       st.integers(1, 4))
def test_ratvecmodz_scaled_roundtrip(pairs, k):
    # den z as integers mod den for any multiple den of the order, and
    # back: the integer form the library computes in
    z = RatVecModZ.reduce([Fraction(p, q) for p, q in pairs])
    den = k * z.order
    y = z.scaled(den)
    assert all(0 <= x < den for x in y)
    assert [Fraction(x, den) for x in y] == list(z.entries)
    assert RatVecModZ.from_scaled(y, den) == z
    assert RatVecModZ.from_scaled([x + den * p for x, (p, _) in
                                   zip(y, pairs)], den) == z


def test_vector_helpers():
    assert vec_dot((1, 2), (3, 4)) == 11


def test_f2_helpers():
    assert f2_vec((3, -2, 5)) == (1, 0, 1)
    assert f2_add((1, 0, 1), (1, 1, 0)) == (0, 1, 1)


def test_intmatrix_basics():
    # the shim is a tuple of row tuples with an entrywise +
    m = IntMatrix(((1, 2), (3, 4)))
    assert m == ((1, 2), (3, 4)) and m[1] == (3, 4)
    assert IntMatrix.identity(2) == identity(2) == ((1, 0), (0, 1))
    assert IntMatrix.identity(2) + m == ((2, 2), (3, 5))
    assert m + m == ((2, 4), (6, 8)) and isinstance(m + m, IntMatrix)
    assert smith_normal_form(IntMatrix.identity(2) + m)[1] == (1, 4)


def test_a_matrix_with_no_rows_is_zero_by_zero():
    # r x 0 times 0 x 0 is r x 0
    assert smith_normal_form(()) == ((), (), (), ())
    assert smith_normal_form(((), ())) == (identity(2), (), (), ())
    assert scaled_inverse(()) == (1, ())
    assert rank(()) == rank(((), ())) == 0
    assert identity(0) == IntMatrix.identity(0) == ()
    tall = ((), ())
    assert mat_mul(tall, ()) == tall
    assert mat_mul((), ()) == ()
    assert mat_apply(tall, ()) == (0, 0)


def test_mismatched_shapes_raise():
    # no truncation to the common part
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]], ((1, 0, 0), (0, 1))):
        with pytest.raises(ValueError, match="ragged rows"):
            smith_normal_form(rows)
        with pytest.raises(ValueError, match="shapes differ"):
            IntMatrix.identity(2) + rows
    with pytest.raises(ValueError, match="shapes differ"):
        IntMatrix.identity(2) + IntMatrix.identity(3)
