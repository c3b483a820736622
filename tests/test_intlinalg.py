"""Exact integer/rational linear algebra."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from liepar.intlinalg import (IntMatrix, RatVecModZ, f2_add, f2_vec,
                              frac_vec, is_integral, scaled_inverse,
                              smith_normal_form,
                              smith_normal_form_with_inverse,
                              solve_congruence, torsion_solutions, vec_add,
                              vec_dot, vec_mod1, vec_scale)
from props import (bareiss_det, rank_mod2, rational_inverse, rational_rank,
                   row_reduce, vec_sub)

small_int = st.integers(min_value=-9, max_value=9)


def square_matrices(nmax=4):
    return st.integers(min_value=1, max_value=nmax).flatmap(
        lambda n: st.lists(st.lists(small_int, min_size=n, max_size=n),
                           min_size=n, max_size=n)).map(IntMatrix.from_rows)


def rect_matrices(nmax=4):
    return st.tuples(st.integers(1, nmax), st.integers(1, nmax)).flatmap(
        lambda rc: st.lists(
            st.lists(small_int, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0])).map(IntMatrix.from_rows)


@settings(max_examples=300, deadline=None)
@given(rect_matrices())
def test_smith_form_tracks_v_inverse(m):
    u, d, v, vinv = smith_normal_form_with_inverse(m)
    assert (u, d, v) == smith_normal_form(m)
    ident = IntMatrix.identity(m.cols)
    assert v @ vinv == ident
    assert vinv @ v == ident


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_scaled_inverse_matches_rational_inverse(m):
    inv = rational_inverse(m.entries)
    scaled = scaled_inverse(m)
    assert (scaled is None) == (inv is None)
    if scaled is None:
        return
    den, n = scaled
    k = m.rows
    assert den == smith_normal_form(m)[1][k - 1, k - 1] > 0
    assert (m @ n).entries == tuple(tuple(den * (i == j) for j in range(k))
                                    for i in range(k))
    assert [[Fraction(x, den) for x in row] for row in n.entries] == inv


@settings(max_examples=200, deadline=None)
@given(rect_matrices())
def test_row_reduce_is_reduced_echelon(m):
    rref, pivots = row_reduce(m.entries)
    assert list(pivots) == sorted(set(pivots))
    for r, j in enumerate(pivots):
        assert [row[j] for row in rref] == [int(i == r) for i in range(m.rows)]
        assert all(x == 0 for x in rref[r][:j])
    assert all(x == 0 for row in rref[len(pivots):] for x in row)
    # the row space is unchanged: each input row is a combination of the
    # pivot rows with its own entries in the pivot columns as weights
    for row in m.entries:
        assert [sum(row[j] * rref[r][c] for r, j in enumerate(pivots))
                for c in range(m.cols)] == list(row)


@settings(max_examples=300, deadline=None)
@given(rect_matrices())
def test_smith_normal_form(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(bareiss_det(u.entries)) == 1
    assert abs(bareiss_det(v.entries)) == 1
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(x >= 0 for x in diag)
    assert m.rank() == rational_rank(m.entries)


@settings(max_examples=200, deadline=None)
@given(rect_matrices())
def test_rank_mod2_bounded_by_rank(m):
    assert 0 <= rank_mod2(m.entries) <= m.rank() <= min(m.rows, m.cols)


@settings(max_examples=200, deadline=None)
@given(rect_matrices(3), st.data())
def test_solve_congruence_solves(m, data):
    # pick a random rational target with small denominators
    c = [Fraction(data.draw(small_int), data.draw(st.integers(1, 4)))
         for _ in range(m.rows)]
    x = solve_congruence(m, c)
    if x is not None:
        res = vec_sub(m.apply(x), c)
        assert is_integral(res)


def test_solve_congruence_finds_known_solution():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    x = solve_congruence(m, (Fraction(1, 2), Fraction(1, 3)))
    assert x is not None
    assert is_integral(vec_sub(m.apply(x), (Fraction(1, 2), Fraction(1, 3))))
    # unsolvable: row of zeros against a non-integer target
    m2 = IntMatrix.from_rows([[0, 0]])
    assert solve_congruence(m2, (Fraction(1, 2),)) is None


def test_torsion_solutions_diag():
    # x with 2x integral and 3y integral: torsion (1/2) x (1/3)
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    factors, gens, kdim = torsion_solutions(m)
    assert sorted(factors) in ([2, 3], [6])
    assert kdim == 0
    total = 1
    for f in factors:
        total *= f
    assert total == 6
    m2 = IntMatrix.from_rows([[1, 0]])
    _, _, kdim2 = torsion_solutions(m2)
    assert kdim2 == 1


def test_ratvecmodz():
    a = RatVecModZ.reduce([Fraction(3, 2), Fraction(-1, 4)])
    assert a.entries == (Fraction(1, 2), Fraction(3, 4))
    assert (a + a).entries == (Fraction(0), Fraction(1, 2))
    assert (-a).entries == (Fraction(1, 2), Fraction(1, 4))
    assert a.order == 4
    zero = RatVecModZ.reduce([0, 0])
    assert zero.order == 1
    assert a + (-a) == zero


def test_vector_helpers():
    assert vec_add((1, 2), (3, 4)) == (4, 6)
    assert vec_scale(Fraction(1, 2), (2, 4)) == (1, 2)
    assert vec_dot((1, 2), (3, 4)) == 11
    assert vec_mod1((Fraction(5, 2), Fraction(-1, 3))) == \
        (Fraction(1, 2), Fraction(2, 3))
    assert is_integral((Fraction(2), 3))
    assert not is_integral((Fraction(1, 2),))
    assert frac_vec((1, 2)) == (Fraction(1), Fraction(2))


def test_f2_helpers():
    assert f2_vec((3, -2, 5)) == (1, 0, 1)
    assert f2_add((1, 0, 1), (1, 1, 0)) == (0, 1, 1)


def test_intmatrix_basics():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.row(1) == (3, 4) and m.col(0) == (1, 3)
    assert m.transpose().entries == ((1, 3), (2, 4))
    assert (m + m)[0, 1] == 4
    assert (m - m) == IntMatrix.zero(2, 2)
    assert (-m)[1, 0] == -3
    assert (m @ IntMatrix.identity(2)) == m
    assert m.apply((1, 1)) == (3, 7)
    assert not m.is_involution()
    assert IntMatrix.identity(3).is_involution()
