"""Torus involutions, central squares, and fibers of X over a twisted
involution."""

from fractions import Fraction

import pytest

from conftest import GRID, GRID_IDS, make_ic
from liepar import (InfiniteCenterFixedPoints, InnerClass, NotAnInvolution,
                    RatVecModZ, central_fixed_points, fiber_space, from_type,
                    new_root_datum, theta_matrix, trivial_inner_class,
                    twisted_involutions)
from liepar.intlinalg import IntMatrix, identity, mat_mul
from props import (nu_tau, reduced_space, reference_canonical_form,
                   reference_central_points, reference_reduced_z0,
                   reference_signature, torus_signature)


def rv(*entries):
    return RatVecModZ.reduce([Fraction(e) for e in entries])


def test_torus_signature_basic():
    from liepar import TorusSignature
    # theta = +1 on the cocharacters: compact torus
    assert torus_signature(((1,),)) == TorusSignature(0, 1, 0)
    sig = torus_signature(identity(2))
    assert (sig.a, sig.b, sig.c) == (0, 2, 0)
    # theta = -1: split torus
    sig = torus_signature([[-1, 0], [0, -1]])
    assert (sig.a, sig.b, sig.c) == (2, 0, 0)
    # swap: one complex factor
    sig = torus_signature(((0, 1), (1, 0)))
    assert (sig.a, sig.b, sig.c) == (0, 0, 1)
    assert torus_signature(()) == TorusSignature(0, 0, 0)
    with pytest.raises(NotAnInvolution, match="not a square involution"):
        torus_signature([[1, 1], [0, 1]])


@pytest.mark.parametrize("theta", [
    [[1, 0]], [[1], [0]], [[1, 0], [0]], [[1], [0, 1]], [[1, 0, 0], [0, 1]]])
def test_torus_signature_rejects_a_matrix_that_is_not_square(theta):
    # zip would truncate these to a square that passes the involution test
    with pytest.raises(NotAnInvolution, match="not a square involution"):
        torus_signature(theta)


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_signature_consistency(t, iso, tw):
    ic = make_ic(t, iso, tw)
    for tau in twisted_involutions(ic).elements:
        th = theta_matrix(tau, ic)
        sig = torus_signature(th)
        assert sig.a + sig.b + 2 * sig.c == ic.rank
        assert mat_mul(th, th) == identity(ic.rank)
        fs = fiber_space(tau, ic)
        assert th == fs.theta_v == tuple(zip(*tau.theta_X))
        # the benchmark probe's form of 1 + theta, in either order
        one_plus = IntMatrix.identity(ic.rank) + th
        assert one_plus == th + IntMatrix.identity(ic.rank)
        assert one_plus == tuple(tuple(x + (i == j) for j, x in enumerate(row))
                                 for i, row in enumerate(th))


@pytest.mark.parametrize("t,iso,tw", GRID + [
    ("E6", "sc", "c"), ("D4", "sc", (0, 1, 3, 2)),
    ("E6", "sc", (5, 1, 4, 3, 2, 0))],
    ids=GRID_IDS + ["E6-sc-c", "D4-sc-u", "E6-sc-u"])
def test_signature_matches_rank_minus_f2_rank(t, iso, tw):
    # the invariant factors 2 of 1 -+ theta, against rank minus F2-rank
    # by Fraction and F2 elimination
    ic = make_ic(t, iso, tw)
    for tau in twisted_involutions(ic).elements:
        th = theta_matrix(tau, ic)
        sig = torus_signature(th)
        assert (sig.a, sig.b) == reference_signature(th)


def test_central_fixed_points_goldens():
    assert central_fixed_points(make_ic("A1", "sc")) == \
        (rv(0), rv("1/2"))
    assert central_fixed_points(make_ic("A1", "ad")) == (rv(0),)
    assert len(central_fixed_points(make_ic("A2", "sc"))) == 3
    # nontrivial twist inverts the center of SL(3): only 1 fixed point
    assert central_fixed_points(make_ic("A2", "sc", (1, 0))) == (rv(0, 0),)
    assert len(central_fixed_points(make_ic("C2", "sc"))) == 2
    assert len(central_fixed_points(make_ic("A3", "sc"))) == 4
    # the order-4 part collapses to order 2 under the A3 twist
    assert len(central_fixed_points(make_ic("A3", "sc", (2, 1, 0)))) == 2


def test_central_fixed_points_infinite():
    ic = trivial_inner_class(from_type("A1.T1", "sc"))
    with pytest.raises(InfiniteCenterFixedPoints):
        central_fixed_points(ic)


# the scan modulus N of each group is a multiple of the exponent of its
# center: 12 covers the grid, whose centers have exponent 2, 3 or 4
CENTRAL_ORACLE = [spec + (12,) for spec in GRID] + [
    ("D4", "sc", "c", 2), ("D4", "sc", (0, 1, 3, 2), 2),
    ("E6", "sc", "c", 3), ("E6", "sc", (5, 1, 4, 3, 2, 0), 3),
    ("A4", "sc", (3, 2, 1, 0), 5), ("A5", "sc", (4, 3, 2, 1, 0), 6),
    ("D5", "sc", (0, 1, 2, 4, 3), 4)]


@pytest.mark.parametrize("t,iso,tw,n_scan", CENTRAL_ORACLE)
def test_central_squares_match_the_scan(t, iso, tw, n_scan):
    ic = make_ic(t, iso, tw)
    assert central_fixed_points(ic) == reference_central_points(ic, n_scan)
    assert reduced_space(ic).z0 == reference_reduced_z0(ic, n_scan)


@pytest.mark.parametrize("rd,gamma", [
    (from_type("A1.T1", "sc"), [[1, 0], [0, -1]]),
    (new_root_datum([], [], 2), [[-1, 0], [0, -1]])], ids=["A1.T1", "T2"])
def test_twists_that_negate_a_central_torus(rd, gamma):
    # the squares are finite: the points of order 2 of the negated torus;
    # 1 + gamma_v kills them all, so each is its own class
    ic = InnerClass(rd, gamma)
    assert len(central_fixed_points(ic)) == 4
    assert central_fixed_points(ic) == reference_central_points(ic, 4)
    assert reduced_space(ic).z0 == central_fixed_points(ic)
    assert reduced_space(ic).z0 == reference_reduced_z0(ic, 4)


def test_nu_tau_sl2():
    ic = make_ic("A1", "sc")
    tbl = twisted_involutions(ic)
    assert nu_tau(tbl.elements[0], ic) == (Fraction(0),)
    # over the split involution, sigma_s^2 = m_alpha: nu = coroot/2
    assert nu_tau(tbl.elements[1], ic) == (Fraction(1, 2),)


def test_fiber_sl2_goldens():
    ic = make_ic("A1", "sc")
    tbl = twisted_involutions(ic)
    fs_e = fiber_space(tbl.elements[0], ic)
    fs_s = fiber_space(tbl.elements[1], ic)
    assert fs_e.fiber_rank == 1
    assert fs_s.fiber_rank == 0
    plus, minus = rv(0), rv("1/2")
    assert set(fs_e.elements(plus)) == {rv(0), rv("1/2")}
    assert set(fs_e.elements(minus)) == {rv("1/4"), rv("3/4")}
    assert fs_s.elements(plus) == ()
    assert set(fs_s.elements(minus)) == {rv(0)}


def test_fiber_pgl2():
    ic = make_ic("A1", "ad")
    tbl = twisted_involutions(ic)
    fs_e = fiber_space(tbl.elements[0], ic)
    fs_s = fiber_space(tbl.elements[1], ic)
    zero = rv(0)
    assert set(fs_e.elements(zero)) == {rv(0), rv("1/2")}
    assert set(fs_s.elements(zero)) == {rv(0)}


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_canonical_form_idempotent(t, iso, tw):
    ic = make_ic(t, iso, tw)
    tbl = twisted_involutions(ic)
    for tau in tbl.elements:
        fs = fiber_space(tau, ic)
        for z in central_fixed_points(ic):
            for lam in fs.elements(z):
                assert reference_canonical_form(fs, lam.entries) == lam


def test_fiber_rank_is_compact_circle_count():
    for t, iso, tw in GRID:
        ic = make_ic(t, iso, tw)
        for tau in twisted_involutions(ic).elements:
            fs = fiber_space(tau, ic)
            assert fs.fiber_rank == torus_signature(fs.theta_v).b
