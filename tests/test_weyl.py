"""Weyl groups, inner classes, twisted involutions, Cartan classes."""

import random

import pytest

from conftest import GRID, GRID_IDS, make_ic
from liepar import (InvalidInvolution, WeylError, WeylGroup, cartan_class_of,
                    cartan_classes, from_type, inner_class_from_perm,
                    trivial_inner_class, twisted_involutions)
from liepar.weyl import _mat_apply, _mat_mul

ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "C2": 8, "G2": 12,
          "B3": 48, "A1.A1": 4}


@pytest.mark.parametrize("t,n", sorted(ORDERS.items()))
def test_group_order(t, n):
    wg = WeylGroup(from_type(t, "sc"))
    assert wg.order() == n
    assert len(wg.all_elements()) == n


def test_longest_element():
    for t in ("A2", "B2", "G2", "A3"):
        rd = from_type(t, "sc")
        wg = WeylGroup(rd)
        w0 = wg.longest_element()
        assert w0.length == rd.n_pos
        assert wg.mult(w0, w0) == wg.identity
        # w0 sends every positive root to a negative root
        for i in range(len(rd.roots)):
            if rd.is_positive(i):
                assert not rd.is_positive(wg.act_root(w0, i))


def test_canonical_words_shortlex():
    rd = from_type("B2", "sc")
    wg = WeylGroup(rd)
    for w in wg.all_elements():
        # reduced: rebuilding from the word gives the same matrix
        assert wg.from_word(w.word) == w
        # shortlex-minimal among all reduced words (exhaustive for B2)
        words = _all_reduced_words(wg, w)
        assert w.word == min(words, key=lambda u: (len(u), u))


def _all_reduced_words(wg, w):
    if not w.word:
        return [()]
    rd = wg.rd
    out = []
    for i in range(rd.n_simple):
        # i is a left descent iff w^{-1}(alpha_i) < 0
        if wg._root_is_negative(_mat_apply(w.inv, rd.simple_roots[i])):
            rest = wg.mult(wg.simple(i), w)
            out.extend((i,) + u for u in _all_reduced_words(wg, rest))
    return out


def test_from_matrix_roundtrip():
    rd = from_type("A3", "sc")
    wg = WeylGroup(rd)
    rng = random.Random(7)
    elements = wg.all_elements()
    for _ in range(50):
        w = rng.choice(elements)
        assert wg.from_matrix(w.mat) == w
        assert wg.inverse(wg.inverse(w)) == w
        assert _mat_mul(w.mat, w.inv) == wg.identity.mat


def test_act_Xv_is_contragredient():
    rd = from_type("B2", "sc")
    wg = WeylGroup(rd)
    from liepar.intlinalg import vec_dot
    for w in wg.all_elements():
        for i in range(len(rd.roots)):
            lhs = vec_dot(_mat_apply(w.mat, rd.roots[i]), rd.coroots[i])
            rhs = vec_dot(rd.roots[i], wg.act_Xv(wg.inverse(w),
                                                 rd.coroots[i]))
            assert lhs == rhs


def test_inner_class_validation():
    rd = from_type("A2", "sc")
    from liepar.intlinalg import IntMatrix
    with pytest.raises(InvalidInvolution):
        # not an involution
        from liepar import InnerClass
        InnerClass(rd, IntMatrix.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(InvalidInvolution):
        from liepar import InnerClass
        # involution (-1) that does not permute the simple roots
        InnerClass(rd, IntMatrix.from_rows([[-1, 0], [0, -1]]))
    with pytest.raises(InvalidInvolution):
        inner_class_from_perm(rd, (0, 1, 2))   # wrong length
    ic = inner_class_from_perm(rd, (1, 0))
    assert ic.diagram_perm == (1, 0)


def test_dual_inner_class_is_involutive():
    for t, iso, tw in GRID:
        ic = make_ic(t, iso, tw)
        assert ic.dual.dual is ic
        # gamma-dual is an involution permuting the dual simple roots
        assert ic.dual.gamma.is_involution()


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_twisted_involutions_vs_brute_force(t, iso, tw):
    ic = make_ic(t, iso, tw)
    wg = ic.weyl
    brute = {w.mat for w in wg.all_elements()
             if _mat_mul(w.mat, ic.twist_weyl(w).mat) == wg.identity.mat}
    table = twisted_involutions(ic)
    assert {tau.w.mat for tau in table.elements} == brute
    assert len(table) == len(brute)


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_twisted_involution_lengths_and_links(t, iso, tw):
    ic = make_ic(t, iso, tw)
    table = twisted_involutions(ic)
    assert table.elements[0].w.length == 0 and table.elements[0].length == 0
    for tau in table.elements:
        # cross and Cayley neighbours differ in length by at most 1 /
        # exactly 1
        for j in table.cross[tau.index]:
            assert abs(table.elements[j].length - tau.length) <= 1
        for s, j in enumerate(table.cayley[tau.index]):
            if j is not None:
                assert table.elements[j].length == tau.length + 1
                # Cayley moves exist exactly at tau-imaginary simple roots
                a = ic.rd.simple_roots[s]
                assert _mat_apply(tau.theta_X, a) == a


def test_twisted_involution_counts():
    # |I_W|: involutions in W for the trivial twist
    assert len(twisted_involutions(make_ic("A1", "sc"))) == 2
    assert len(twisted_involutions(make_ic("A2", "sc"))) == 4
    assert len(twisted_involutions(make_ic("C2", "sc"))) == 6
    assert len(twisted_involutions(make_ic("A3", "sc"))) == 10
    assert len(twisted_involutions(make_ic("G2", "sc"))) == 8
    # nontrivial twist
    assert len(twisted_involutions(make_ic("A2", "sc", (1, 0)))) == 4


# involutions of W, the identity included: the telephone numbers for
# type A_n (S_{n+1}) and 2, 6, 20, 76, 312, ... for the hyperoctahedral
# groups of types B_n and C_n
INVOLUTION_COUNTS = {
    "A1": 2, "A2": 4, "A3": 10, "A4": 26, "A5": 76,
    "B2": 6, "B3": 20, "B4": 76,
    "C2": 6, "C3": 20, "C4": 76, "C5": 312}


@pytest.mark.parametrize("t,n", sorted(INVOLUTION_COUNTS.items()))
def test_equal_rank_twisted_involutions_count_the_involutions_of_w(t, n):
    # for the trivial twist a twisted involution is an involution of W
    assert len(twisted_involutions(make_ic(t, "sc"))) == n


def test_cartan_classes_sp4():
    ic = make_ic("C2", "sc")
    classes = cartan_classes(ic)
    assert len(classes) == 4
    assert sorted(len(c.members) for c in classes) == [1, 1, 2, 2]
    # representative of class 0 is the identity
    assert classes[0].rep == 0


def test_cartan_class_of_reads_the_classes():
    ic = make_ic("C2", "sc")
    for c in cartan_classes(ic):
        for t in c.members:
            assert cartan_class_of(ic, t) == c.index
    n = len(twisted_involutions(ic))
    for bad in (n, -1):
        with pytest.raises(WeylError):
            cartan_class_of(ic, bad)


def test_cartan_classes_sl2():
    classes = cartan_classes(make_ic("A1", "sc"))
    assert len(classes) == 2


def test_classification_partition():
    for t, iso, tw in GRID[:8]:
        ic = make_ic(t, iso, tw)
        table = twisted_involutions(ic)
        n_pos = ic.rd.n_pos
        for tau in table.elements:
            cls = table.classification(tau.index)
            assert len(cls.im_pos) + len(cls.re_pos) + len(cls.cx_pos) \
                == n_pos
            # theta fixes imaginary roots, negates real roots
            for i in cls.im_pos:
                assert _mat_apply(tau.theta_X, ic.rd.roots[i]) \
                    == ic.rd.roots[i]
            for i in cls.re_pos:
                assert _mat_apply(tau.theta_X, ic.rd.roots[i]) \
                    == tuple(-x for x in ic.rd.roots[i])
