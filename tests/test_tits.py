"""The extended group of order-2 torus points over the Weyl group."""

import random

import pytest

from conftest import GRID, GRID_IDS, make_ic
from liepar import TitsElt, tits_group
from liepar.intlinalg import f2_add, f2_vec
from props import (act_Xv, all_elements, check_tits_lifts, is_positive,
                   reflection_matrix, sigma_for_root, tits_identity)


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_lifts_and_braids(t, iso, tw):
    ic = make_ic(t, iso, tw)
    rng = random.Random(hash((t, iso)) & 0xffff)
    assert check_tits_lifts(ic, rng) > 0


def test_group_axioms_random():
    ic = make_ic("B2", "sc")
    tg = tits_group(ic)
    wg = ic.weyl
    rng = random.Random(3)
    elements = all_elements(wg)

    def random_elt():
        w = rng.choice(elements)
        t = tuple(rng.randint(0, 1) for _ in range(ic.rank))
        return TitsElt(w, t)

    e = tits_identity(tg)
    for _ in range(200):
        a, b, c = random_elt(), random_elt(), random_elt()
        assert tg.multiply(tg.multiply(a, b), c) == \
            tg.multiply(a, tg.multiply(b, c))
        assert tg.multiply(a, e) == a
        assert tg.multiply(e, a) == a
        inv = tg.inverse(a)
        assert tg.multiply(a, inv) == e
        assert tg.multiply(inv, a) == e


def test_torus_normality():
    # sigma_w x_t sigma_w^{-1} = x_{w(t)}
    ic = make_ic("C2", "sc")
    tg = tits_group(ic)
    wg = ic.weyl
    rng = random.Random(5)
    elements = all_elements(wg)
    for _ in range(100):
        w = rng.choice(elements)
        t = tuple(rng.randint(0, 1) for _ in range(ic.rank))
        lift = tg.canonical_lift(w)
        conj = tg.multiply(tg.multiply(lift, TitsElt(wg.identity, t)),
                           tg.inverse(lift))
        assert not conj.w.word
        assert conj.t == f2_vec(act_Xv(w, t))


def test_twist_is_automorphism():
    for t, iso, tw in GRID:
        ic = make_ic(t, iso, tw)
        tg = tits_group(ic)
        wg = ic.weyl
        rng = random.Random(11)
        elements = all_elements(wg)
        for _ in range(30):
            a = TitsElt(rng.choice(elements),
                        tuple(rng.randint(0, 1) for _ in range(ic.rank)))
            b = TitsElt(rng.choice(elements),
                        tuple(rng.randint(0, 1) for _ in range(ic.rank)))
            assert tg.twist(tg.multiply(a, b)) == \
                tg.multiply(tg.twist(a), tg.twist(b))
            assert tg.twist(tg.twist(a)) == a


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_sigma_for_root(t, iso, tw):
    ic = make_ic(t, iso, tw)
    tg = tits_group(ic)
    rd = ic.rd
    wg = ic.weyl
    for i, root in enumerate(rd.roots):
        if not is_positive(rd, i):
            continue
        sig = sigma_for_root(tg, i)
        # it lifts the reflection in the root
        assert sig.w.mat == reflection_matrix(rd, i)
        # and squares to x_{m_alpha}, as an element of the root SL(2)
        sq = tg.multiply(sig, sig)
        assert not sq.w.word
        assert sq.t == tg.m_alpha(i)


def test_m_alpha():
    ic = make_ic("C2", "sc")
    tg = tits_group(ic)
    rd = ic.rd
    for i in range(len(rd.roots)):
        assert tg.m_alpha(i) == f2_vec(rd.coroots[i])


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_conjugate_simple_is_the_fold_along_w(t, iso, tw):
    # sigma_s sigma_w sigma_r^-1 read off root permutations, against
    # folding the word of w and r onto sigma_s letter by letter and moving
    # the torus part to the left through the action of the result on Xv
    ic = make_ic(t, iso, tw)
    tg = tits_group(ic)
    wg = ic.weyl
    for w in all_elements(wg):
        for s in range(ic.n_simple):
            for r in (None,) + tuple(range(ic.n_simple)):
                tail = () if r is None else (r,)
                perm, t = tg.fold(wg.simple_perms[s], tg.zero, w.word + tail)
                if r is not None:
                    t = f2_add(t, f2_vec(ic.rd.simple_coroots[r]))
                v = wg.from_perm(perm)
                assert tg.conjugate_simple(s, w, r) == \
                    (perm, f2_vec(act_Xv(v, t)))
