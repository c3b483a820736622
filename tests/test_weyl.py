"""Weyl groups, inner classes, twisted involutions, Cartan classes."""

import hashlib
import io
import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import liepar.rootdatum
import liepar.weyl
from conftest import GRID, GRID_IDS, make_ic
from liepar import (InnerClass, InvalidInvolution, WeylError,
                    WeylGroup, cartan_classes, enumerate_X, from_type,
                    inner_class_from_perm, new_root_datum, real_weyl,
                    tits_group, trivial_inner_class, twisted_involutions)
from liepar.cli import Session
from liepar.intlinalg import identity, mat_apply, mat_mul
from liepar.weyl import (TwistedInvolutionTable, _compose, _inverse, _perm,
                         _table, cartan_index, subsystem_heights,
                         subsystem_order)
from props import (act_Xv, all_elements, from_matrix, from_word,
                   inverse_matrix, is_positive, matrix_canonical_word, mult,
                   perm_bfs, perm_closure, reference_canonical_word,
                   reference_classification, reference_complex_fixed,
                   reference_compose, reference_reflection_perm,
                   reference_tau_distances, root_is_negative, root_status,
                   simple_reflection)

ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "C2": 8, "G2": 12,
          "B3": 48, "A1.A1": 4}


@pytest.mark.parametrize("t,n", sorted(ORDERS.items()))
def test_group_order(t, n):
    wg = WeylGroup(from_type(t, "sc"))
    assert wg.order() == n
    assert len(all_elements(wg)) == n


@pytest.mark.parametrize(
    "t,iso", sorted({(t, iso) for t, iso, _ in GRID})
    + [("A1.T1", "sc"), ("T2", "sc"), ("B2.G2", "ad")])
def test_order_matches_the_closure(t, iso):
    wg = WeylGroup(from_type(t, iso))
    assert wg.order() == len(perm_closure(wg.simple_perms, len(wg.rd.roots)))


@pytest.mark.parametrize("t,n", [("G2", 12), ("F4", 1152), ("E6", 51840),
                                 ("E7", 2903040), ("E8", 696729600)])
def test_order_closed_form(t, n):
    assert WeylGroup(from_type(t, "sc")).order() == n


def test_longest_element():
    for t in ("A2", "B2", "G2", "A3"):
        rd = from_type(t, "sc")
        wg = WeylGroup(rd)
        w0 = wg.longest_element()
        assert w0.length == rd.n_pos
        assert mult(wg, w0, w0) == wg.identity
        # w0 sends every positive root to a negative root
        for i in range(len(rd.roots)):
            if is_positive(rd, i):
                assert not is_positive(rd, w0.perm[i])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_and_inverse_agree_with_the_reference(data):
    # sizes from the empty permutation (a torus) to either side of 256,
    # where _perm switches from bytes to tuples
    n = data.draw(st.one_of(st.integers(0, 12), st.integers(250, 262)))
    a, b = (tuple(data.draw(st.permutations(range(n)))) for _ in "ab")
    want = reference_compose(a, b)
    identity = tuple(range(n))
    kinds = (bytes, tuple) if n <= 256 else (tuple,)
    assert type(_perm(a)) is kinds[0]
    for kind in kinds:
        pa, pb = kind(a), kind(b)
        for left in (pa, _table(pa)):
            out = _compose(left, pb)
            assert type(out) is kind and tuple(out) == want
        inv = _inverse(pa)
        assert type(inv) is kind
        assert reference_compose(a, tuple(inv)) == identity
        assert reference_compose(tuple(inv), a) == identity


# more than 256 roots: permutations are tuples; 256 roots still fit bytes
LARGE_DATA = [("A16", "sc", 272), ("D12", "sc", 264), ("B12", "ad", 288),
              ("A15.A3.A1.A1", "sc", 256)]


@pytest.mark.parametrize("t,iso,size", LARGE_DATA)
def test_large_root_data_keep_their_weyl_group(t, iso, size):
    rd = from_type(t, iso)
    assert len(rd.roots) == size
    kind = bytes if size <= 256 else tuple
    ic = trivial_inner_class(rd)
    wg = ic.weyl
    w0 = wg.longest_element()
    assert {type(p) for p in (wg.identity.perm, wg.neg, ic.gamma_perm,
                              w0.perm, w0.inv_perm, *wg.simple_perms)} \
        == {kind}
    assert w0.length == rd.n_pos
    assert all(w0.perm[r] < rd.n_pos for r in range(rd.n_pos, size))
    assert wg.inverse(w0) == w0 and mult(wg, w0, w0) == wg.identity
    assert ic.twist_weyl(w0) == w0
    # .dual: the dual datum, gammav = -w0 gamma^t, and back again
    dual = ic.dual
    assert len(dual.rd.roots) == size and dual.dual is ic
    assert dual.weyl.longest_element().length == rd.n_pos
    if t == "A16":
        flip = inner_class_from_perm(rd, tuple(range(15, -1, -1)))
        assert dual.diagram_perm == flip.diagram_perm
        for i in range(rd.n_simple):
            assert flip.twist_weyl(wg.simple(i)).word == (15 - i,)
        assert flip.twist_weyl(w0).perm == w0.perm


def test_canonical_words_shortlex():
    rd = from_type("B2", "sc")
    wg = WeylGroup(rd)
    for w in all_elements(wg):
        # reduced: rebuilding from the word gives the same matrix
        assert from_word(wg, w.word) == w
        # shortlex-minimal among all reduced words (exhaustive for B2)
        words = _all_reduced_words(wg, w)
        assert w.word == min(words, key=lambda u: (len(u), u))


# every group of the brute-force oracle, |W| <= 384, then F4 whole and
# the first 4000 elements of E6 breadth-first
BRUTE_FORCE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3",
                     "C4", "D4", "G2", "A1.A1", "B2.G2", "A1.T1"]


@pytest.mark.parametrize(
    "t,iso,cap", [(t, iso, 384) for t in BRUTE_FORCE_TYPES
                  for iso in ("sc", "ad")]
    + [("F4", "sc", 1152), ("E6", "sc", 4000), ("E6", "ad", 4000)])
def test_canonical_words_match_the_permutation_peeling(t, iso, cap):
    wg = WeylGroup(from_type(t, iso))
    perms = perm_bfs(wg, cap)
    assert len(perms) == min(cap, wg.order())
    for p in perms:
        word = reference_canonical_word(wg, p)
        assert wg.canonical_word(p) == word
        assert wg.canonical_word(p, _inverse(p)) == word


@pytest.mark.parametrize("t,tw", [("A2", (1, 0)), ("D4", (0, 1, 3, 2)),
                                  ("E6", (5, 1, 4, 3, 2, 0))])
def test_a_diagram_automorphism_is_no_weyl_group_element(t, tw):
    # gamma keeps every positive root positive, so it has no descent;
    # -1 = w0 gamma is not in W either for these types
    ic = make_ic(t, "sc", tw)
    wg, g = ic.weyl, ic.gamma_perm
    for perm in (g, _compose(wg.longest_element().perm, g)):
        for inv in (None, _inverse(perm)):
            with pytest.raises(WeylError, match="not a Weyl group element"):
                wg.canonical_word(perm, inv)
            with pytest.raises(WeylError, match="not a Weyl group element"):
                reference_canonical_word(wg, perm, inv)


@pytest.mark.parametrize("t", ["T1", "T2"])
def test_a_torus_has_one_twisted_involution(t):
    # a torus has no roots: every permutation has length 0
    rd = from_type(t, "sc")
    assert _compose((), ()) == () and _compose(b"", b"") == b""
    for gamma in (identity(rd.rank), tuple(
            tuple(-int(i == j) for j in range(rd.rank))
            for i in range(rd.rank))):
        primal = InnerClass(rd, gamma)
        # the dual's table is relabelled from the primal's
        for ic in (primal, primal.dual):
            assert len(twisted_involutions(ic)) == 1
            assert ic.twist_weyl(ic.weyl.identity) == ic.weyl.identity
            assert ic.weyl.canonical_word(()) == ()
        assert primal.dual.gamma == tuple(tuple(-x for x in row)
                                          for row in gamma)
        sigma = twisted_involutions(primal.dual).elements[0]
        assert (sigma.theta, sigma.w.word, sigma.length) == (b"", (), 0)


def _all_reduced_words(wg, w):
    if not w.word:
        return [()]
    rd = wg.rd
    out = []
    for i in range(rd.n_simple):
        # i is a left descent iff w^{-1}(alpha_i) < 0
        if root_is_negative(rd, mat_apply(inverse_matrix(w),
                                          rd.simple_roots[i])):
            rest = mult(wg, wg.simple(i), w)
            out.extend((i,) + u for u in _all_reduced_words(wg, rest))
    return out


def test_from_matrix_roundtrip():
    rd = from_type("A3", "sc")
    wg = WeylGroup(rd)
    rng = random.Random(7)
    elements = all_elements(wg)
    for _ in range(50):
        w = rng.choice(elements)
        assert from_matrix(wg, w.mat) == w
        assert wg.inverse(wg.inverse(w)) == w
        assert mat_mul(w.mat, inverse_matrix(w)) == wg.identity.mat


def test_act_Xv_is_contragredient():
    rd = from_type("B2", "sc")
    wg = WeylGroup(rd)
    from liepar.intlinalg import vec_dot
    for w in all_elements(wg):
        for i in range(len(rd.roots)):
            lhs = vec_dot(mat_apply(w.mat, rd.roots[i]), rd.coroots[i])
            rhs = vec_dot(rd.roots[i], act_Xv(wg.inverse(w), rd.coroots[i]))
            assert lhs == rhs


def test_perm_that_does_not_preserve_the_lattice_is_rejected():
    # A1 x A1 with alpha_1 / 2 in X but not alpha_2 / 2: swapping the
    # simple roots is no automorphism of X
    rd = new_root_datum([(2, 0), (0, 1)], [(1, 0), (0, 2)])
    with pytest.raises(InvalidInvolution,
                       match="does not extend to a lattice involution"):
        inner_class_from_perm(rd, (1, 0))


def test_non_semisimple_perm_needs_the_lattice_involution():
    # a permutation of the simple roots does not say how gamma acts on a
    # central torus
    with pytest.raises(InvalidInvolution, match="non-semisimple"):
        inner_class_from_perm(from_type("A1.T1", "sc"), (0,))


def test_inner_class_validation():
    rd = from_type("A2", "sc")
    with pytest.raises(InvalidInvolution):
        # not an involution
        InnerClass(rd, [[1, 1], [0, 1]])
    with pytest.raises(InvalidInvolution):
        # involution (-1) that does not permute the simple roots
        InnerClass(rd, [[-1, 0], [0, -1]])
    with pytest.raises(InvalidInvolution):
        inner_class_from_perm(rd, (0, 1, 2))   # wrong length
    ic = inner_class_from_perm(rd, (1, 0))
    assert ic.diagram_perm == (1, 0)


@pytest.mark.parametrize("t,gamma,match", [
    ("A1", [[1.5]], "not an integer"), ("A1", [["1"]], "not an integer"),
    ("A2", [[0, 1], [1]], "rank x rank"), ("A2", [[0, 1]], "rank x rank"),
    ("A2", [[0, 1], [1, 0], [0, 0]], "rank x rank")])
def test_gamma_must_be_integer_rows_of_the_rank(t, gamma, match):
    # an entry is read as new_root_datum reads one: 1.5 and "1" are not
    # integers, and no row is cut or padded to fit
    with pytest.raises(InvalidInvolution, match=match):
        InnerClass(from_type(t, "sc"), gamma)


def test_gamma_from_lists_is_the_twist_of_its_permutation():
    rd = from_type("A2", "sc")
    ic = InnerClass(rd, [[0, 1], [1, 0]])
    assert ic.gamma == ((0, 1), (1, 0)) == inner_class_from_perm(rd,
                                                                 (1, 0)).gamma
    assert ic.diagram_perm == (1, 0)
    trivial = InnerClass(from_type("A1", "sc"), [[1.0]])
    assert trivial.gamma == ((1,),) and type(trivial.gamma[0][0]) is int
    assert trivial.diagram_perm == (0,)


def test_dual_inner_class_is_involutive():
    for t, iso, tw in GRID:
        ic = make_ic(t, iso, tw)
        assert ic.dual.dual is ic
        # gamma-dual is an involution permuting the dual simple roots
        assert mat_mul(ic.dual.gamma, ic.dual.gamma) == identity(ic.rank)


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_twisted_involutions_vs_brute_force(t, iso, tw):
    # the dual's table is derived from the primal's, not searched
    for ic in (make_ic(t, iso, tw), make_ic(t, iso, tw).dual):
        wg = ic.weyl
        brute = {w.mat for w in all_elements(wg)
                 if mat_mul(w.mat, ic.twist_weyl(w).mat) == wg.identity.mat}
        table = twisted_involutions(ic)
        assert {tau.w.mat for tau in table.elements} == brute
        assert len(table) == len(brute)


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_twisted_involution_lengths_and_links(t, iso, tw):
    for ic in (make_ic(t, iso, tw), make_ic(t, iso, tw).dual):
        table = twisted_involutions(ic)
        assert table.elements[0].w.length == 0 \
            and table.elements[0].length == 0
        for tau in table.elements:
            # cross and Cayley neighbours differ in length by at most 1 /
            # exactly 1
            for j in table.cross[tau.index]:
                assert abs(table.elements[j].length - tau.length) <= 1
            for s, j in enumerate(table.cayley[tau.index]):
                a = ic.rd.simple_roots[s]
                # Cayley moves exist exactly at tau-imaginary simple roots
                assert (j is not None) == (mat_apply(tau.theta_X, a) == a)
                if j is not None:
                    assert table.elements[j].length == tau.length + 1


@pytest.mark.parametrize("t,iso,tw", GRID + [("E6", "sc", "c"),
                                              ("D4", "sc", (0, 1, 3, 2))],
                         ids=GRID_IDS + ["E6-sc-c", "D4-sc-u"])
def test_cross_action_on_taus_is_an_involution(t, iso, tw):
    # the search fills the reverse slot of each cross link without the
    # move, and the dual's links are relabelled; recompute s theta s for
    # every slot, and s theta for every Cayley slot
    for ic in (make_ic(t, iso, tw), make_ic(t, iso, tw).dual):
        wg = ic.weyl
        tbl = twisted_involutions(ic)
        for tau in tbl.elements:
            for s, j in enumerate(tbl.cross[tau.index]):
                assert tbl.cross[j][s] == tau.index
                sp = wg.simple_perms[s]
                assert tbl.elements[j].theta == \
                    _compose(sp, _compose(tau.theta, sp))
            for s, j in enumerate(tbl.cayley[tau.index]):
                if j is not None:
                    assert tbl.elements[j].theta == \
                        _compose(wg.simple_perms[s], tau.theta)


@pytest.mark.parametrize("t,tw", [("C4", "c"), ("E6", "c"),
                                  ("D4", (0, 1, 3, 2)),
                                  ("E6", (5, 1, 4, 3, 2, 0))])
def test_each_cross_edge_is_composed_once(t, tw, monkeypatch):
    calls = [0]
    compose = liepar.weyl._compose

    def counted(a, b):
        calls[0] += 1
        return compose(a, b)

    rd = from_type(t, "sc")
    ic = trivial_inner_class(rd) if tw == "c" \
        else inner_class_from_perm(rd, tw)
    monkeypatch.setattr(liepar.weyl, "_compose", counted)
    tbl = twisted_involutions(ic)
    monkeypatch.undo()
    edges = {(min(i, j), max(i, j), s) for i, row in enumerate(tbl.cross)
             for s, j in enumerate(row)}
    cayley = sum(j is not None for row in tbl.cayley for j in row)
    # two per cross edge (theta s, then s theta s), fixed points included;
    # one per Cayley edge; one per new tau for w = theta o gamma unless
    # gamma fixes every root
    if tw != "c":
        assert calls[0] == 2 * len(edges) + cayley + len(tbl) - 1
    else:
        # gamma fixes every root: w shares theta and costs no composition
        assert calls[0] == 2 * len(edges) + cayley
        assert all(tau.w.perm is tau.theta for tau in tbl.elements[1:])


def _table_fields(ic):
    tbl = twisted_involutions(ic)
    return ([(tau.index, tau.theta, tau.w.word, tau.w.perm, tau.length)
             for tau in tbl.elements], tbl.cross, tbl.cayley,
            tbl.index_by_perm, cartan_index(ic))


DERIVED_DATA = GRID + [("E6", "sc", "c"), ("E6", "ad", "c"),
                       ("A4", "sc", (3, 2, 1, 0)),
                       ("D5", "sc", (0, 1, 2, 4, 3)),
                       ("E6", "sc", (5, 1, 4, 3, 2, 0)), ("E7", "sc", "c")]


@pytest.mark.parametrize("t,iso,tw", DERIVED_DATA)
def test_the_derived_dual_table_equals_the_search(t, iso, tw):
    # the reference is the search on an equal class not made by .dual
    ic = make_ic(t, iso, tw)
    dic = ic.dual
    assert dic._derived and not ic._derived
    reference = InnerClass(dic.rd, dic.gamma)
    assert not reference._derived
    assert _table_fields(dic) == _table_fields(reference)
    # the index maps are inverse bijections that match theta to -theta^T
    tbl, dtbl = twisted_involutions(ic), twisted_involutions(dic)
    assert sorted(tbl.dual_index) == list(range(len(tbl)))
    for tau in tbl.elements:
        assert dtbl.dual_index[tbl.dual_index[tau.index]] == tau.index
    # E7: the lattice matrices of every 20th tau
    for tau in tbl.elements[::1 if len(tbl) < 1000 else 20]:
        sigma = dtbl.elements[tbl.dual_index[tau.index]]
        assert sigma.theta_X == tuple(zip(*[tuple(-x for x in row)
                                            for row in tau.theta_X]))


def test_the_dual_table_runs_no_search_and_no_closure(monkeypatch):
    # the search forms the Weyl element of each new tau with from_perm;
    # the relabelling composes with fixed permutations and reads words
    searched, closed = [0], [0]
    from_perm = liepar.weyl.WeylGroup.from_perm
    closure = liepar.rootdatum._reflection_closure

    def counted_from_perm(self, perm, inv=None):
        searched[0] += 1
        return from_perm(self, perm, inv)

    def counted_closure(*args):
        closed[0] += 1
        return closure(*args)

    monkeypatch.setattr(liepar.weyl.WeylGroup, "from_perm", counted_from_perm)
    monkeypatch.setattr(liepar.rootdatum, "_reflection_closure",
                        counted_closure)
    for t, tw in (("C4", "c"), ("E6", "c"), ("A4", (3, 2, 1, 0))):
        rd = from_type(t, "sc")
        assert closed[0] == 1
        ic = trivial_inner_class(rd) if tw == "c" \
            else inner_class_from_perm(rd, tw)
        # .dual before the primal table: the primal still searches
        dic = ic.dual
        assert closed[0] == 1
        twisted_involutions(ic)
        assert searched[0] > 0
        searched[0] = 0
        twisted_involutions(dic)
        assert searched[0] == 0
        # the partner of the dual is the primal, whose table is cached
        assert dic.dual is ic and twisted_involutions(dic.dual) is \
            twisted_involutions(ic)
        closed[0] = 0


@pytest.mark.parametrize("t,iso,tw", DERIVED_DATA)
def test_dual_words_are_the_shortlex_words_of_their_permutations(t, iso, tw):
    dic = make_ic(t, iso, tw).dual
    wg = dic.weyl
    for sigma in twisted_involutions(dic).elements:
        assert sigma.w.word == reference_canonical_word(wg, sigma.w.perm)


@pytest.mark.parametrize("t,iso,tw,peels", [
    ("C2", "sc", "c", 0), ("C3", "sc", "c", 0), ("C4", "sc", "c", 0),
    ("C5", "sc", "c", 0), ("C6", "sc", "c", 0), ("B5", "ad", "c", 0),
    ("D4", "sc", "c", 0), ("D4", "sc", (0, 1, 3, 2), 0), ("D6", "sc", "c", 0),
    ("F4", "sc", "c", 0), ("G2", "sc", "c", 0), ("E7", "sc", "c", 0),
    # w0 != -1: a dual w need not be a partner's w, and those are peeled
    ("A3", "sc", "c", 4), ("D5", "sc", "c", 80), ("E6", "sc", "c", 752)])
def test_the_dual_table_peels_only_words_the_partner_lacks(t, iso, tw, peels,
                                                          monkeypatch):
    ic = make_ic(t, iso, tw)
    dic = ic.dual
    twisted_involutions(ic)
    calls = [0]
    canonical_word = WeylGroup.canonical_word

    def counted(self, perm, inv=None):
        calls[0] += 1
        return canonical_word(self, perm, inv)

    monkeypatch.setattr(WeylGroup, "canonical_word", counted)
    fresh = TwistedInvolutionTable(dic)
    assert calls[0] == peels
    assert [tau.w.word for tau in fresh.elements] == \
        [tau.w.word for tau in twisted_involutions(dic).elements]


def test_dual_words_are_the_partner_word_tuples():
    ic = make_ic("C5", "sc")
    primal = {id(tau.w.word) for tau in twisted_involutions(ic).elements}
    assert all(id(sigma.w.word) in primal
               for sigma in twisted_involutions(ic.dual).elements)


def test_theta_x_skips_the_product_only_for_the_identity_matrix():
    for tau in twisted_involutions(make_ic("C3", "sc")).elements:
        assert tau.theta_X is tau.w.mat
    # gamma = diag(1, -1) fixes the one root of A1.T1 but not X
    a1t1 = InnerClass(from_type("A1.T1", "sc"), ((1, 0), (0, -1)))
    assert a1t1.gamma_perm == a1t1.weyl.identity.perm
    for ic in (make_ic("A2", "sc", (1, 0)), a1t1):
        taus = twisted_involutions(ic).elements
        for tau in taus:
            assert tau.theta_X == mat_mul(tau.w.mat, ic.gamma)
        assert any(tau.theta_X != tau.w.mat for tau in taus)


def test_table_checks_that_the_cross_action_is_an_involution(monkeypatch):
    # in A2 the cross action of s_1 fixes s_1 and sends s_2 to w0; a move
    # that sends s_2 to s_1 instead finds the slot of s_1 holding s_1
    ic = trivial_inner_class(from_type("A2", "sc"))
    s1 = ic.weyl.simple_perms[0]
    s1_table = ic.weyl.simple_tables[0]
    w0 = ic.weyl.longest_element().perm
    compose = liepar.weyl._compose

    def corrupted(a, b):
        out = compose(a, b)
        return s1 if a is s1_table and out == w0 else out

    monkeypatch.setattr(liepar.weyl, "_compose", corrupted)
    with pytest.raises(WeylError, match="cross action is not an involution"):
        twisted_involutions(ic)


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
    "A1": 2, "A2": 4, "A3": 10, "A4": 26, "A5": 76, "A6": 232, "A7": 764,
    "B2": 6, "B3": 20, "B4": 76, "B5": 312, "B6": 1384,
    "C2": 6, "C3": 20, "C4": 76, "C5": 312, "C6": 1384, "C7": 6512,
    "A8": 2620, "E7": 10208}


@pytest.mark.parametrize("t,n", sorted(INVOLUTION_COUNTS.items()))
def test_equal_rank_twisted_involutions_count_the_involutions_of_w(t, n):
    # for the trivial twist a twisted involution is an involution of W
    assert len(twisted_involutions(make_ic(t, "sc"))) == n


@pytest.mark.slow
@pytest.mark.parametrize("t,n", [("B8", 32400), ("C8", 32400),
                                 ("E8", 199952)])
def test_large_involution_counts(t, n):
    # a fresh inner class: the session cache would keep the table alive
    ic = trivial_inner_class(from_type(t, "sc"))
    assert len(twisted_involutions(ic)) == n


def test_cartan_classes_sp4():
    ic = make_ic("C2", "sc")
    classes = cartan_classes(ic)
    assert len(classes) == 4
    assert sorted(len(c.members) for c in classes) == [1, 1, 2, 2]
    # representative of class 0 is the identity
    assert classes[0].rep == 0


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_tau_order_and_cartan_reps_against_an_independent_search(t, iso,
                                                                 tw):
    for ic in (make_ic(t, iso, tw), make_ic(t, iso, tw).dual):
        tbl = twisted_involutions(ic)
        assert {tuple(tau.theta): tau.length for tau in tbl.elements} == \
            reference_tau_distances(ic)
        assert [tau.index for tau in tbl.elements] == list(range(len(tbl)))
        keys = [(tau.length, tau.w.length, tau.w.word)
                for tau in tbl.elements]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for c in cartan_classes(ic):
            taus = [tbl.elements[m] for m in c.members]
            assert c.rep == min(c.members) == min(
                taus, key=lambda tau: (tau.w.length, tau.w.word)).index
            # the length is a rank function: (l(w) + l'(w)) / 2 with l'
            # constant on the class
            assert len({2 * tau.length - tau.w.length for tau in taus}) == 1


def test_cartan_class_of_reads_the_classes():
    ic = make_ic("C2", "sc")
    index = cartan_index(ic)
    for c in cartan_classes(ic):
        for t in c.members:
            assert index[t] == c.index
    assert len(index) == len(twisted_involutions(ic))


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
            assert len(cls.im_pos) + len(cls.re_pos) \
                + root_status(tau)[n_pos:].count('C') == n_pos
            # theta fixes imaginary roots, negates real roots
            for i in cls.im_pos:
                assert mat_apply(tau.theta_X, ic.rd.roots[i]) \
                    == ic.rd.roots[i]
            for i in cls.re_pos:
                assert mat_apply(tau.theta_X, ic.rd.roots[i]) \
                    == tuple(-x for x in ic.rd.roots[i])


def test_a_simple_root_or_root_out_of_range_is_an_error():
    # on A2 sc, simple(-1) returned s_2, and reflection_perm(-1) and
    # m_alpha(-1) read the highest root; 2 and 6 raised a bare IndexError
    ic = make_ic("A2", "sc")
    wg, tg = ic.weyl, tits_group(ic)
    for call, n in ((wg.simple, 2), (wg.reflection_perm, 6),
                    (tg.m_alpha, 6)):
        for i in (-1, n):
            with pytest.raises(WeylError,
                               match=rf"{i} is not in 0\.\.{n - 1}"):
                call(i)
        call(n - 1)
    assert -1 not in wg._reflection_perms


@pytest.mark.parametrize("idx", [-1, 6, 100])
def test_a_tau_index_out_of_range_is_an_error(idx):
    # C2 sc has 6 taus; -1 read tau 5 and 6 raised a bare IndexError
    table = twisted_involutions(make_ic("C2", "sc"))
    assert len(table) == 6
    with pytest.raises(WeylError, match=r"0\.\.5"):
        table.classification(idx)
    assert idx not in table._classification


CLASSIFICATION_FIELDS = ("im_pos", "re_pos", "im_simples")
LAZY_FIELDS = CLASSIFICATION_FIELDS[1:]


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_lazy_classification_matches_the_eager_route(t, iso, tw):
    ic = make_ic(t, iso, tw)
    table = twisted_involutions(ic)
    for tau in table.elements:
        cls = table.classification(tau.index)
        expected = reference_classification(tau, ic.rd)
        assert expected["status"] == root_status(tau)
        for f in CLASSIFICATION_FIELDS:
            assert getattr(cls, f) == expected[f]


@pytest.mark.parametrize("t,tw", [("C3", "c"), ("A3", (2, 1, 0))])
def test_search_leaves_the_real_weyl_fields_unread(t, tw, monkeypatch):
    subsystems = []
    heights = liepar.weyl.subsystem_heights

    def counted(rd, pos):
        subsystems.append(tuple(pos))
        return heights(rd, pos)

    monkeypatch.setattr(liepar.weyl, "subsystem_heights", counted)
    rd = from_type(t, "sc")
    ic = trivial_inner_class(rd) if tw == "c" \
        else inner_class_from_perm(rd, tw)
    x = enumerate_X(ic)[-1]
    table = twisted_involutions(ic)
    assert table._classification
    for cls in table._classification.values():
        assert not set(LAZY_FIELDS) & set(vars(cls))
    assert subsystems == []
    # the real Weyl group reads the heights of the imaginary subsystem
    # once (its base and its order), of the real one and of all roots
    info = real_weyl(x)
    cls = table.classification(x.tau.index)
    assert set(LAZY_FIELDS) <= set(vars(cls))
    assert sorted(subsystems) == sorted(
        [cls.im_pos, cls.re_pos,
         tuple(range(rd.n_pos, len(rd.roots)))])
    assert info == real_weyl(enumerate_X(make_ic(t, "sc", tw))[-1])


def test_e6_cartan_classes_are_carters_involution_classes():
    # the involutions of W(E6), the identity included, fall into Carter's
    # classes 1 + 36 + 270 + 540 + 45 (0, 1, 2, 3 and 4 orthogonal roots)
    ic = make_ic("E6", "sc")
    assert len(twisted_involutions(ic)) == 892
    assert tuple(len(c.members) for c in cartan_classes(ic)) == \
        (1, 36, 270, 540, 45)


ORDER_DATA = GRID + [("E6", "sc", "c"), ("E6", "sc", (5, 1, 4, 3, 2, 0)),
                     ("D5", "sc", (0, 1, 2, 4, 3))]


@pytest.mark.parametrize("t,iso,tw", ORDER_DATA,
                         ids=GRID_IDS + ["E6-sc-c", "E6-sc-u", "D5-sc-u"])
def test_subsystem_orders_match_the_closures(t, iso, tw):
    # every tau: the height-read orders of the imaginary and real
    # subsystems against the subgroups their reflections generate, and
    # |W| = |class| |W_i| |W_r| |W_C^theta| with the theta-fixed part of
    # W(deltaC) counted one by one
    ic = make_ic(t, iso, tw)
    wg = ic.weyl
    table = twisted_involutions(ic)
    closures = {}

    def closure(simples):
        if simples not in closures:
            closures[simples] = len(perm_closure(
                [wg.reflection_perm(i) for i in simples], len(ic.rd.roots)))
        return closures[simples]

    for tau in table.elements:
        cls = table.classification(tau.index)
        ref = reference_classification(tau, ic.rd)
        assert cls.im_order == closure(ref["im_simples"])
        assert cls.re_order == closure(ref["re_simples"])
        members = cartan_classes(ic)[cartan_index(ic)[tau.index]].members
        assert len(members) * cls.im_order * cls.re_order \
            * reference_complex_fixed(ic, tau) == wg.order()


def test_a_wrong_weyl_group_order_raises(monkeypatch):
    # in the swap class of A1 x A1 every root is complex and the class of
    # delta holds 2 taus, so |W| = 5 leaves a remainder
    monkeypatch.setattr(WeylGroup, "order", lambda self: 5)
    ic = inner_class_from_perm(from_type("A1.A1", "sc"), (1, 0))
    with pytest.raises(WeylError, match="not divisible"):
        real_weyl(enumerate_X(ic)[0])


def test_a_set_that_is_not_a_positive_subsystem_raises():
    # in A2, alpha_1 pairs to 3 with the coroots of alpha_1 and alpha_1 +
    # alpha_2; with alpha_2 added the heights are 1, 2 and 1
    rd = from_type("A2", "sc")
    a1, a2 = rd.simple_indices()
    a12 = rd.index_of(tuple(map(add, rd.roots[a1], rd.roots[a2])))
    assert subsystem_heights(rd, (a1, a12, a2)) == (1, 2, 1)
    assert subsystem_order(subsystem_heights(rd, (a1, a12, a2))) == 6
    with pytest.raises(WeylError, match="not the positive roots"):
        subsystem_heights(rd, (a1, a12))


# ---------------------------------------------------------------------------
# root permutations against lattice matrices


WEYL_DATA = sorted({(t, iso) for t, iso, _ in GRID}) + [("A1.T1", "sc")]


@st.composite
def weyl_words(draw):
    t, iso = draw(st.sampled_from(WEYL_DATA))
    wg = make_ic(t, iso).weyl
    letters = st.integers(0, wg.rd.n_simple - 1)
    return (wg, tuple(draw(st.lists(letters, max_size=12))),
            tuple(draw(st.lists(letters, max_size=12))))


def word_matrix(wg, word):
    """The product of the simple reflection matrices along word."""
    n = wg.rd.rank
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in word:
        m = mat_mul(m, simple_reflection(wg.rd, i))
    return m


@settings(max_examples=400, deadline=None)
@given(weyl_words())
def test_permutations_agree_with_matrices(data):
    wg, u, v = data
    rd = wg.rd
    a, b = from_word(wg, u), from_word(wg, v)
    ma, mb = word_matrix(wg, u), word_matrix(wg, v)
    ma_inv = word_matrix(wg, reversed(u))
    assert a.mat == ma and b.mat == mb and inverse_matrix(a) == ma_inv
    for r, root in enumerate(rd.roots):
        assert rd.roots[a.perm[r]] == mat_apply(ma, root)
    ab = mult(wg, a, b)
    assert ab.mat == mat_mul(ma, mb)
    assert ab == from_word(wg, u + v)
    assert wg.inverse(a).mat == ma_inv
    assert mult(wg, a, wg.inverse(a)) == wg.identity
    for i, a_i in enumerate(rd.simple_roots):
        right = root_is_negative(rd, mat_apply(ma, a_i))
        left = root_is_negative(rd, mat_apply(ma_inv, a_i))
        assert right == (a.perm[wg.simple_idx[i]] < wg.n_pos)
        assert left == (a.inv_perm[wg.simple_idx[i]] < wg.n_pos)
        assert right == (mult(wg, a, wg.simple(i)).length < a.length)
        assert left == (mult(wg, wg.simple(i), a).length < a.length)
    assert a.word == matrix_canonical_word(wg, ma, ma_inv)
    assert from_matrix(wg, ma) == a


def matrix_datum():
    """A3 on the lattice {a w1 + b w2 + c w3 : a + c even}, strictly
    between the root and weight lattices, entered in the CLI matrix
    mode."""
    session = Session(io.StringIO())
    session.run(io.StringIO("type A3 matrix\n1,0,1;0,1,0;2,0,0\n"))
    return session.rd


@pytest.mark.parametrize("t,iso", WEYL_DATA + [
    ("E6", "sc"), ("A2.T1", "sc"), ("A3", "matrix")])
def test_reflection_perm_matches_the_lattice_formula(t, iso):
    # every pair of roots: s_r(b) = b - <b, alpha_r^v> alpha_r, including
    # the roots b orthogonal to alpha_r^v that reflection_perm keeps
    rd = matrix_datum() if iso == "matrix" else from_type(t, iso)
    wg = WeylGroup(rd)
    for r in range(len(rd.roots)):
        assert wg.reflection_perm(r) == reference_reflection_perm(rd, r)
    if iso == "matrix":
        assert rd.rank == 3 and rd.n_pos == 6
        assert rd != from_type(t, "sc") and rd != from_type(t, "ad")


def involution_table_digest(ic):
    """sha256 of a twisted-involution table: words, lengths, cross and
    Cayley links, Cartan classes."""
    tbl = twisted_involutions(ic)
    h = hashlib.sha256()
    h.update(repr([(t.w.word, t.length) for t in tbl.elements]).encode())
    h.update(repr([tuple(r) for r in tbl.cross]).encode())
    h.update(repr([tuple(r) for r in tbl.cayley]).encode())
    h.update(repr(tuple(cartan_index(ic))).encode())
    return h.hexdigest()


# frozen from the tables built on lattice matrices; the B5, E6 and
# twisted D4, D5 and E6 rows from the two-pass permutation table that
# the single level-by-level pass replaced
INVOLUTION_DIGESTS = [
    ("A5", "c", 76,
     "c9a5e9bb2fde93ecf737261f6cb4a9f1b1a6603a41cfd8f86dc837836e028c07"),
    ("C5", "c", 312,
     "8cd3432caeb303238b6b6bac1ef8a5d9ad59fcc828c9a86a3e83f2bc76d68d74"),
    ("D4", "c", 44,
     "a189de786d226f983d7a1cc9383889531bc8613410dbe4285608f8321aa2cfb0"),
    ("F4", "c", 140,
     "5845fe0ff831da46e0dae91fcae6a85d7657b9a7b2decf45cc024f2256710f66"),
    ("A4", (3, 2, 1, 0), 26,
     "f6daa0cfbc389f93402f6cc44aec4052435d8e554be9cca77c60c02bd13596d0"),
    ("B5", "c", 312,
     "8cd3432caeb303238b6b6bac1ef8a5d9ad59fcc828c9a86a3e83f2bc76d68d74"),
    ("E6", "c", 892,
     "993be4d1ccd99ae96cabf019a69d8c72b2d5083985c560d3b4212aa8c35ea0f7"),
    ("E6", (5, 1, 4, 3, 2, 0), 892,
     "8e09f6e0f98fd9c5c5ceb9ad3253bd1c9e2c94c58acdca4cba44f0e2173ea883"),
    ("D4", (0, 1, 3, 2), 32,
     "f8ec620b92cb08569d7a8a59e301fc4c900bded622855c960a09a8652249ae60"),
    ("D5", (0, 1, 2, 4, 3), 156,
     "804b40719455feec336798986c71e723cbdd011a6d2036a2c059d9003e55a322"),
]


@pytest.mark.parametrize("t,tw,size,digest", INVOLUTION_DIGESTS)
def test_involution_tables_are_frozen(t, tw, size, digest):
    ic = make_ic(t, "sc", tw)
    assert len(twisted_involutions(ic)) == size
    assert involution_table_digest(ic) == digest
