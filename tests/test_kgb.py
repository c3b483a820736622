"""The one-sided space X: goldens, moves, real Weyl groups, reduced
space, and whole-space properties."""

import fractions
import hashlib
import io
import random
import re
import sys
from fractions import Fraction
from math import factorial

import pytest

import liepar.fiber
import liepar.intlinalg
import liepar.kgb
import liepar.zspace
from conftest import GRID, GRID_IDS, make_ic
from liepar import (NoMatch, NotImaginary, RatVecModZ, TitsGroup,
                    TorusSignature, WeylError, cartan_classes,
                    central_fixed_points, count_z_blocks, cross,
                    cross_by_word, enumerate_form, enumerate_X, fiber_space,
                    from_type, grading, inner_class_from_perm,
                    langlands_count, real_weyl, strong_real_forms,
                    theta_matrix, trivial_inner_class, twisted_involutions)
from liepar.cli import Session
from liepar.fiber import _reflect_rows, _twice_nu, fiber_frame
from liepar.intlinalg import identity, mat_add, mat_apply, mat_mul
from liepar.kgb import _delta_signs, _move_map
from liepar.weyl import RootClassification, cartan_index
from props import (MoveRecord, RankOne, all_elements, cartans_for,
                   cayley_down, cayley_down_ids, check_cayley_roundtrip,
                   check_cross_action, check_cross_involutive,
                   check_fiber_power_two, check_form_partition,
                   check_grading_transfer, check_projection_surjective,
                   derived_generation_log, is_positive, nu_tau,
                   per_tau_torus_coord, reduced_space, reference_base_grading,
                   reference_canonical_form, reference_complex_fixed,
                   reference_delta_signs, reference_fiber, reference_forms,
                   reference_real_weyl, root_is_negative, signature_count,
                   simple_reflection)


def rv(*entries):
    return RatVecModZ.reduce([Fraction(e) for e in entries])


# ---------------------------------------------------------------------------
# decorated-graph isomorphism of KGB tables


ROW_RE = re.compile(r"^(\d+): (\d+) (\d+) \[([^\]]*)\] (.*)$")


def parse_rows(lines):
    rows = {}
    for line in lines:
        m = ROW_RE.match(line.strip())
        assert m, line
        i = int(m.group(1))
        status = tuple(m.group(4).split(","))
        k = len(status)
        rest = m.group(5).split()
        cross_ids = tuple(int(x) for x in rest[:k])
        cayley_ids = tuple(None if x == "*" else int(x)
                           for x in rest[k:2 * k])
        word = rest[2 * k] if len(rest) > 2 * k else "e"
        rows[i] = dict(length=int(m.group(2)), cartan=int(m.group(3)),
                       status=status, cross=cross_ids, cayley=cayley_ids,
                       word=word)
    return rows


def decoration(row):
    return (row["length"], row["cartan"], row["status"], row["word"])


def tables_isomorphic(lines_a, lines_b):
    """Is there a bijection matching every decoration and every cross /
    Cayley edge?"""
    a, b = parse_rows(lines_a), parse_rows(lines_b)
    if len(a) != len(b):
        return False
    if sorted(map(decoration, a.values())) != \
            sorted(map(decoration, b.values())):
        return False
    order = sorted(a)
    phi = {}

    def extend(pos):
        if pos == len(order):
            return True
        i = order[pos]
        used = set(phi.values())
        for j in b:
            if j in used or decoration(a[i]) != decoration(b[j]):
                continue
            ok = True
            for s in range(len(a[i]["status"])):
                ia, ib = a[i]["cross"][s], b[j]["cross"][s]
                if ia in phi and phi[ia] != ib:
                    ok = False
                    break
                ca, cb = a[i]["cayley"][s], b[j]["cayley"][s]
                if (ca is None) != (cb is None):
                    ok = False
                    break
                if ca is not None and ca in phi and phi[ca] != cb:
                    ok = False
                    break
            if not ok:
                continue
            phi[i] = j
            if extend(pos + 1):
                return True
            del phi[i]
        return False

    if not extend(0):
        return False
    # full edge check under the found bijection
    for i, row in a.items():
        for s in range(len(row["status"])):
            if phi[row["cross"][s]] != b[phi[i]]["cross"][s]:
                return False
            ca = row["cayley"][s]
            cb = b[phi[i]]["cayley"][s]
            if (ca is None) != (cb is None):
                return False
            if ca is not None and phi[ca] != cb:
                return False
    return True


# published 11-row listing for the split symplectic form in rank 2
SP4_SPLIT_ROWS = [
    "0: 0 0 [n,n] 1 2 6 4 e",
    "1: 0 0 [n,n] 0 3 6 5 e",
    "2: 0 0 [c,n] 2 0 * 4 e",
    "3: 0 0 [c,n] 3 1 * 5 e",
    "4: 1 2 [C,r] 8 4 * * 2",
    "5: 1 2 [C,r] 9 5 * * 2",
    "6: 1 1 [r,C] 6 7 * * 1",
    "7: 2 1 [n,C] 7 6 10 * 2,1,2",
    "8: 2 2 [C,n] 4 9 * 10 1,2,1",
    "9: 2 2 [C,n] 5 8 * 10 1,2,1",
    "10: 3 3 [r,r] 10 10 * * 1,2,1,2",
]

# published 4-row listing for the quaternionic form in rank 2
SP11_ROWS = [
    "0: 0 0 [n,c] 1 0 2 * e",
    "1: 0 0 [n,c] 0 1 2 * e",
    "2: 1 1 [r,C] 2 3 * * 1",
    "3: 2 1 [c,C] 3 2 * * 2,1,2",
]


# ---------------------------------------------------------------------------
# goldens


def test_sl2_table():
    ic = make_ic("A1", "sc")
    table = enumerate_X(ic)
    assert len(table) == 5
    assert table.lines() == [
        "0: 0 0 [c] 0 * e",
        "1: 0 0 [c] 1 * e",
        "2: 0 0 [n] 3 4 e",
        "3: 0 0 [n] 2 4 e",
        "4: 1 1 [r] 4 * 1",
    ]
    assert [x.torus_coord for x in table] == \
        [rv(0), rv("1/2"), rv("1/4"), rv("3/4"), rv(0)]
    assert [x.square for x in table] == \
        [rv(0), rv(0), rv("1/2"), rv("1/2"), rv("1/2")]
    forms = strong_real_forms(ic)
    assert sorted(len(f.element_ids) for f in forms) == [1, 1, 3]
    assert [f.quasisplit for f in forms] == [False, False, True]
    assert [real_weyl(x).total for x in table] == [2, 2, 1, 1, 2]


def test_pgl2_table():
    ic = make_ic("A1", "ad")
    table = enumerate_X(ic)
    assert len(table) == 3
    assert [x.torus_coord for x in table] == \
        [rv(0), rv("1/2"), rv(0)]
    forms = strong_real_forms(ic)
    assert sorted(len(f.element_ids) for f in forms) == [1, 2]
    assert [real_weyl(x).total for x in table] == [2, 2, 2]


def test_sp4_forms_and_tables():
    ic = make_ic("C2", "sc")
    table = enumerate_X(ic)
    assert len(table) == 17
    forms = strong_real_forms(ic)
    assert [len(f.element_ids) for f in forms] == [1, 4, 1, 11]
    assert [f.quasisplit for f in forms] == [False, False, False, True]
    split = enumerate_form(ic, table[forms[3].element_ids[0]])
    assert tables_isomorphic(split.lines(), SP4_SPLIT_ROWS)
    quat = enumerate_form(ic, table[forms[1].element_ids[0]])
    assert tables_isomorphic(quat.lines(), SP11_ROWS)
    # row multisets match exactly
    def multiset(lines):
        return sorted(decoration(r) for r in parse_rows(lines).values())
    assert multiset(split.lines()) == multiset(SP4_SPLIT_ROWS)
    assert multiset(quat.lines()) == multiset(SP11_ROWS)


def test_enumerate_form_checks_the_inner_class():
    assert NoMatch is liepar.kgb.NoMatch is liepar.zspace.NoMatch
    x0 = enumerate_X(make_ic("C2", "sc"))[0]
    with pytest.raises(NoMatch):
        enumerate_form(trivial_inner_class(from_type("A2", "sc")), x0)
    # an equal class, built apart, gives the form of x0
    again = trivial_inner_class(from_type("C2", "sc"))
    assert enumerate_form(again, x0).lines() == \
        enumerate_form(x0.table.ic, x0).lines() == ["0: 0 0 [c,c] 0 0 * * e"]


def test_iso_rejects_wrong_graph():
    bad = list(SP11_ROWS)
    bad[3] = "3: 2 1 [n,C] 3 2 * * 2,1,2"   # wrong status decoration
    assert not tables_isomorphic(SP11_ROWS, bad)
    bad2 = list(SP11_ROWS)
    bad2[0] = "0: 0 0 [n,c] 0 1 2 * e"      # wrong cross edge
    bad2[1] = "1: 0 0 [n,c] 1 0 2 * e"
    assert not tables_isomorphic(SP11_ROWS, bad2)


def test_sl3_twisted_table():
    # the unequal-rank inner class of type A2: one strong real form, the
    # split group; four elements, one per twisted involution
    ic = make_ic("A2", "sc", (1, 0))
    table = enumerate_X(ic)
    assert table.lines() == [
        "0: 0 0 [C,C] 1 2 * * e",
        "1: 1 0 [C,n] 0 1 * 3 1,2",
        "2: 1 0 [n,C] 2 0 3 * 2,1",
        "3: 2 1 [r,r] 3 3 * * 1,2,1",
    ]
    forms = strong_real_forms(ic)
    assert len(forms) == 1 and forms[0].quasisplit


def test_real_weyl_structure():
    ic = make_ic("C2", "sc")
    table = enumerate_X(ic)
    # a quaternionic length-0 element: its cross orbit in the base fiber
    # has size 2, so the stabilizer has index 2 in the imaginary Weyl
    # group of order 8
    forms = strong_real_forms(ic)
    x = table[forms[1].element_ids[0]]
    info = real_weyl(x)
    assert info.imaginary_order == 8
    assert info.orbit_size == 2
    assert info.stab_imaginary == 4
    assert info.total == 4
    # split form: the split Cartan sees the whole Weyl group
    split_top = max((table[i] for i in forms[3].element_ids),
                    key=lambda y: y.length)
    info2 = real_weyl(split_top)
    assert info2.total == info2.real_order == 8


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_real_weyl_brute_force(t, iso, tw):
    ic = make_ic(t, iso, tw)
    table = enumerate_X(ic)
    elements = all_elements(ic.weyl)
    for x in table:
        brute = sum(1 for w in elements if cross_by_word(w.word, x) == x)
        assert brute == real_weyl(x).total


@pytest.mark.parametrize("t,iso,tw", GRID + [("F4", "sc", "c"),
                                              ("D4", "sc", (0, 1, 3, 2))],
                         ids=GRID_IDS + ["F4-sc-c", "D4-sc-u"])
def test_real_weyl_matches_the_enumerating_route(t, iso, tw):
    table = enumerate_X(make_ic(t, iso, tw))
    for x in table:
        assert real_weyl(x) == reference_real_weyl(x)


def test_real_weyl_of_the_compact_e6_element():
    # element 0 of E6 sc lies over delta, where every root is imaginary
    # and W_i is all of W
    info = real_weyl(enumerate_X(make_ic("E6", "sc"))[0])
    assert info.total == info.imaginary_order == 51840


def test_cartans_for_split_sp4():
    ic = make_ic("C2", "sc")
    table = enumerate_X(ic)
    forms = strong_real_forms(ic)
    got = cartans_for(table[forms[3].element_ids[0]])
    assert got == ((0, TorusSignature(0, 2, 0)),
                   (1, TorusSignature(0, 0, 1)),
                   (2, TorusSignature(1, 1, 0)),
                   (3, TorusSignature(2, 0, 0)))
    # the quaternionic form misses the split Cartan
    got1 = cartans_for(table[forms[1].element_ids[0]])
    assert [c for c, _ in got1] == [0, 1]


def test_reduced_space_sl2():
    rs = reduced_space(make_ic("A1", "sc"))
    assert rs.z0 == (rv(0), rv("1/2"))
    assert rs.slices[rv(0)] == (0, 1)
    assert rs.slices[rv("1/2")] == (2, 3, 4)


def test_reduced_space_pgl2():
    rs = reduced_space(make_ic("A1", "ad"))
    assert rs.z0 == (rv(0),)
    assert rs.slices[rv(0)] == (0, 1, 2)


def test_a_slice_of_the_table_is_the_tuple_of_its_views():
    # a slice raised "list indices must be integers or slices, not range"
    table = enumerate_X(make_ic("C2", "sc"))
    assert table[1:3] == (table[1], table[2])
    assert table[::-1][0] == table[-1]
    assert table[::-1] == tuple(reversed(table))
    assert table[5:2] == ()
    assert table[:] == tuple(table)
    with pytest.raises(TypeError):
        table["1"]


def test_the_readme_point_operations_example():
    # the C2 sc example of README.md, with the values its comments name
    table = enumerate_X(make_ic("C2", "sc"))
    x = table[5]
    assert x.status == ('c', 'n')
    assert cross(0, x) == x
    assert x.cayley == (None, 10)
    y = table[x.cayley[1]]
    assert y == table[10] and y.status[1] == 'r'
    assert cross_by_word((1, 0), x) == cross(1, cross(0, x))
    assert grading(x, 5) == 0


def test_form_of_reads_the_partition():
    ic = make_ic("C2", "sc")
    table = enumerate_X(ic)
    assert strong_real_forms(ic) is table.forms is strong_real_forms(ic)
    for f, form in enumerate(table.forms):
        assert form.index == f
        for i in form.element_ids:
            assert table.form_of(i) == f
    for bad in (len(table), -1):
        with pytest.raises(KeyError):
            table.form_of(bad)


def test_move_errors():
    table = enumerate_X(make_ic("A1", "sc"))
    compact, noncpt, split = table[0], table[2], table[4]
    # a compact root has no Cayley transform, and no element has one
    # onto a compact element
    assert compact.cayley[0] is None
    with pytest.raises(WeylError, match="0 Cayley preimages"):
        cayley_down(0, compact)
    with pytest.raises(NotImaginary):
        grading(split, 0)
    assert grading(noncpt, 0) == 1
    assert grading(compact, 0) == 0
    # grading accepts the negative root too
    rd = table.ic.rd
    assert grading(compact, rd.negative_of(0)) == 0
    assert cayley_down(0, split) == (table[2], table[3])


def test_grading_of_a_root_out_of_range_is_an_error():
    # 8 and 100 raised a bare IndexError, and -1 was read from the end of
    # the root list
    x = enumerate_X(make_ic("C2", "sc"))[0]
    for r in (8, 100, -1):
        with pytest.raises(WeylError, match=r"not in 0\.\.7"):
            grading(x, r)


def test_a_form_out_of_range_is_an_error():
    # -1 returned the table of the last form
    table = enumerate_X(make_ic("C2", "sc"))
    assert len(table.forms) == 4
    for f in (-1, 4):
        with pytest.raises(KeyError):
            table.form_table(f)


def test_a_letter_out_of_range_is_an_error():
    # a letter outside 0..k-1 read another element's cross slot, and -1
    # acted as the last simple root
    table = enumerate_X(make_ic("C2", "sc"))
    x = table[3]
    for call in (lambda: cross_by_word((2,), x),
                 lambda: cross_by_word((-1,), x),
                 lambda: cross_by_word((0, 1, 2), x),
                 lambda: cross(-1, x), lambda: cross(2, x)):
        with pytest.raises(WeylError, match=r"not in 0\.\.1"):
            call()
    assert cross_by_word((1,), x) == cross(1, x)


def test_restricted_squares():
    ic = make_ic("A1", "sc")
    table = enumerate_X(ic, squares=[rv("1/2")])
    assert len(table) == 3
    with pytest.raises(ValueError):
        enumerate_X(ic, squares=[rv("1/3")])


def test_a_repeated_square_is_counted_once():
    # the slice over a set of squares is the same however often a square
    # is listed; both squares of SL(2) once broke the search
    ic = make_ic("A1", "sc")
    squares = central_fixed_points(ic)
    for z in squares:
        once = enumerate_X(ic, squares=[z])
        twice = enumerate_X(ic, squares=[z, z])
        assert twice.squares == (z,)
        assert table_digest(twice) == table_digest(once)
    both = enumerate_X(ic, squares=squares[::-1] + squares)
    assert table_digest(both) == table_digest(enumerate_X(ic))


def test_lengths_monotone_and_seeded_at_zero():
    for t, iso, tw in GRID:
        table = enumerate_X(make_ic(t, iso, tw))
        lengths = [x.length for x in table]
        assert lengths == sorted(lengths)
        assert lengths[0] == 0


# ---------------------------------------------------------------------------
# an independent route to every move: fold the Tits lift letter by letter
# on lattice matrices, shift lambda by a Fraction vector and take the
# fiber's canonical form


def matrix_fold(ic, mat, inv, t, word):
    """sigma_w x_t times the simple lifts along word, on the action
    matrices of w: sigma_w x_t sigma_i = sigma_{w s_i} x_{s_i(t) (+ m_i)},
    with m_i added exactly when w(alpha_i) < 0."""
    rd = ic.rd
    for i in word:
        s = simple_reflection(rd, i)
        descent = root_is_negative(rd, mat_apply(mat, rd.simple_roots[i]))
        t = tuple(a % 2 for a in mat_apply(tuple(zip(*s)), t))
        if descent:
            t = tuple((a + b) % 2 for a, b in zip(t, rd.simple_coroots[i]))
        mat = mat_mul(mat, s)
        inv = mat_mul(s, inv)
    return mat, inv, t


def reference_move(x, s, cayley):
    """(tau index, torus coordinate, grading dict) of the cross action
    of sigma_s on x, or of the Cayley transform in alpha_s."""
    ic = x.table.ic
    rd = ic.rd
    tbl = twisted_involutions(ic)
    smat = simple_reflection(rd, s)
    word = x.tau.w.word if cayley else x.tau.w.word + (ic.diagram_perm[s],)
    mat, inv, t = matrix_fold(ic, smat, smat, (0,) * rd.rank, word)
    if not cayley:
        gs = ic.diagram_perm[s]
        t = tuple((a + b) % 2 for a, b in zip(t, rd.simple_coroots[gs]))
    by_theta = {tau.theta_X: tau.index for tau in tbl.elements}
    tau2 = tbl.elements[by_theta[mat_mul(mat, ic.gamma)]]
    lam = mat_apply(tuple(zip(*smat)),
                    [Fraction(a) for a in x.torus_coord.entries])
    shift = mat_apply(tuple(zip(*inv)), [Fraction(a, 2) for a in t])
    lam2 = reference_canonical_form(fiber_space(tau2, ic),
                                    [a + b for a, b in zip(lam, shift)])
    g2 = {}
    for b, g in x.grading:
        if cayley:
            if sum(p * q for p, q in zip(rd.roots[b],
                                         rd.simple_coroots[s])) == 0:
                flip = tuple(p + q for p, q in zip(rd.simple_roots[s],
                                                   rd.roots[b]))
                g2[b] = g ^ (flip in rd.root_index)
        else:
            img = rd.index_of(mat_apply(smat, rd.roots[b]))
            g2[img if is_positive(rd, img) else rd.negative_of(img)] = g
    return tau2.index, lam2, g2


MOVE_ORACLE_GROUPS = [("C2", "sc", "c"), ("G2", "sc", "c"),
                      ("B3", "sc", "c"), ("A3", "sc", (2, 1, 0)),
                      ("A4", "sc", (3, 2, 1, 0))]


def test_move_table_checks_the_involution_table():
    ic = trivial_inner_class(from_type("A1", "sc"))
    tbl = twisted_involutions(ic)
    tbl.cayley[0] = (0,)        # the Cayley transform of delta is tau 1
    with pytest.raises(WeylError, match="disagrees with the involution"):
        enumerate_X(ic)


def test_square_check_covers_every_element():
    # a wrong nu over tau 1 changes the square of element 4 alone, which
    # the search reaches by a Cayley transform and never by a fiber solve
    ic = trivial_inner_class(from_type("A1", "sc"))
    fs = fiber_space(twisted_involutions(ic).elements[1], ic)
    fs._twice_nu = (fs._twice_nu[0] + 1,)
    with pytest.raises(WeylError,
                       match="square of element 4 does not recompute"):
        enumerate_X(ic)


def test_cross_moves_check_the_involution_table(monkeypatch):
    # a Tits product whose Weyl part is not the table's cross target:
    # the search reads tau2 from the table and compares the two
    conjugate = TitsGroup.conjugate_simple

    def corrupted(self, s, w, r=None):
        perm, u = conjugate(self, s, w, r)
        if (s, w.word, r) == (1, (), 1):
            perm = self.weyl.simple_perms[1]
        return perm, u

    monkeypatch.setattr(TitsGroup, "conjugate_simple", corrupted)
    with pytest.raises(WeylError,
                       match="cross action disagrees with the involution"):
        enumerate_X(fresh_ic("C2", "c"))


def test_cross_grading_map_checks_both_lengths():
    # a cross target that has lost its imaginary roots: every root it
    # keeps is found, so only the length check catches it
    ic = fresh_ic("C2", "c")
    tbl = twisted_involutions(ic)
    t, s = next((t, s) for t in range(len(tbl)) for s in range(2)
                if tbl.cross[t][s] != t and tbl.classification(t).im_pos)
    t2 = tbl.cross[t][s]
    cls = tbl.classification(t2)
    tbl._classification[t2] = RootClassification(cls.theta, (), cls.weyl)
    with pytest.raises(WeylError,
                       match="cross action misses an imaginary root"):
        _move_map(ic, t, s, False, 2)


def test_search_checks_that_the_cross_action_is_an_involution(monkeypatch):
    # elements 0 and 1 of SL(2) x SL(2) lie over delta with the same
    # square and grading; a cross move by s = 0 that sends the whole
    # distinguished fiber to the image of element 0 passes the duplicate
    # check and must be caught by the involution check
    true = enumerate_X(make_ic("A1.A1", "sc"))
    x0, x1 = true[0], true[1]
    assert (x0.tau, x0.square, x0.grading) == (x1.tau, x1.square, x1.grading)
    target = true[x0.cross[0]].coords
    tabulated = liepar.kgb._move_map

    def corrupted(ic, tau_idx, s, cayley, denom):
        move = MoveRecord(*tabulated(ic, tau_idx, s, cayley, denom))
        if (tau_idx, s, cayley) == (0, 0, False):
            move = move._replace(rows=((0,) * ic.rank,) * ic.rank,
                                 offset=target, rank_one=None)
        return move

    monkeypatch.setattr(liepar.kgb, "_move_map", corrupted)
    with pytest.raises(WeylError, match="cross action is not an involution"):
        enumerate_X(fresh_ic("A1.A1", "c"))


@pytest.mark.parametrize("t,s,corrupt", [
    # the offset shifted onto another square: element 0 lands on element
    # 4, which lies over a different square
    ("A1.A1", 0, dict(offset=(0, 1))),
    # c and the offset zero: the move fixes every element, and element 4,
    # whose grading s does not fix, fails the self-link's grading check
    ("C2", 1, dict(offset=(0, 0), c=(0, 0)))])
def test_search_checks_a_corrupted_rank_one_move(t, s, corrupt, monkeypatch):
    # the loop table (tau 0, s) is corrupted before any element reads it,
    # so the memo of self-links is formed from the corrupted c and offset
    tabulated = liepar.kgb._move_map

    def corrupted(ic, tau_idx, s2, cayley, denom):
        move = MoveRecord(*tabulated(ic, tau_idx, s2, cayley, denom))
        if (tau_idx, s2, cayley) == (0, s, False):
            rank_one = RankOne(*move.rank_one)
            move = move._replace(
                offset=corrupt["offset"],
                rank_one=rank_one._replace(c=corrupt.get("c", rank_one.c)))
        return move

    monkeypatch.setattr(liepar.kgb, "_move_map", corrupted)
    with pytest.raises(WeylError, match="inconsistent duplicate element"):
        enumerate_X(fresh_ic(t, "c"))


@pytest.mark.parametrize("t,iso,tw", MOVE_ORACLE_GROUPS)
def test_moves_match_the_reference_route(t, iso, tw):
    table = enumerate_X(make_ic(t, iso, tw))
    moves = 0
    for x in table:
        for s in range(len(x.status)):
            targets = [(False, x.cross[s])]
            if x.status[s] == 'n':
                targets.append((True, x.cayley[s]))
            else:
                assert x.cayley[s] is None
            for cayley, j in targets:
                y = table[j]
                assert reference_move(x, s, cayley) == \
                    (y.tau.index, y.torus_coord, y.grading_map)
                moves += 1
    assert moves > len(table)


@pytest.mark.parametrize("t,iso,tw", MOVE_ORACLE_GROUPS + [
    ("B3", "ad", "c"), ("D5", "ad", (0, 1, 2, 4, 3))])
def test_which_cross_actions_fix_an_element(t, iso, tw):
    # read off the links, however the moves are computed: a compact
    # imaginary or real simple root fixes every element, a complex one
    # none, and a noncompact one fixes x exactly when x's Cayley image
    # has one Cayley-down preimage (type II), two when it moves x (type I)
    table = enumerate_X(make_ic(t, iso, tw))
    seen = set()
    for x in table:
        for s, kind in enumerate(x.status):
            fixed = x.cross[s] == x.id
            if kind == 'n':
                downs = cayley_down_ids(table, s, x.cayley[s])
                assert len(downs) == (1 if fixed else 2)
                kind += "II" if fixed else "I"
            else:
                assert fixed == (kind != 'C')
            seen.add(kind)
    # twisted A4 meets no compact and no type I simple root
    assert seen == ({'C', 'r', 'nII'} if t == "A4"
                    else {'C', 'c', 'r', 'nI', 'nII'})


# frames: each tau's fiber basis is its Cartan class representative's
# Smith form carried along a spanning tree of cross edges

FRAME_GROUPS = [("C2", "c"), ("G2", "c"), ("B3", "c"), ("A3", (2, 1, 0)),
                ("A4", (3, 2, 1, 0)), ("D4", (0, 1, 3, 2))]


def fresh_ic(t, tw, iso="sc"):
    rd = from_type(t, iso)
    return trivial_inner_class(rd) if tw == "c" \
        else inner_class_from_perm(rd, tw)


@pytest.mark.parametrize("t,tw", FRAME_GROUPS)
def test_frames_carry_the_representative_smith_form(t, tw):
    ic = make_ic(t, "sc", tw)
    table = enumerate_X(ic)
    tbl = twisted_involutions(ic)
    n = ic.rank
    ident = identity(n)
    reps = {c.rep for c in cartan_classes(ic)}
    for tau in tbl.elements:
        fr = fiber_frame(ic, tau.index)
        assert mat_mul(fr.v, fr.vinv) == ident
        square = mat_mul(mat_add(ident, theta_matrix(tau, ic)), fr.v)
        assert square == fr.square
        assert fr.kernel == tuple(j for j, col in enumerate(zip(*square))
                                  if not any(col))
        assert fr.twice_nu == tuple(2 * x for x in nu_tau(tau, ic))
        if tau.index in reps:
            assert fr.parent is None
            assert fr.v == fiber_space(tau, ic)._v
            continue
        p, s = fr.parent
        assert tbl.cross[p][s] == tau.index
        assert cartan_index(ic)[p] == cartan_index(ic)[tau.index]
        # a tree edge is a translation in both directions: S_s V_p = V_tau
        # with the same kernel, so M = V_tau^-1 S_s V_p is the identity
        fp = fiber_frame(ic, p)
        assert _reflect_rows(fp.v, ic.rd.simple_roots[s],
                             ic.rd.simple_coroots[s]) == fr.v
        assert fp.kernel == fr.kernel
        for a, b in ((p, tau.index), (tau.index, p)):
            move = MoveRecord(*_move_map(ic, a, s, False, table.denom))
            assert (move.target, move.rows) == (b, None)
    for x in table:
        assert x.torus_coord == per_tau_torus_coord(x)


@pytest.mark.parametrize("t,tw", FRAME_GROUPS + [("E6", "c")])
def test_cartan_class_sizes_are_the_closed_form(t, tw):
    # a class holds |W| / |W^theta| taus, and at its representative
    # |W^theta| = |W_i| |W_r| |W_C^theta|, the last counted in W(deltaC)
    ic = make_ic(t, "sc", tw)
    tbl = twisted_involutions(ic)
    order = ic.weyl.order()
    for c in cartan_classes(ic):
        cls = tbl.classification(c.rep)
        assert len(c.members) * cls.im_order * cls.re_order \
            * reference_complex_fixed(ic, tbl.elements[c.rep]) == order


def test_frames_do_not_depend_on_the_search_order():
    for t, tw in FRAME_GROUPS:
        ic = make_ic(t, "sc", tw)
        enumerate_X(ic)
        # a fresh inner class asked for its frames from the last tau back
        fresh = fresh_ic(t, tw)
        n = len(twisted_involutions(fresh))
        frames = [fiber_frame(fresh, i) for i in reversed(range(n))]
        assert frames[::-1] == [fiber_frame(ic, i) for i in range(n)]


@pytest.mark.parametrize("t,iso,tw", GRID + [("E6", "sc", "c"),
                                             ("D4", "sc", (0, 1, 3, 2))])
def test_carried_twice_nu_is_the_fold_along_w(t, iso, tw):
    ic = make_ic(t, iso, tw)
    for tau in twisted_involutions(ic).elements:
        assert fiber_frame(ic, tau.index).twice_nu == \
            tuple(x % 2 for x in _twice_nu(tau, ic))


@pytest.mark.parametrize("t,tw", [("C3", "c"), ("G2", "c"), ("B3", "c"),
                                  ("A3", (2, 1, 0)), ("D4", (0, 1, 3, 2))])
def test_one_smith_form_per_cartan_class(t, tw, monkeypatch):
    snf = liepar.intlinalg.smith_normal_form
    calls = []

    def counted(m):
        calls.append(m)
        return snf(m)

    for module in (liepar.intlinalg, liepar.fiber):
        monkeypatch.setattr(module, "smith_normal_form", counted)

    def prepared():
        # the inputs: both involution tables and their Cartan classes,
        # the central squares and the lattice matrices of both Weyl
        # groups (which take a Smith form of the Cartan matrix)
        ic = fresh_ic(t, tw)
        for side in (ic, ic.dual):
            cartan_classes(side)
            central_fixed_points(side)
            side.weyl.lattice_matrix(side.weyl.identity.perm)
        calls.clear()
        return ic

    ic = prepared()
    enumerate_X(ic)
    assert 0 < len(calls) <= len(cartan_classes(ic))
    ic = prepared()
    count_z_blocks(ic)
    # the Z count builds fibers on both sides, at most one per class each
    assert 0 < len(calls) <= len(cartan_classes(ic)) + \
        len(cartan_classes(ic.dual))
    for side in (ic, ic.dual):
        assert len(side._cache['fibers']) <= len(cartan_classes(side))


# the seeds against the Fraction route they replaced: translates in
# canonical form, the lex-least base point, Fraction pairings for the
# grading; A3 sc has center Z/4, so its fiber coordinates are mod 8
SEED_ORACLE_GROUPS = MOVE_ORACLE_GROUPS + [("A3", "sc", "c")]


@pytest.mark.parametrize("t,iso,tw", SEED_ORACLE_GROUPS)
def test_seeds_match_the_reference_route(t, iso, tw):
    ic = make_ic(t, iso, tw)
    table = enumerate_X(ic)
    expected = []
    for tau in twisted_involutions(ic).elements:
        fs = fiber_space(tau, ic)
        for z in table.squares:
            lams = reference_fiber(fs, z)
            assert fs.elements(z) == lams
            assert fs.solvable(z) == bool(lams)
            if tau.index == 0:
                expected += [(z, lam, reference_base_grading(ic, lam))
                             for lam in lams]
    seeds = [table[i] for i, _, move in derived_generation_log(table)
             if move == 'seed']
    assert [(x.square, x.torus_coord, tuple(g for _, g in x.grading))
            for x in seeds] == expected


# the delta signs read in the inner class itself against the simply
# connected companion route; twisted A_2n hold signs 1, and so do the
# partial twists that swap the two simple roots of an A2 factor
DELTA_SIGN_DATA = GRID + [
    (t, iso, tw) for t, tw in [("E6", "c"), ("E6", (5, 1, 4, 3, 2, 0)),
                               ("D4", (0, 1, 3, 2)), ("D5", (0, 1, 2, 4, 3)),
                               ("A4", (3, 2, 1, 0)), ("A5", (4, 3, 2, 1, 0)),
                               ("A6", (5, 4, 3, 2, 1, 0)),
                               ("A2.A2", (1, 0, 2, 3)),
                               ("A4.A1", (3, 2, 1, 0, 4)),
                               ("A2.A1.A2", (4, 3, 2, 1, 0))]
    for iso in ("sc", "ad")]


def counted_twists(monkeypatch):
    """The Tits elements TitsGroup.twist is called on."""
    twist = TitsGroup.twist
    calls = []

    def counted(self, a):
        calls.append(a)
        return twist(self, a)

    monkeypatch.setattr(TitsGroup, "twist", counted)
    return calls


def a2_pairs(ic):
    """The pairs i < j = gamma(i) of adjacent simple roots."""
    cartan = ic.rd.cartan_matrix
    return sum(1 for i, j in enumerate(ic.diagram_perm)
               if i < j and cartan[i][j])


@pytest.mark.parametrize("t,iso,tw", DELTA_SIGN_DATA)
def test_delta_signs_match_the_companion_route(t, iso, tw, monkeypatch):
    # the signs are read from the roots; the Tits group is read once per
    # A2 pair, to confirm the sign of its fold, and not on a trivial class
    ic = fresh_ic(t, tw, iso)
    calls = counted_twists(monkeypatch)
    signs = _delta_signs(ic)
    assert len(calls) == a2_pairs(ic)
    monkeypatch.undo()
    assert signs == reference_delta_signs(ic)
    assert (1 in signs.values()) == (a2_pairs(ic) > 0)


def test_a_wrong_sign_at_an_a2_fold_raises(monkeypatch):
    # delta sigma delta^-1 sigma^-1 is x_{m_beta} at the fold beta of
    # twisted A2; with m_beta read as 0 the Tits confirmation fails
    monkeypatch.setattr(TitsGroup, "m_alpha", lambda self, root_idx: self.zero)
    with pytest.raises(WeylError, match="A2 fold"):
        _delta_signs(fresh_ic("A2", (1, 0)))


def table_digest(table):
    """sha256 of a table's elements, generation log (derived from the
    links) and form partition."""
    h = hashlib.sha256()
    for x in table:
        h.update(repr((x.id, x.tau.index, x.torus_coord.entries, x.length,
                       x.square.entries, x.status, x.cross, x.cayley,
                       x.grading)).encode())
    h.update(repr(derived_generation_log(table)).encode())
    h.update(repr(sorted((f.index, f.element_ids)
                         for f in table.forms)).encode())
    return h.hexdigest()


# frozen from the Fraction-based search the integer fiber coordinates
# replaced; the groups of the x-ladder benchmark
LADDER_DIGESTS = [
    ("A5", "c", 1497,
     "e0f243e244fd21f298a3e53fc4d5dce906f728ca117d743fb05d26911c80c96d"),
    ("C4", "c", 277,
     "0aa4f558aca1945cd74171563278d1345030f117b90cd3d8ac9c37578359fbc9"),
    ("D4", "c", 341,
     "72206efac04fb37010d672490fa2a0b43acb7d365e216b5dd552c34ab71612ab"),
    ("F4", "c", 245,
     "4c5875f0eae3228f47e15987160eb667ae6094521a61deae207fd86d7315343a"),
    ("A4", (3, 2, 1, 0), 26,
     "92e2d07a26d2e8bdb2b3d7742a84654d79e89614c2984efa757a4465d167f3d5"),
]


@pytest.mark.parametrize("t,tw,size,digest", LADDER_DIGESTS)
def test_ladder_tables_are_frozen(t, tw, size, digest):
    table = enumerate_X(make_ic(t, "sc", tw))
    assert len(table) == size
    assert table_digest(table) == digest


@pytest.mark.parametrize("t,tw,size,digest", LADDER_DIGESTS)
def test_form_tables_keep_the_generation_log(t, tw, size, digest):
    # the table stores no generation log: the one derived from a form
    # table's links is the full table's, restricted to the form and
    # renumbered
    table = enumerate_X(make_ic(t, "sc", tw))
    assert 'generation_log' not in vars(table)
    full = derived_generation_log(table)
    for f in table.forms:
        remap = {old: new for new, old in enumerate(f.element_ids)}
        assert derived_generation_log(table.form_table(f.index)) == \
            tuple((remap[i], remap.get(src, -1), move)
                  for i, src, move in full if i in remap)


@pytest.mark.parametrize("t,tw,size,digest", LADDER_DIGESTS)
def test_search_and_forms_build_no_element_view(t, tw, size, digest,
                                                monkeypatch, tmp_path):
    # X is held as columns: the search, the strong real forms, the
    # reduced space and the CLI commands build no KGBElt past one per
    # element they are given or report on
    view = liepar.kgb.KGBElt
    built = []

    def counted(**fields):
        built.append(fields["id"])
        return view(**fields)

    monkeypatch.setattr(liepar.kgb, "KGBElt", counted)
    out = io.StringIO()
    session = Session(out)
    inner = "c" if tw == "c" else ",".join(str(p + 1) for p in tw)
    session.run([f"type {t} sc", f"inner {inner}"])
    ic = session.ic
    table = enumerate_X(ic)
    forms = strong_real_forms(ic)
    reduced = reduced_space(ic)
    assert built == []
    assert sum(len(f.element_ids) for f in forms) == size
    assert all(reduced.slices.values())
    # langlands_count reads the form record and the dual fibers: it
    # builds no view past x0 and no X of the dual class
    langlands_count(ic, table[forms[-1].element_ids[0]])
    assert built == [forms[-1].element_ids[0]]
    assert 'kgbtable' not in ic.dual._cache

    def views(line):
        built.clear()
        session.run([line])
        return len(built)

    dot = tmp_path / "x.dot"
    for line in ["X", "count-z", f"dot X {dot}"] \
            + [f"kgb {f.index}" for f in forms] \
            + [f"dot {f.index} {dot}" for f in forms]:
        assert views(line) == 0, line
    for k in {0, size // 2, size - 1}:
        assert views(f"realweyl {k}") <= 1
    for f in forms:
        n_classes = len(cartans_for(table[f.element_ids[0]]))
        assert views(f"block {f.index}") <= n_classes
    assert "error" not in out.getvalue()
    monkeypatch.undo()
    assert table_digest(table) == digest
    # an element of a table over one square leaves the full X unbuilt
    ic = fresh_ic(t, tw)
    part = enumerate_X(ic, squares=[forms[-1].square])
    langlands_count(ic, part[0])
    assert 'kgbtable' not in ic._cache
    assert 'kgbtable' not in ic.dual._cache


@pytest.mark.parametrize("t,tw,size,digest", LADDER_DIGESTS)
def test_the_search_forms_no_inverse_permutation(t, tw, size, digest):
    # conjugate_simple reads the sign of w^-1(alpha_s) off w's own
    # permutation: no tau holds an inverse because of the search
    ic = fresh_ic(t, tw)
    taus = twisted_involutions(ic).elements
    held = [tau.index for tau in taus if 'inv_perm' in tau.w.__dict__]
    assert len(enumerate_X(ic)) == size
    assert [tau.index for tau in taus
            if 'inv_perm' in tau.w.__dict__] == held


@pytest.mark.parametrize("t,tw,size,digest", LADDER_DIGESTS)
def test_a_ladder_search_twists_once_per_a2_pair(t, tw, size, digest,
                                                 monkeypatch):
    # the delta signs confirm each A2 fold in the Tits group; nothing
    # else of the search conjugates by delta
    calls = counted_twists(monkeypatch)
    ic = fresh_ic(t, tw)
    assert sum(map(len, (f.element_ids for f in strong_real_forms(ic)))) \
        == size
    assert len(calls) == a2_pairs(ic) == (tw != "c")


@pytest.mark.parametrize("t,tw,size,digest", LADDER_DIGESTS)
def test_root_types_are_read_from_theta(t, tw, size, digest):
    # the root types are read from each tau's theta: whatever is read of
    # X, the words of W_i are kept on the classification, not on the
    # inner class
    ic = fresh_ic(t, tw)
    table = enumerate_X(ic)
    forms = strong_real_forms(ic)
    assert len(table.lines()) == size
    assert table.dot().startswith("digraph")
    assert table_digest(table) == digest    # reads every view
    for f in forms:
        real_weyl(table[f.element_ids[-1]])
    assert 'imaginary_words' not in ic._cache


FORM_ORACLE_DATA = GRID + [(t, "sc", tw) for t, tw, _, _ in LADDER_DIGESTS] \
    + [("E6", "sc", "c")]


@pytest.mark.parametrize("t,iso,tw", FORM_ORACLE_DATA)
def test_forms_match_a_union_over_every_link(t, iso, tw):
    # the search joins components over the seeds only; the reference
    # joins them over every cross and Cayley link of the element views
    table = enumerate_X(make_ic(t, iso, tw))
    assert reference_forms(table) == \
        ({f.index: f.element_ids for f in table.forms},
         tuple(f.index for f in table.forms if f.quasisplit))


# form sizes past brute force: the clans of SU(p, q) (Matsuki-Oshima;
# Yamamoto 1997) and the count for Sp(p, q)

def su_clans(p, q):
    n = p + q
    return sum(factorial(n) // (factorial(k) * factorial(p - k)
                                * factorial(q - k) * 2 ** k)
               for k in range(min(p, q) + 1))


def sp_pq_count(p, q):
    n = p + q
    return sum(factorial(n) // (factorial(k) * factorial(p - k)
                                * factorial(q - k))
               for k in range(min(p, q) + 1))


def test_a7_form_sizes_are_the_su_clan_counts():
    ic = fresh_ic("A7", "c")
    sizes = {len(f.element_ids) for f in strong_real_forms(ic)}
    assert sizes == {su_clans(p, 8 - p) for p in range(9)} \
        == {1, 36, 406, 1736, 2835}


def test_c6_form_sizes_hold_the_sp_clan_counts():
    # the one size left is the split form Sp(12, R)
    ic = fresh_ic("C6", "c")
    sizes = {len(f.element_ids) for f in strong_real_forms(ic)}
    sp_pq = {sp_pq_count(p, 6 - p) for p in range(7)}
    assert sp_pq == {1, 36, 315, 680}
    assert sizes == sp_pq | {4899}


@pytest.mark.slow
def test_a8_form_sizes_are_the_su_clan_counts():
    ic = fresh_ic("A8", "c")
    sizes = {len(f.element_ids) for f in strong_real_forms(ic)}
    assert sizes == {su_clans(p, 9 - p) for p in range(10)} \
        == {1, 45, 666, 3990, 9891}


@pytest.mark.slow
def test_c7_form_sizes_hold_the_sp_clan_counts():
    # the one size left is the split form Sp(14, R)
    ic = fresh_ic("C7", "c")
    sizes = {len(f.element_ids) for f in strong_real_forms(ic)}
    sp_pq = {sp_pq_count(p, 7 - p) for p in range(8)}
    assert sp_pq == {1, 49, 651, 2555}
    assert split_sp_count(7) == 26253
    assert sizes == sp_pq | {split_sp_count(7)}


def split_sp_count(n):
    # sum over k of C(n, 2k) (2k - 1)!! 2^k 3^(n - 2k)
    return sum(factorial(n) // (factorial(2 * k) * factorial(n - 2 * k))
               * (factorial(2 * k) // (2 ** k * factorial(k))) * 2 ** k
               * 3 ** (n - 2 * k) for k in range(n // 2 + 1))


@pytest.mark.parametrize("n,size", [(1, 3), (2, 11), (3, 45), (4, 201),
                                    (5, 963), (6, 4899)])
def test_the_split_cn_form_has_the_closed_form_size(n, size):
    # the largest form of Cn sc is the quasisplit Sp(2n, R), listed last
    assert split_sp_count(n) == size
    forms = strong_real_forms(make_ic(f"C{n}", "sc"))
    assert [f.quasisplit for f in forms] == [False] * (len(forms) - 1) \
        + [True]
    assert max(len(f.element_ids) for f in forms) \
        == len(forms[-1].element_ids) == size


@pytest.mark.parametrize("t,iso,tw", GRID + [("E6", "sc", "c")],
                         ids=GRID_IDS + ["E6-sc-c"])
def test_x_over_a_quasisplit_square_is_the_signature_count(t, iso, tw):
    # over the square of a quasisplit form every fiber is full, so that
    # slice of X has sum 2^a(tau) elements; it holds on the twisted
    # classes of the grid as well
    ic = make_ic(t, iso, tw)
    for side in (ic, ic.dual):
        table = enumerate_X(side)
        squares = {f.square for f in table.forms if f.quasisplit}
        assert squares
        count = signature_count(side)
        for z in squares:
            assert len(table.ids_over(z)) == count


# form sizes by a second route: the K-orbits on G/B over the Cartan class
# of H are W(G, H)\W (Matsuki; Richardson-Springer), so
# |X[x0]| = sum over the classes H met by the form of |W| / |W(G, H)|

def form_sizes_from_real_weyl_orders(ic):
    table = enumerate_X(ic)
    order = ic.weyl.order()
    sizes = []
    for form in strong_real_forms(ic):
        met = {}
        for i in form.element_ids:
            x = table[i]
            met.setdefault(cartan_index(ic)[x.tau.index], x)
        size = 0
        for x in met.values():
            total = real_weyl(x).total
            assert order % total == 0
            size += order // total
        sizes.append(size)
    return sizes


REAL_WEYL_ORACLE_DATA = GRID + [
    (t, "sc", tw) for t, tw, _, _ in LADDER_DIGESTS] + [
    ("E6", "sc", "c"), ("E6", "sc", (5, 1, 4, 3, 2, 0))]


@pytest.mark.parametrize("t,iso,tw", REAL_WEYL_ORACLE_DATA)
def test_form_sizes_are_sums_of_real_weyl_indices(t, iso, tw):
    ic = make_ic(t, iso, tw)
    assert form_sizes_from_real_weyl_orders(ic) == \
        [len(f.element_ids) for f in strong_real_forms(ic)]


@pytest.mark.slow
def test_e7_form_sizes_are_sums_of_real_weyl_indices():
    ic = fresh_ic("E7", "c")
    assert form_sizes_from_real_weyl_orders(ic) == \
        [len(f.element_ids) for f in strong_real_forms(ic)]


@pytest.mark.slow
def test_e7_space_is_frozen():
    # frozen from the search that kept element objects and link dicts
    ic = fresh_ic("E7", "c")
    assert len(enumerate_X(ic)) == 41837
    assert sorted(len(f.element_ids) for f in strong_real_forms(ic)) == \
        [1, 1, 3017, 8946, 8946, 20926]


@pytest.mark.parametrize("t,tw", [("C2", "c"), ("G2", "c"), ("A3", (2, 1, 0))]
                         + [(t, tw) for t, tw, _, _ in LADDER_DIGESTS])
def test_search_builds_no_fraction_before_lambda(t, tw):
    # a fresh inner class, so fibers, frames, moves and the delta signs
    # are all built inside the call; the central squares are the input
    # and are computed first.  lambda is formed on first read only, so
    # the whole search builds no Fraction
    ic = fresh_ic(t, tw)
    central_fixed_points(ic)
    calls = []

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_filename == fractions.__file__ and \
                code.co_name not in ("numerator", "denominator"):
            calls.append(code.co_name)

    sys.setprofile(profile)
    try:
        table = enumerate_X(ic)
    finally:
        sys.setprofile(None)
    assert calls == []
    frozen = {(t2, tw2): digest for t2, tw2, _, digest in LADDER_DIGESTS}
    if (t, tw) in frozen:
        assert table_digest(table) == frozen[(t, tw)]
    else:
        assert [x.torus_coord for x in table] == \
            [per_tau_torus_coord(x) for x in table]


# ---------------------------------------------------------------------------
# property suites (each checker asserts internally and returns its case
# count; totals are accumulated per suite in test_acceptance)


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_cross_involutive(t, iso, tw):
    assert check_cross_involutive(make_ic(t, iso, tw)) > 0


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_cross_is_group_action(t, iso, tw):
    ic = make_ic(t, iso, tw)
    rng = random.Random(hash((t, iso, str(tw))) & 0xffff)
    elements = all_elements(ic.weyl)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(5)]
    assert check_cross_action(ic, pairs) > 0


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_cayley_roundtrips(t, iso, tw):
    check_cayley_roundtrip(make_ic(t, iso, tw))


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_grading_transfer(t, iso, tw):
    check_grading_transfer(make_ic(t, iso, tw))


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_fibers_are_two_groups(t, iso, tw):
    assert check_fiber_power_two(make_ic(t, iso, tw)) > 0


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_projection_onto_involutions_surjective(t, iso, tw):
    assert check_projection_surjective(make_ic(t, iso, tw)) > 0


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_forms_partition_X(t, iso, tw):
    assert check_form_partition(make_ic(t, iso, tw)) > 0


def test_dot_export():
    table = enumerate_X(make_ic("A1", "sc"))
    text = table.dot()
    assert text.startswith("digraph")
    assert 'n2 -> n4 [label="1"]' in text
    assert "style=dashed" in text
