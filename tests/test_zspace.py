"""The two-sided space Z, duality, and counting."""

import re
from fractions import Fraction

import pytest

import liepar.weyl
from conftest import GRID, GRID_IDS, make_ic
from liepar import (InfiniteCenterFixedPoints, RatVecModZ, UnknownType,
                    WeylError, cartan_classes, central_fixed_points,
                    count_z_blocks, dual_tau, duality_check, enumerate_form,
                    enumerate_X, enumerate_Z, fiber_space, from_type,
                    inner_class_from_perm, langlands_count, sp2n_count,
                    strong_real_forms, trivial_inner_class,
                    twisted_involutions)
from liepar.zspace import NoMatch, _slice_size
from props import per_tau_count_z_blocks, per_tau_slice_size


def rv(*entries):
    return RatVecModZ.reduce([Fraction(e) for e in entries])


def test_z_table_rank1():
    """The six pairs coupling the rank-1 simply connected group with its
    adjoint dual, as a multiset of (x^2, y^2, tau-word, fiber sizes)."""
    ic = make_ic("A1", "sc")
    pairs = enumerate_Z(ic)
    assert len(pairs) == 6
    rows = sorted(p.line() for p in pairs)
    assert rows == sorted([
        "0 2 0 0 e",
        "1 2 0 0 e",
        "2 2 1/2 0 e",
        "3 2 1/2 0 e",
        "4 0 1/2 0 1",
        "4 1 1/2 0 1",
    ])
    # x-components with tau = e pair with the unique noncompact y
    xt, yt = enumerate_X(ic), enumerate_X(ic.dual)
    for p in pairs:
        assert p.x_square == xt[p.x].square and p.y_square == yt[p.y].square


def test_dual_tau_brute_force():
    for t, iso, tw in GRID:
        ic = make_ic(t, iso, tw)
        dic = ic.dual
        dtbl = twisted_involutions(dic)
        for tau in twisted_involutions(ic).elements:
            neg_t = tuple(zip(*[tuple(-x for x in row)
                                for row in tau.theta_X]))
            matches = [s for s in dtbl.elements if s.theta_X == neg_t]
            assert len(matches) == 1
            assert dual_tau(tau, ic) == matches[0]


def test_dual_tau_reads_the_index_maps_both_ways():
    for t, iso, tw in GRID:
        ic = make_ic(t, iso, tw)
        for tau in twisted_involutions(ic).elements:
            sigma = dual_tau(tau, ic)
            assert sigma.ic is ic.dual
            assert dual_tau(sigma, ic.dual) is tau
    # a tau of another inner class: the twisted A2 thetas negate w0 w
    twisted = make_ic("A2", "sc", (1, 0))
    for tau in twisted_involutions(twisted).elements:
        with pytest.raises(NoMatch, match="not a twisted involution"):
            dual_tau(tau, make_ic("A2", "sc"))


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_duality(t, iso, tw):
    report = duality_check(make_ic(t, iso, tw))
    assert report.ok, report.mismatches
    assert report.total == report.dual_total
    for (a, b), size in report.blocks.items():
        assert report.dual_blocks[(b, a)] == size


def test_duality_named_cases():
    # rank-1 sc/ad, rank-2 symplectic/orthogonal, rank-2 twisted pair
    for spec in [("A1", "sc", "c"), ("C2", "sc", "c"),
                 ("A2", "sc", (1, 0))]:
        report = duality_check(make_ic(*spec))
        assert report.ok
    r = duality_check(make_ic("C2", "sc"))
    assert r.total == 24


def test_sp2n_counts_small():
    assert [sp2n_count(n) for n in range(1, 5)] == [4, 18, 88, 460]


def test_sp2n_count_reads_n_as_an_integer():
    # 2.0 is 2; 1.5 and "3" are not integers, and n < 1 names no group
    assert sp2n_count(2.0) == 18
    for n in (1.5, "3", 0, -1):
        with pytest.raises(UnknownType, match=re.escape(repr(n))):
            sp2n_count(n)


def test_count_z_blocks_golden():
    ic = make_ic("C2", "sc")
    minus = rv("1/2", 0)
    plus = rv(0, 0)
    rows, total = count_z_blocks(ic, minus, plus)
    assert total == 18
    tbl = twisted_involutions(ic)
    named = [(tbl.elements[i].tau_word_str() or "e", nx, ny)
             for i, nx, ny in rows]
    assert named == [("e", 4, 1), ("1", 1, 1), ("2", 2, 2),
                     ("1,2,1", 2, 2), ("2,1,2", 1, 1), ("1,2,1,2", 1, 4)]


@pytest.mark.parametrize("t,tw", [("C3", "c"), ("B3", "c"), ("G2", "c"),
                                  ("A3", (2, 1, 0)), ("D4", (0, 1, 3, 2))])
def test_slice_size_counts_the_fiber_elements(t, tw):
    for ic in (make_ic(t, "sc", tw), make_ic(t, "sc", tw).dual):
        squares = central_fixed_points(ic)
        for tau in twisted_involutions(ic).elements:
            fs = fiber_space(tau, ic)
            sizes = [len(fs.elements(z)) for z in squares]
            assert [_slice_size(ic, tau, (z,)) for z in squares] == sizes
            assert _slice_size(ic, tau, squares) == sum(sizes)


@pytest.mark.parametrize("t,iso,tw", GRID, ids=GRID_IDS)
def test_fiber_size_is_a_cartan_class_invariant(t, iso, tw):
    # the cross action of w is a bijection X_tau(z) -> X_{w tau}(z)
    for ic in (make_ic(t, iso, tw), make_ic(t, iso, tw).dual):
        tbl = twisted_involutions(ic)
        for z in central_fixed_points(ic):
            for c in cartan_classes(ic):
                sizes = {per_tau_slice_size(ic, tbl.elements[i], (z,))
                         for i in c.members}
                assert sizes == {_slice_size(ic, tbl.elements[c.rep], (z,))}


@pytest.mark.parametrize("t,iso,tw", GRID[:10], ids=GRID_IDS[:10])
def test_count_z_blocks_matches_the_per_tau_route(t, iso, tw):
    ic = make_ic(t, iso, tw)
    for side in (ic, ic.dual):
        xs = central_fixed_points(side)
        ys = central_fixed_points(side.dual)
        assert count_z_blocks(side) == per_tau_count_z_blocks(side, xs, ys)
        for x in xs:
            for y in ys:
                assert count_z_blocks(side, x, y) == \
                    per_tau_count_z_blocks(side, (x,), (y,))


def test_sp2n_count_matches_the_per_tau_route():
    for n, expected in enumerate([4, 18, 88, 460, 2544, 14776], start=1):
        ic = trivial_inner_class(from_type(f"C{n}", "sc"))
        minus = next(z for z in central_fixed_points(ic) if any(z.entries))
        plus = RatVecModZ.reduce((0,) * n)
        _, total = per_tau_count_z_blocks(ic, (minus,), (plus,))
        assert total == sp2n_count(n) == expected


@pytest.mark.parametrize("n,expected", [
    (1, 4), (2, 18), (3, 88), (4, 460), (5, 2544), (6, 14776),
    pytest.param(7, 89632, marks=pytest.mark.slow)])
def test_sp2n_count_matches_the_real_weyl_formula(n, expected):
    # the per-Cartan closed form |W| / |W(G, H)| 2^a of langlands_count,
    # read from real Weyl groups and not from fibers, summed over the
    # strong real forms with x^2 = -1
    ic = make_ic(f"C{n}", "sc")
    table = enumerate_X(ic)
    total = sum(
        langlands_count(ic, table[f.element_ids[0]]).formula_total
        for f in strong_real_forms(ic) if any(f.square.entries))
    assert total == sp2n_count(n) == expected


def test_count_matches_enumeration():
    for t, iso, tw in GRID[:10]:
        ic = make_ic(t, iso, tw)
        rows, total = count_z_blocks(ic)
        assert total == len(enumerate_Z(ic))


def test_langlands_count_rank1():
    ic = make_ic("A1", "sc")
    table = enumerate_X(ic)
    forms = strong_real_forms(ic)
    split = langlands_count(ic, table[forms[2].element_ids[0]])
    assert split.counts == {rv(0): 4}
    assert split.formula_total == 4 and split.note is None
    compact = langlands_count(ic, table[0])
    assert compact.counts == {rv(0): 1}
    assert compact.formula_total == 1


def test_langlands_count_adjoint_note():
    ic = make_ic("A1", "ad")
    table = enumerate_X(ic)
    forms = strong_real_forms(ic)
    split = langlands_count(ic, table[forms[1].element_ids[0]])
    assert split.counts == {rv(0): 2, rv("1/2"): 3}
    assert split.formula_total is None
    assert "rho-cover" in split.note


def test_a_second_count_computes_no_weyl_group_order(monkeypatch):
    # |W| is computed once per group, as the longest element is kept
    calls = []
    order = liepar.weyl.subsystem_order

    def counted(*args):
        calls.append(args)
        return order(*args)

    monkeypatch.setattr(liepar.weyl, "subsystem_order", counted)
    ic = trivial_inner_class(from_type("B3", "sc"))
    x0 = enumerate_X(ic)[0]
    first = langlands_count(ic, x0)
    assert calls and ic.weyl.order() == 48
    calls.clear()
    assert langlands_count(ic, x0) == first
    assert calls == []


LANGLANDS_DATA = [("C2", "sc", "c"), ("C3", "sc", "c"), ("B3", "sc", "c"),
                  ("G2", "sc", "c"), ("A3", "sc", (2, 1, 0)),
                  ("C3", "ad", "c"), ("D4", "ad", "c")]
LANGLANDS_DATA += [s for s in GRID if s not in LANGLANDS_DATA]


@pytest.mark.parametrize("spec", LANGLANDS_DATA)
def test_langlands_count_matches_pair_tally(spec):
    ic = make_ic(*spec)
    table = enumerate_X(ic)
    pairs = enumerate_Z(ic)
    tallies = []
    for form in strong_real_forms(ic):
        ids = set(form.element_ids)
        tally = {}
        for p in pairs:
            if p.x in ids:
                tally[p.y_square] = tally.get(p.y_square, 0) + 1
        tallies.append(tally)
        lc = langlands_count(ic, table[form.element_ids[0]])
        assert lc.counts == tally
        # a per-form table's element names the same form
        sub = enumerate_form(ic, table[form.element_ids[-1]])
        assert langlands_count(ic, sub[0]).counts == tally
    # so does an element of a table restricted to one square, found in
    # the full table by tau and fiber coordinates
    full_id = {(x.tau.index, x.coords): x.id for x in table}
    for z in central_fixed_points(ic):
        part = enumerate_X(ic, squares=[z])
        scale = table.denom // part.denom
        for form in part.forms:
            x = part[form.element_ids[0]]
            f = table.form_of(full_id[x.tau.index,
                                      tuple(scale * a for a in x.coords)])
            assert langlands_count(ic, x).counts == tallies[f]


def test_langlands_count_checks_the_inner_class():
    rd = from_type("A2", "sc")
    x0 = enumerate_X(trivial_inner_class(rd))[0]
    with pytest.raises(NoMatch):
        langlands_count(inner_class_from_perm(rd, (1, 0)), x0)
    # an equal class, built apart, names the same form
    again = trivial_inner_class(from_type("A2", "sc"))
    assert langlands_count(again, x0) == \
        langlands_count(x0.table.ic, x0)
    # no pair space where the twist fixes a central torus
    ic = trivial_inner_class(from_type("A1.T1", "sc"))
    part = enumerate_X(ic, squares=[rv(0, 0)])
    with pytest.raises(InfiniteCenterFixedPoints):
        langlands_count(ic, part[0])


def test_restricted_z():
    ic = make_ic("A1", "sc")
    pairs = enumerate_Z(ic, restrict_x_square=rv("1/2"),
                        restrict_y_square=rv(0))
    assert len(pairs) == 4


def test_central_square_counts_consistency():
    # every pair square is a twist-fixed central element
    for t, iso, tw in GRID[:8]:
        ic = make_ic(t, iso, tw)
        zg = set(central_fixed_points(ic))
        zgd = set(central_fixed_points(ic.dual))
        for p in enumerate_Z(ic):
            assert p.x_square in zg and p.y_square in zgd


@pytest.mark.parametrize("side", ["restrict_x_square", "restrict_y_square"])
def test_restrict_squares_are_validated(side):
    # count_z_blocks checks x^2 against the group and y^2 against its
    # dual, with the typed errors of enumerate_Z and enumerate_X
    ic = make_ic("A1", "sc")
    with pytest.raises(ValueError, match="not central"):
        count_z_blocks(ic, **{side: rv("1/3")})
    with pytest.raises(ValueError, match="not central"):
        enumerate_Z(ic, **{side: rv("1/3")})
    for call in (count_z_blocks, enumerate_Z):
        with pytest.raises(ValueError, match="needs 1 coordinates") as info:
            call(ic, **{side: rv(0, 0)})
        assert not isinstance(info.value, WeylError)


def test_a_square_that_is_no_ratvecmodz_raises_a_type_error():
    ic = make_ic("A1", "sc")
    half = (Fraction(1, 2),)
    with pytest.raises(TypeError, match="RatVecModZ, got tuple"):
        enumerate_X(ic, squares=[half])
    for side in ("restrict_x_square", "restrict_y_square"):
        for call in (count_z_blocks, enumerate_Z):
            with pytest.raises(TypeError, match="RatVecModZ, got tuple"):
                call(ic, **{side: half})


def test_enumerate_x_rejects_a_square_of_the_wrong_length():
    with pytest.raises(ValueError, match="needs 1 coordinates") as info:
        enumerate_X(make_ic("A1", "sc"), squares=[rv(0, 0)])
    assert not isinstance(info.value, WeylError)
