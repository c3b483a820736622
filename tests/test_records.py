"""Record semantics: what equality, hashing, arithmetic and immutability
the record classes promise, whatever class machinery defines them."""

from fractions import Fraction

import pytest

from conftest import make_ic
from liepar import (CartanClass, RatVecModZ, RootDatum, StrongRealForm,
                    TitsGroup, TorusSignature, ZPair, cartan_classes,
                    enumerate_X, enumerate_Z, fiber_space, from_type,
                    strong_real_forms, trivial_inner_class,
                    twisted_involutions)
from liepar.fiber import Frame, fiber_frame
from liepar.weyl import RootClassification


def test_root_data_compare_and_hash_by_their_defining_fields():
    rd = from_type("C3", "sc")
    assert rd.dual().dual() == rd
    other = from_type("C3", "sc")
    assert other is not rd and other == rd and hash(other) == hash(rd)
    assert {rd: 1}[other] == 1
    assert rd != from_type("B3", "sc") and rd != from_type("C3", "ad")
    # the derived fields stay out of equality
    bare = RootDatum(rd.rank, rd.simple_roots, rd.simple_coroots, rd.roots,
                     rd.coroots, rd.cartan_matrix)
    assert bare == rd and hash(bare) == hash(rd)
    assert bare.coefficients == () and bare.root_index == {}


def test_weyl_elements_and_taus_compare_by_permutation():
    ic = make_ic("B3", "sc")
    wg = ic.weyl
    w0 = wg.longest_element()
    again = wg.from_perm(w0.perm)
    assert again is not w0 and again == w0 and hash(again) == hash(w0)
    assert repr(wg.identity) == "WeylElt(e)"
    assert repr(wg.from_perm(wg.simple_perms[1])) == "WeylElt(2)"
    taus = twisted_involutions(ic).elements
    fresh = twisted_involutions(trivial_inner_class(from_type("B3", "sc")))
    for tau, copy in zip(taus, fresh.elements):
        assert copy is not tau and copy == tau and hash(copy) == hash(tau)
        assert copy.theta_X == tau.theta_X
    assert len(set(taus)) == len(taus)


def test_weyl_elements_cache_their_readers():
    wg = make_ic("A3", "sc").weyl
    w = wg.longest_element()
    assert w.inv_perm is w.inv_perm and w.mat is w.mat
    assert "inv_perm" in vars(w) and "mat" in vars(w)


def test_root_classifications_compare_without_the_weyl_group():
    ic = make_ic("C2", "sc")
    tbl = twisted_involutions(ic)
    cls = tbl.classification(0)     # delta: every root is imaginary
    same = RootClassification(cls.theta, cls.im_pos, None)
    assert same == cls and hash(same) == hash(cls)
    assert cls.im_pos and RootClassification(cls.theta, (), cls.weyl) != cls


def test_x_elements_compare_by_table_and_id():
    ic = make_ic("A2", "sc")
    table = enumerate_X(ic)
    assert table[1] == table[1] and hash(table[1]) == hash(table[1])
    assert table[0] != table[1]
    # a view of another table is another element
    part, y = table.form_table(0), table.forms[0].element_ids[0]
    assert part[0].tau == table[y].tau and part[0] != table[y]
    x = table[len(table) - 1]
    assert x.torus_coord is x.torus_coord


def test_tits_elements_keep_their_repr():
    tg = TitsGroup(make_ic("A2", "sc"))
    lift = tg.canonical_lift(tg.weyl.from_perm(tg.weyl.simple_perms[0]))
    assert repr(lift) == "TitsElt(1; 00)"
    assert repr(tg.canonical_lift(tg.weyl.identity)) == "TitsElt(e; 00)"


def test_vectors_mod_z_add_and_negate_mod_z():
    z = RatVecModZ.reduce([Fraction(1, 2), Fraction(2, 3)])
    assert z + z == RatVecModZ.reduce([0, Fraction(1, 3)])
    assert -z == RatVecModZ.reduce([Fraction(1, 2), Fraction(1, 3)])
    assert isinstance(z + z, RatVecModZ) and isinstance(-z, RatVecModZ)
    assert {z: "z"}[RatVecModZ.reduce([Fraction(-1, 2), Fraction(5, 3)])] \
        == "z"
    zs = [RatVecModZ.reduce(v) for v in ([Fraction(1, 2), 0], [0, 0],
                                         [0, Fraction(1, 2)])]
    assert sorted(zs) == sorted(zs, key=lambda v: v.entries)
    assert str(z) == "1/2,2/3"


def test_vectors_mod_z_of_different_lengths_do_not_add():
    # zip truncated the sum to the shorter vector
    with pytest.raises(ValueError, match="lengths 2 and 1"):
        RatVecModZ.reduce([1, 0]) + RatVecModZ.reduce([0])
    with pytest.raises(ValueError, match="lengths 0 and 1"):
        RatVecModZ.reduce([]) + RatVecModZ.reduce([Fraction(1, 2)])


def test_value_records_are_named_tuples():
    ic = make_ic("C2", "sc")
    tbl = twisted_involutions(ic)
    records = [fiber_space(tbl.elements[-1], ic).signature,
               strong_real_forms(ic)[0], cartan_classes(ic)[0],
               enumerate_Z(ic)[0], fiber_frame(ic, len(tbl) - 1)]
    for record, cls in zip(records, (TorusSignature, StrongRealForm,
                                     CartanClass, ZPair, Frame)):
        assert type(record) is cls
        assert record == tuple(record)
        assert record._replace() == record
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    a, b, c = records[0]
    assert (a, b, c) == (records[0].a, records[0].b, records[0].c)
