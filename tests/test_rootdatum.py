"""Root data: construction, closure, duality, center."""

import re
from fractions import Fraction

import pytest

from conftest import GRID
from liepar import (InfiniteClosure, NotACartanMatrix, RootDatumError,
                    UnknownType, WeylGroup, central_fixed_points, from_type,
                    new_root_datum, parse_type, trivial_inner_class)
from liepar.intlinalg import identity, mat_apply, mat_mul, vec_dot
from liepar.rootdatum import _reflection_closure
from props import (is_positive, reference_rho, reflection_matrix,
                   simple_coordinates, simple_reflection)

# number of positive roots per simple type
POS_ROOTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "C2": 4, "C3": 9,
    "D4": 12, "G2": 6, "F4": 24,
}


@pytest.mark.parametrize("t,n", sorted(POS_ROOTS.items()))
@pytest.mark.parametrize("iso", ["sc", "ad"])
def test_positive_root_counts(t, n, iso):
    rd = from_type(t, iso)
    assert rd.n_pos == n
    assert len(rd.roots) == 2 * n
    assert rd.rank == rd.n_simple


def test_parse_type():
    blocks, torus = parse_type("C2.A1.T2")
    assert [len(b) for b in blocks] == [2, 1]
    assert torus == 2
    assert parse_type("B1") == parse_type("A1")
    assert parse_type("C1") == parse_type("A1")
    for bad in ["A0", "Z3", "A", "3A", "D2"]:
        with pytest.raises(UnknownType):
            parse_type(bad)


def test_pairings_and_bijection():
    for t in ("A2", "B2", "G2"):
        for iso in ("sc", "ad"):
            rd = from_type(t, iso)
            for i in range(len(rd.roots)):
                assert vec_dot(rd.roots[i], rd.coroots[i]) == 2
            # the root <-> coroot bijection respects negation
            for i in range(len(rd.roots)):
                j = rd.negative_of(i)
                assert rd.coroots[j] == tuple(-x for x in rd.coroots[i])


def test_reflections_permute_roots():
    rd = from_type("B2", "sc")
    root_set = set(rd.roots)
    for i in range(rd.n_simple):
        m = simple_reflection(rd, i)
        assert mat_mul(m, m) == identity(rd.rank)
        for r in rd.roots:
            assert mat_apply(m, r) in root_set
        # transpose acts on coroots
        mv = tuple(zip(*m))
        for c in rd.coroots:
            assert mat_apply(mv, c) in set(rd.coroots)


def test_reflection_for_root_matches_simple():
    # the reflection matrix of every root, from the root and coroot,
    # against the Weyl group's matrix read off the root permutation
    rd = from_type("G2", "sc")
    wg = WeylGroup(rd)
    for k, i in enumerate(rd.simple_indices()):
        assert reflection_matrix(rd, i) == simple_reflection(rd, k) == \
            wg.simple(k).mat
    for i in range(len(rd.roots)):
        assert reflection_matrix(rd, i) == \
            wg.lattice_matrix(wg.reflection_perm(i))


def test_heights_and_positivity():
    rd = from_type("G2", "sc")
    pos = [i for i in range(len(rd.roots)) if is_positive(rd, i)]
    assert len(pos) == 6
    # the highest root of G2 has height 5
    hs = [sum(coeffs) for coeffs in rd.coefficients]
    assert max(hs) == 5
    # roots are sorted by height then lex, the positive ones last
    assert hs == sorted(hs)
    assert all((h > 0) == is_positive(rd, i) for i, h in enumerate(hs))


@pytest.mark.parametrize(
    "t,iso", sorted({(t, iso) for t, iso, _ in GRID}) + [("A1.T1", "sc")])
def test_coefficients_from_the_closure(t, iso):
    for rd in (from_type(t, iso), from_type(t, iso).dual()):
        assert len(rd.coefficients) == len(rd.roots)
        for root, coeffs in zip(rd.roots, rd.coefficients):
            assert tuple(sum(c * a[r] for c, a in zip(coeffs, rd.simple_roots))
                         for r in range(rd.rank)) == root
            assert coeffs == simple_coordinates(root, rd.simple_roots)
        # and each coroot's, in the simple coroots
        assert [simple_coordinates(c, rd.simple_coroots)
                for c in rd.coroots] == list(rd.coroot_coefficients)


def test_rho():
    rd = from_type("A2", "sc")
    # rho pairs to 1 with every simple coroot
    for cv in rd.simple_coroots:
        assert vec_dot(reference_rho(rd), cv) == 1


@pytest.mark.parametrize(
    "t,iso", sorted({(t, iso) for t, iso, _ in GRID}) + [("A1.T1", "sc")])
def test_rho_in_X_matches_rho(t, iso):
    rd = from_type(t, iso)
    for datum in (rd, rd.dual()):
        assert datum.rho_in_X() == \
            all(x.denominator == 1 for x in reference_rho(datum))


def test_rho_in_X_cases():
    assert from_type("A1", "sc").rho_in_X() is True     # rho = fund weight
    assert from_type("A1", "ad").rho_in_X() is False    # rho = alpha/2
    assert from_type("C2", "sc").rho_in_X() is True
    assert from_type("A2", "ad").rho_in_X() is True     # rho = alpha1+alpha2


def test_dual():
    rd = from_type("B2", "sc")
    dd = rd.dual()
    # dual of sc B2 is ad C2: same number of roots, swapped lengths
    assert dd.n_pos == 4
    assert dd.dual().n_pos == 4
    assert set(dd.simple_roots) == set(rd.simple_coroots)
    assert set(dd.simple_coroots) == set(rd.simple_roots)


NAMED_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B2", "B3",
               "B4", "B5", "B6", "C2", "C3", "C4", "C5", "C6", "D4", "D5",
               "D6", "E6", "E7", "E8", "F4", "G2", "A1.A1", "B2.G2", "T1",
               "T2", "A1.T1", "C2.A1.T2"]


@pytest.mark.parametrize("t", NAMED_TYPES)
@pytest.mark.parametrize("iso", ["sc", "ad"])
def test_the_dual_is_the_closure_of_the_swapped_simple_data(t, iso):
    # rd.dual() relabels the closure it was built by; the reference runs
    # a second one
    rd = from_type(t, iso)
    dual = rd.dual()
    reference = new_root_datum(rd.simple_coroots, rd.simple_roots, rd.rank)
    assert dual == reference
    for datum, ref in ((dual, reference), (dual.dual(), rd)):
        assert datum == ref
        assert datum.coefficients == ref.coefficients
        assert datum.coroot_coefficients == ref.coroot_coefficients
        assert datum.root_index == ref.root_index
        assert datum.cartan_matrix == ref.cartan_matrix


def test_center_torsion():
    # the finite center: the central elements fixed by the trivial twist
    def center(t, iso):
        return central_fixed_points(trivial_inner_class(from_type(t, iso)))

    for (t, iso), order in [(("A1", "sc"), 2), (("A1", "ad"), 1),
                            (("A2", "sc"), 3), (("A3", "sc"), 4),
                            (("C2", "sc"), 2), (("G2", "sc"), 1)]:
        assert len(center(t, iso)) == order
    elems = center("A3", "sc")
    assert [e.entries for e in elems] == sorted(
        tuple(Fraction(k * c, 4) % 1 for c in (1, 2, 3)) for k in range(4))


def test_infinite_type_rejected():
    # affine A1 Cartan matrix
    with pytest.raises((InfiniteClosure, NotACartanMatrix)):
        new_root_datum([(2, -2), (-2, 2)],
                       [(1, 0), (0, 1)])


@pytest.mark.parametrize("roots,coroots", [
    # affine A2 in rank 4: a singular Cartan matrix, with independent
    # roots and coroots
    ([(2, -1, -1, 1), (-1, 2, -1, 0), (-1, -1, 2, 0)],
     [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]),
    # not symmetrizable: c01 c12 c20 = -1 but c10 c21 c02 = -2
    ([(2, -1, -1), (-2, 2, -1), (-1, -1, 2)],
     [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
])
def test_a_cartan_matrix_not_of_finite_type_has_no_finite_closure(roots,
                                                                  coroots):
    with pytest.raises(InfiniteClosure, match="not of finite type"):
        new_root_datum(roots, coroots)


def test_bad_input_rejected():
    with pytest.raises(Exception):
        new_root_datum([(1, 0)], [(1, 0)])  # pairing 1, not 2
    with pytest.raises(Exception):
        new_root_datum([(2, 0), (2, 0)], [(1, 0), (1, 0)])  # dependent


@pytest.mark.parametrize("roots,coroots,rank,message", [
    ([[2.5]], [[1]], 1, "2.5 is not an integer"),
    ([[2]], [[Fraction(1, 2)]], 1, "Fraction(1, 2) is not an integer"),
    ([["2"]], [[1]], 1, "'2' is not an integer"),
    ([[2]], [[None]], 1, "None is not an integer"),
    ([[2]], [[float("inf")]], 1, "inf is not an integer"),
    ([[2]], [[1]], -1, "rank -1 is negative"),
    ([], [], -1, "rank -1 is negative"),
    ([], [], 1.5, "1.5 is not an integer")])
def test_entries_and_rank_must_be_integers(roots, coroots, rank, message):
    # no entry is rounded: [[2.5]] is not SL(2)'s [[2]]
    with pytest.raises(RootDatumError, match=re.escape(message)):
        new_root_datum(roots, coroots, rank)


def test_integral_entries_of_another_type_are_read_as_ints():
    rd = new_root_datum([[2.0]], [[Fraction(1)]], 1.0)
    assert rd == new_root_datum([[2]], [[1]], 1)
    assert type(rd.rank) is int and type(rd.roots[0][0]) is int


def test_closure_guard_survives_the_fixed_pair_skip():
    # <alpha_0, alpha_1^v> = 1 but <alpha_1, alpha_0^v> = 0: s_1 moves the
    # root alpha_0 and fixes its coroot, so the closure may skip a pair
    # only when both pairings are 0, and the bijection check must raise
    with pytest.raises(NotACartanMatrix,
                       match="root/coroot bijection broke"):
        _reflection_closure(((1, 0), (0, 1)), ((2, 0), (1, 2)), 2,
                            [[2, 1], [0, 2]])


def test_dependent_simple_roots_rejected():
    # affine A2 in a rank-3 lattice: a Cartan matrix that passes the entry
    # checks, on three simple roots that span a plane
    with pytest.raises(NotACartanMatrix,
                       match="simple roots are linearly dependent"):
        new_root_datum([(1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                       [(2, -1, 0), (-1, 2, 0), (-1, -1, 0)])


def test_torus_factor():
    rd = from_type("A1.T1", "sc")
    assert rd.rank == 2
    assert rd.n_simple == 1
    assert rd.n_pos == 1


@pytest.mark.parametrize("isogeny", ["sc", "ad"])
def test_pure_torus_keeps_its_rank(isogeny):
    for n in (1, 2):
        rd = from_type(f"T{n}", isogeny)
        assert (rd.rank, rd.n_simple, rd.n_pos) == (n, 0, 0)
        assert rd.dual().rank == n
    assert new_root_datum([], [], 3).rank == 3
    assert new_root_datum([], []).rank == 0


def test_product_type():
    rd = from_type("A1.A1", "sc")
    assert rd.n_pos == 2
    assert vec_dot(rd.simple_roots[0], rd.simple_coroots[1]) == 0
