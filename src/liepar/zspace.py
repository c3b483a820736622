"""The two-sided parameter space Z and Vogan duality.

A pair (x, y) couples an element of X for (G, gamma) with an element of
X for the dual group, over twisted involutions whose torus involutions
are negative transposes of each other.  Swapping the components is the
duality bijection; counting pairs with fixed central squares counts
irreducible representations at regular integral infinitesimal character.
"""

from __future__ import annotations

from typing import NamedTuple

from .fiber import central_fixed_points, fiber_space
from .intlinalg import RatVecModZ
from .kgb import (KGBElt, KGBTable, NoMatch, _real_weyl, _table_of,
                  _validate_square, enumerate_X)
from .rootdatum import UnknownType, _integer, from_type
from .weyl import (InnerClass, TwistedInvolution, WeylError, cartan_classes,
                   cartan_index, trivial_inner_class, twisted_involutions)


class ZPair(NamedTuple):
    """A pair (x, y) over tau: x an element id in the X table of the
    inner class and y one in the X table of its dual, the two tables
    that enumerate_Z (or the caller of match_pairs) read."""
    x: int
    y: int
    x_square: RatVecModZ
    y_square: RatVecModZ
    tau: TwistedInvolution

    def line(self, word=None) -> str:
        """x y x_square y_square word; word is tau's, formed if not given."""
        return (f"{self.x} {self.y} {self.x_square} {self.y_square} "
                f"{word or self.tau.tau_word_str() or 'e'}")


def dual_tau(tau: TwistedInvolution, ic: InnerClass) -> TwistedInvolution:
    """The twisted involution of the dual inner class whose torus
    involution is the negative transpose of tau's: a lookup of theta and
    of the dual_index that the relabelled dual table records on both."""
    tbl = twisted_involutions(ic)
    idx = tbl.index_by_perm.get(tau.theta)
    if idx is None:
        raise NoMatch("tau is not a twisted involution of this inner class")
    dtbl = twisted_involutions(ic.dual)
    return dtbl.elements[tbl.dual_index[idx]]


def enumerate_Z(ic: InnerClass, restrict_x_square=None,
                restrict_y_square=None):
    """All pairs (x, y), grouped by the x-side twisted involution."""
    dic = ic.dual
    xt = enumerate_X(ic) if restrict_x_square is None \
        else enumerate_X(ic, squares=[restrict_x_square])
    yt = enumerate_X(dic) if restrict_y_square is None \
        else enumerate_X(dic, squares=[restrict_y_square])
    return match_pairs(ic, xt, range(len(xt)), yt, range(len(yt)))


def match_pairs(ic: InnerClass, xt: KGBTable, x_ids, yt: KGBTable, y_ids):
    """The pairs (x, y) with x among x_ids of xt and y among y_ids of yt,
    the X tables of ic and of its dual, over dual twisted involutions:
    tau by tau in table order, then x and y in the order given."""
    by_tau_x, by_tau_y = {}, {}
    for by_tau, table, ids in ((by_tau_x, xt, x_ids), (by_tau_y, yt, y_ids)):
        for i in ids:
            by_tau.setdefault(table._taus[i], []).append(i)
    pairs = []
    for t in sorted(by_tau_x):
        tau = twisted_involutions(ic).elements[t]
        tau_ys = by_tau_y.get(dual_tau(tau, ic).index, ())
        for i in by_tau_x[t]:
            x_square = xt.squares[xt._square_idx[i]]
            pairs.extend(ZPair(i, j, x_square, yt.squares[yt._square_idx[j]],
                               tau) for j in tau_ys)
    return pairs


def _slice_size(ic, tau, squares) -> int:
    """|X_tau(z)| summed over the given central squares, from the fiber
    structure alone (no element materialization).  The cross action is a
    bijection X_tau(z) -> X_{s tau s}(z), so the size is read at the
    representative of tau's Cartan class."""
    rep = cartan_classes(ic)[cartan_index(ic)[tau.index]].rep
    fs = fiber_space(twisted_involutions(ic).elements[rep], ic)
    return sum(2 ** fs.fiber_rank for z in squares if fs.solvable(z))


def count_z_blocks(ic: InnerClass, restrict_x_square=None,
                   restrict_y_square=None):
    """Per-tau block sizes (tau index, |X_tau|, |X^dual_dualtau|) and the
    total number of pairs, without enumerating elements.  Both sizes are
    Cartan-class invariants (dual_tau maps a class onto a class), so they
    are computed once per class, at its representative, and the per-tau
    rows are lookups.  A restrict square is checked as enumerate_X
    checks its squares."""
    dic = ic.dual
    xs = (_validate_square(ic, restrict_x_square),) \
        if restrict_x_square is not None else central_fixed_points(ic)
    ys = (_validate_square(dic, restrict_y_square),) \
        if restrict_y_square is not None else central_fixed_points(dic)
    tbl = twisted_involutions(ic)
    per_class = []
    for c in cartan_classes(ic):
        rep = tbl.elements[c.rep]
        nx = _slice_size(ic, rep, xs)
        per_class.append((nx, _slice_size(dic, dual_tau(rep, ic), ys)
                          if nx else 0))
    index = cartan_index(ic)
    rows = [(tau.index,) + per_class[index[tau.index]]
            for tau in tbl.elements]
    total = sum(nx * ny for _, nx, ny in rows)
    return rows, total


def sp2n_count(n: int) -> int:
    """Number of pairs for Sp(2n) simply connected, equal rank, with
    x^2 = -I and y^2 = I.  n is an integer in value (2 or 2.0), at least
    1; else UnknownType naming it."""
    n = _integer(n, UnknownType)
    if n < 1:
        raise UnknownType(f"Sp(2n) needs n >= 1, got {n!r}")
    ic = trivial_inner_class(from_type(f"C{n}", "sc"))
    zg = central_fixed_points(ic)
    minus = [z for z in zg if any(z.entries)]
    if len(minus) != 1:
        raise ValueError("expected a center of order 2")
    plus = RatVecModZ.reduce((0,) * ic.dual.rank)
    _, total = count_z_blocks(ic, restrict_x_square=minus[0],
                              restrict_y_square=plus)
    return total


class LanglandsCount(NamedTuple):
    counts: dict            # dual central square -> number of pairs
    formula_total: object   # per-class closed-form count, or None
    note: object            # str or None


def langlands_count(ic: InnerClass, x0: KGBElt) -> LanglandsCount:
    """Pairs whose x lies in the strong real form of x0, counted per
    dual central square (infinitesimal character class), as
    count_z_blocks counts: x per Cartan class from the tau column over
    x0's form record, times the dual fiber size at the dual class per
    dual square.  x0 may come from the full table, a per-form one or a
    restricted one of ic or of an equal class; neither X of ic nor X of
    its dual is built.  With rho a character, the closed form
    sum |W| / |W(G, H)| 2^a over the form's Cartan classes is checked
    against the count at the trivial dual square."""
    table = _table_of(ic, x0)
    ic = table.ic
    central_fixed_points(ic)    # raises where Z is not built, as for X
    index = cartan_index(ic)
    nx, first = {}, {}
    for i in table.forms[table.form_of(x0.id)].element_ids:
        c = index[table._taus[i]]
        nx[c] = nx.get(c, 0) + 1
        first.setdefault(c, i)
    dic = ic.dual
    w_order = ic.weyl.order() if ic.rd.rho_in_X() else None
    formula = None if w_order is None else 0
    counts = {}
    for c, n in nx.items():
        rep = twisted_involutions(ic).elements[cartan_classes(ic)[c].rep]
        dual_rep = dual_tau(rep, ic)
        for z in central_fixed_points(dic):
            ny = _slice_size(dic, dual_rep, (z,))
            if ny:
                counts[z] = counts.get(z, 0) + n * ny
        if w_order:
            info = _real_weyl(table, first[c])
            formula += w_order // info.total \
                * 2 ** fiber_space(rep, ic).signature.a
    if w_order and formula != counts.get(RatVecModZ.reduce((0,) * dic.rank)):
        raise WeylError("closed-form count disagrees with pair count")
    note = None if w_order else ("half-sum of positive roots is not a "
                                 "character; counts refer to the rho-cover")
    return LanglandsCount(counts, formula, note)


class DualityReport(NamedTuple):
    ok: bool
    total: int
    dual_total: int
    blocks: dict         # (tau idx, dual tau idx) -> size
    dual_blocks: dict
    mismatches: tuple


def duality_check(ic: InnerClass) -> DualityReport:
    """Verify that swapping components is a bijection between the pair
    space of ic and that of its dual."""
    dic = ic.dual
    pairs = enumerate_Z(ic)
    dual_pairs = enumerate_Z(dic)
    blocks, dual_blocks = {}, {}
    for tally, c, ps in ((blocks, ic, pairs), (dual_blocks, dic, dual_pairs)):
        for p in ps:
            key = (p.tau.index, dual_tau(p.tau, c).index)
            tally[key] = tally.get(key, 0) + 1
    mismatches = []
    for (a, b), size in blocks.items():
        if dual_blocks.get((b, a)) != size:
            mismatches.append((a, b, size, dual_blocks.get((b, a))))
    for (a, b) in dual_blocks:
        if (b, a) not in blocks:
            mismatches.append((b, a, None, dual_blocks[(a, b)]))
    ok = not mismatches and len(pairs) == len(dual_pairs)
    return DualityReport(ok, len(pairs), len(dual_pairs), blocks,
                         dual_blocks, tuple(mismatches))
