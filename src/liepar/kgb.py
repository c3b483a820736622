"""The one-sided parameter space X.

Elements are strong involutions exp(2 pi i lambda) . sigma_w . delta
modulo torus conjugation, encoded as (tau, lambda) with tau a twisted
involution and lambda a canonical fiber coordinate.  The space carries
the cross action of W, Cayley transforms between fibers, and a Z/2
grading (compact/noncompact) on imaginary roots; connected components
of the move graph are the strong real forms.

The breadth-first search works in class-representative coordinates.
An element over tau is P_tau x for a point x over the representative
rho of tau's Cartan class, with P_tau the path of tau's frame (see
fiber_frame), and its fiber coordinates y = D V^-1 lambda mod D in
tau's frame are f + o_tau, with the kernel coordinates 0 and D =
2 lcm(2, denominators of the central squares).  The search keys an
element by (tau, f), keeps its grading bits in the order of rho's
positive imaginary roots and checks its square on f at rho's Smith form;
it builds no Fraction.  X is a W-set and Cayley transforms commute with
the cross action, so a cross move (tau, s) acts on f as the cross action
of w = P_tau2^-1 s P_tau, which fixes rho, and a Cayley move as the
Cayley transform in beta = P_tau^-1 alpha_s followed by the cross action
of u = P_tau2^-1 P_tau.  Each such key of a Cartan class gets one
integer affine map f -> M f + c mod D plus a map of the grading bits,
built on f from the first edge that meets it (_move_map); the key
w = 1, every edge of the frames' spanning tree among them, moves
nothing.  M is 1 - c r for an s that fixes tau: there an element pays
one dot product r . f, and one that s fixes is linked to itself with no
key to look up.  Targets are read from the involution table, and
each tau and each slot checks it on root permutations.  The
cross action of s is an involution, so a cross edge is computed from one
end and linked both ways.  The seeds are the integer solutions over each
central square on the distinguished fiber, graded by the sign of delta
on each imaginary root (see _delta_signs): 1 exactly on the roots
alpha + gamma(alpha) with gamma(alpha) != alpha, each A2 fold confirmed
in the Tits group.  Root types are read from theta (RootClassification).

An element is its id: X is written as flat columns indexed by id (see
KGBTable), and a KGBElt view, with its lambda, is formed only when one
is read.  Each element inherits the seed of the element that found it,
so the strong real forms come from a union-find over the seeds.  The
real Weyl group W(G, H) of x reads |W_i| and |W_r| from root heights
and |W_C^theta| from the size of tau's Cartan class; only the
W_i-orbit of x is searched, by id.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from math import lcm
from itertools import compress
from operator import add, itemgetter, mul, xor
from typing import NamedTuple

from .fiber import (_reflect_rows, central_fixed_points, fiber_frame,
                    fiber_space, frame_torus_coord, tits_group)
from .intlinalg import RatVecModZ, mat_apply, vec_dot
from .weyl import (InnerClass, WeylError, _compose, _in_range, _inverse,
                   cartan_classes, cartan_index, twisted_involutions)


class NotImaginary(ValueError):
    pass


class NoMatch(ValueError):
    pass


class KGBElt:
    """Element id of table, formed on each read: a snapshot of the
    columns that nothing reads back, equal to the views of that id."""

    def __init__(self, id, tau, coords, length, square, status, cross,
                 cayley, grading, table):
        self.id, self.tau, self.length, self.square = id, tau, length, square
        self.coords = coords    # fiber coordinates y in tau's frame, mod denom
        self.status = status    # per simple root: 'c' / 'n' / 'r' / 'C'
        self.cross = cross      # per simple root: element id
        self.cayley = cayley    # per simple root: element id or None
        self.grading = grading  # sorted (positive imaginary root index, 0/1)
        self.table = table

    def __eq__(self, other):
        return isinstance(other, KGBElt) and self.table is other.table \
            and self.id == other.id

    def __hash__(self):
        return hash((id(self.table), self.id))

    @cached_property
    def torus_coord(self) -> RatVecModZ:
        """The canonical fiber coordinate lambda, formed on first read."""
        return frame_torus_coord(self.table.ic, self.tau, self.coords,
                                 self.table.denom)

    @property
    def grading_map(self) -> dict:
        return dict(self.grading)


class StrongRealForm(NamedTuple):
    index: int
    square: RatVecModZ
    base_ids: tuple        # the W_i-orbit in the base fiber
    element_ids: tuple     # all of X[x0]
    quasisplit: bool


class KGBTable(Sequence):
    """X as the sequence of its elements: table[i] and iter(table) form
    one KGBElt view per read, a slice the tuple of its views, and the
    table holds none.  It holds columns indexed by element id: tau
    index, class coordinates f, square index, grading bits in the order
    of the class representative's positive imaginary roots, and k slots
    each of cross and Cayley ids (None where no Cayley transform
    applies).  A view converts: its coords are f + o_tau in tau's frame,
    and its grading and status read the bits through tau's class
    positions (see _class_positions).  It holds only
    these columns: the path by which the search reached each element is
    read off the links.  forms holds one StrongRealForm record per
    connected component, in the canonical order (quasisplit last)."""

    def __init__(self, ic, squares, denom, taus, coords, square_idx,
                 grading_bits, cross_ids, cayley_ids, forms):
        self.ic = ic
        self.denom = denom       # the modulus of the elements' coords
        self.squares = squares
        self.forms = forms
        self._taus = taus
        self._coords = coords
        self._square_idx = square_idx
        self._grading_bits = grading_bits
        self._cross = cross_ids
        self._cayley = cayley_ids
        form_of = [None] * len(taus)
        for f in forms:
            for i in f.element_ids:
                form_of[i] = f.index
        self._form_of = tuple(form_of)

    def __len__(self):
        return len(self._taus)

    def __getitem__(self, i) -> KGBElt:
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self._taus))[i]
        t, g = self._taus[i], self._grading_bits[i]
        tbl = twisted_involutions(self.ic)
        tau = tbl.elements[t]
        k = self.ic.rd.n_simple
        denom, half = self.denom, self.denom // 2
        coords = tuple([(a + half * b) % denom for a, b in
                        zip(self._coords[i], fiber_frame(self.ic, t).offset)])
        return KGBElt(
            id=i, tau=tau, coords=coords, length=tau.length,
            square=self.squares[self._square_idx[i]],
            status=self._status(t, g),
            cross=tuple(self._cross[i * k:i * k + k]),
            cayley=tuple(self._cayley[i * k:i * k + k]),
            grading=tuple(zip(tbl.classification(t).im_pos,
                              map(g.__getitem__,
                                  _class_positions(self.ic, t)[0]))),
            table=self)

    def _status(self, t, g) -> tuple:
        """Per simple root over tau index t with class grading bits g:
        'c' or 'n' where theta fixes it, 'r' where it negates it, else
        'C'."""
        theta = twisted_involutions(self.ic).elements[t].theta
        return tuple('cn'[g[p]] if p is not None
                     else 'r' if theta[a] == self.ic.weyl.neg[a] else 'C'
                     for a, p in zip(self.ic.weyl.simple_idx,
                                     _class_positions(self.ic, t)[1]))

    def form_of(self, xid: int) -> int:
        if not 0 <= xid < len(self._form_of):
            raise KeyError(xid)
        return self._form_of[xid]

    def ids_over(self, z: RatVecModZ) -> tuple:
        """The ids of the elements over the central square z."""
        q = self.squares.index(z) if z in self.squares else -1
        return tuple(compress(range(len(self)),
                              map(q.__eq__, self._square_idx)))

    def form_table(self, f: int) -> KGBTable:
        """The subtable of form f, renumbered in id order, with that form
        as its one record."""
        if not 0 <= f < len(self.forms):
            raise KeyError(f)
        form = self.forms[f]
        ids = form.element_ids
        remap = {old: new for new, old in enumerate(ids)}
        remap[None] = None
        k = self.ic.rd.n_simple
        slots = [i * k + s for i in ids for s in range(k)]
        return KGBTable(
            self.ic, self.squares, self.denom,
            *([col[i] for i in ids] for col in (self._taus, self._coords,
                                                self._square_idx,
                                                self._grading_bits)),
            [remap[self._cross[j]] for j in slots],
            [remap[self._cayley[j]] for j in slots],
            (StrongRealForm(0, form.square,
                            tuple(remap[i] for i in form.base_ids),
                            tuple(range(len(ids))), form.quasisplit),))

    def lines(self):
        """One text line per element: id: length cartan# [status] cross
        columns, cayley columns, tau word."""
        tbl = twisted_involutions(self.ic)
        cls_of = cartan_index(self.ic)
        k = self.ic.rd.n_simple
        heads = {}      # (tau index, grading bits) -> the line's parts
        out = []
        for i, key in enumerate(zip(self._taus, self._grading_bits)):
            if key not in heads:
                tau = tbl.elements[key[0]]
                heads[key] = (f"{tau.length} {cls_of[key[0]]} "
                              f"[{','.join(self._status(*key))}]",
                              tau.tau_word_str() or "e")
            head, word = heads[key]
            cr = " ".join(map(str, self._cross[i * k:i * k + k]))
            cy = " ".join("*" if j is None else str(j)
                          for j in self._cayley[i * k:i * k + k])
            out.append(f"{i}: {head} {cr} {cy} {word}")
        return out

    def dot(self):
        """DOT graph: cross edges undirected, Cayley edges directed and
        labeled by (1-based) simple index."""
        k = self.ic.rd.n_simple
        out = ["digraph kgb {"]
        out += [f'  n{i} [label="{i}"];' for i in range(len(self))]
        for i in range(len(self)):
            # the cross action is an involution: an edge is written once,
            # from its lower end
            for s, j in enumerate(self._cross[i * k:i * k + k]):
                if j > i:
                    out.append(f'  n{i} -> n{j} '
                               f'[dir=none, style=dashed, label="{s + 1}"];')
            for s, j in enumerate(self._cayley[i * k:i * k + k]):
                if j is not None:
                    out.append(f'  n{i} -> n{j} [label="{s + 1}"];')
        out.append("}")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# move arithmetic: per-key tables on integer class coordinates


def _delta_signs(ic) -> dict:
    """For each delta-imaginary positive root beta, the sign (0 or 1) by
    which delta acts on a root vector for beta: conjugating by delta a
    lift sigma_beta of the reflection in beta fixes it (sign 0) or
    multiplies it by x_{m_beta} (sign 1).  delta preserves a pinning, so
    the sign is 1 exactly on the roots alpha + gamma(alpha), gamma(alpha)
    != alpha (the non-reduced restricted roots of a twisted A_2n,
    Steinberg 1968): a W^delta-stable set that holds each A2 fold and no
    simple root, and each delta-imaginary root is W^delta-conjugate to a
    folded simple root.  The Tits group confirms each A2 fold beta =
    alpha_i + alpha_j, j = gamma(i): with sigma = sigma_i sigma_j
    sigma_i^-1, delta sigma delta^-1 sigma^-1 must be x_{m_beta}."""
    rd, wg, gamma = ic.rd, ic.weyl, ic.gamma_perm
    folds = {rd.root_index.get(tuple(map(add, rd.roots[a], rd.roots[g])))
             for a, g in enumerate(gamma[rd.n_pos:], rd.n_pos) if g != a}
    tg = tits_group(ic)
    for i, j in enumerate(ic.diagram_perm):
        b = wg.simple_perms[i][wg.simple_idx[j]]    # s_i(alpha_j)
        if i < j and b != wg.simple_idx[j]:         # an A2 pair
            si = tg.canonical_lift(wg.simple(i))
            sig = tg.multiply(tg.multiply(si, tg.canonical_lift(wg.simple(j))),
                              tg.inverse(si))
            d = tg.multiply(tg.twist(sig), tg.inverse(sig))
            if d.w.word or d.t != tg.m_alpha(b):
                raise WeylError("delta does not act by -1 on an A2 fold")
    return {b: int(b in folds)
            for b in twisted_involutions(ic).classification(0).im_pos}


def _base_grading(ic, fibers, denom) -> list:
    """Grading bits, in the order of the positive imaginary roots, at
    each seed y = denom V^-1 lambda of the distinguished fiber, given
    per central square with its base point first: a delta-imaginary
    positive root beta is noncompact iff the parity of
    <beta, lambda> = (beta V) . y / denom, a multiple of 1/2, differs
    from the sign by which delta acts on its root vector.  The seeds
    over a square differ by denom/2 on fiber coordinates, so the
    pairings are checked half-integral at its base point alone."""
    tbl = twisted_involutions(ic)
    vt = tuple(zip(*fiber_frame(ic, 0).v))
    eps = _delta_signs(ic)
    rows = [(mat_apply(vt, ic.rd.roots[b]), eps[b])
            for b in tbl.classification(0).im_pos]
    half = denom // 2
    out = []
    for ys in fibers:
        if ys and any(sum(map(mul, row, ys[0])) % half for row, _ in rows):
            raise WeylError("base fiber coordinate pairing not half-integral")
        out += [tuple([(e + sum(map(mul, row, y)) // half) & 1
                       for row, e in rows]) for y in ys]
    return out


def _move_map(ic, tau_idx, s, cayley, denom):
    """The cross action by simple root s (or, with cayley, the Cayley
    transform in alpha_s) on the fiber over tau_idx, as data shared by
    every element there: (rows, offset, grading map, rank-one part) on
    class coordinates f = y - o_tau, y the fiber coordinates in tau's
    frame.  The cross action conjugates exp(2 pi i lambda) sigma_w delta
    by sigma_s, the Cayley transform left-multiplies it by sigma_s; either
    way y2 = M y + c mod denom with M = V_tau2^-1 S_s V_tau, so f2 = M f +
    (M o_tau + c - o_tau2).  M is V_rho2^-1 P_tau2^-1 S_s P_tau V_rho,
    which depends on the move's key alone, and so does the offset, as the
    move is the key's action on X.  An element moves in one of two forms:

    - rank-one loop, where s fixes tau and so its frame V: M = 1 - c r
      with r = alpha_s V and c = V^-1 alpha_s^v, zeroed on the kernel
      coordinates.  The part is (r, c, fixes); with t = r . f mod
      denom, f2 = f - t c + offset, and the memo fixes records per t
      whether t c = offset, that is whether s fixes the element.
    - general rows: f2[j] = row_j . f + offset[j], or 0 where row_j is
      None (on tau2's kernel).

    Grading bits are in the order of the class representatives' positive
    imaginary roots: a cross move maps them by g2 = regrade(g), a Cayley
    move by g2[j] = g[at[j]] ^ flips[j] with (at, flips) = regrade.  tau2
    is read from the involution table and checked against the Weyl part
    of the Tits product."""
    tg = tits_group(ic)
    tbl = twisted_involutions(ic)
    rd = ic.rd
    alpha, av = rd.simple_roots[s], rd.simple_coroots[s]
    t2 = (tbl.cayley if cayley else tbl.cross)[tau_idx][s]
    # cross: sigma_s sigma_w delta sigma_s^-1 = sigma_s sigma_w
    # sigma_{gamma(s)}^-1 delta = x_u sigma_w2 delta; Cayley: sigma_s sigma_w
    # = x_u sigma_w2; either way lambda2 = S_s lambda + u / 2
    perm, u = tg.conjugate_simple(s, tbl.elements[tau_idx].w,
                                  None if cayley else ic.diagram_perm[s])
    if perm != tbl.elements[t2].w.perm:
        raise WeylError(("Cayley transform" if cayley else "cross action")
                        + " disagrees with the involution table")
    fr, fr2 = fiber_frame(ic, tau_idx), fiber_frame(ic, t2)
    kernel = fr2.kernel
    half = denom // 2
    o1 = [half * b for b in fr.offset]
    rows = rank_one = None
    if t2 == tau_idx:
        r = tuple([sum(map(mul, alpha, col)) for col in zip(*fr.v)])
        c = tuple([0 if j in kernel else sum(map(mul, row, av))
                   for j, row in enumerate(fr.vinv)])
        rank_one = (r, c, {})
        ro = sum(map(mul, r, o1))
        m = [a - ro * b for a, b in zip(o1, c)]
    else:
        svt = tuple(zip(*_reflect_rows(fr.v, alpha, av)))
        rows = tuple([None if j in kernel else
                      tuple([sum(map(mul, row, col)) for col in svt])
                      for j, row in enumerate(fr2.vinv)])
        m = [0 if row is None else sum(map(mul, row, o1)) for row in rows]
    # c = D/2 V_tau2^-1 u sums the columns of V_tau2^-1 at the set bits
    # of u; c, o_tau2 and M o_tau are 0 on tau2's kernel
    offset = tuple([0 if j in kernel else
                    (a + half * (sum(compress(row, u)) - b)) % denom
                    for j, (a, row, b) in enumerate(zip(m, fr2.vinv,
                                                        fr2.offset))])
    # tau2's j-th imaginary root is class bit pos2[j]: a cross move reads
    # it at +-s of it over tau, a Cayley move at the same root, as it
    # keeps the imaginary roots of tau orthogonal to alpha_s
    cls, im2 = tbl.classification(tau_idx), tbl.classification(t2).im_pos
    if cayley:
        if im2 != tuple(b for b in cls.im_pos
                        if not sum(map(mul, rd.roots[b], av))):
            raise WeylError("Cayley transform misses an imaginary root")
        reads = [cls.im_index[b] for b in im2]
    else:
        sp, neg = ic.weyl.simple_perms[s], ic.weyl.neg
        # max: the positive one of +-s(b)
        reads = [cls.im_index.get(max(sp[b], neg[sp[b]])) for b in im2]
        if len(im2) != len(cls.im_pos) or None in reads:
            raise WeylError("cross action misses an imaginary root")
    pos1 = _class_positions(ic, tau_idx)[0]
    pos2 = _class_positions(ic, t2)[0]
    at = [0] * len(pos2)
    for j, a in zip(pos2, reads):
        at[j] = pos1[a]
    if not cayley:
        # tuple(g) is g itself; a map that moves a bit moves two
        return rows, offset, (tuple if at == list(range(len(at)))
                              else itemgetter(*at)), rank_one
    flips = [0] * len(pos2)
    for j, b in zip(pos2, im2):
        flips[j] = int(tuple(map(add, alpha, rd.roots[b])) in rd.root_index)
    return rows, offset, (tuple(at), tuple(flips)), rank_one


def _class_positions(ic, tau_idx) -> tuple:
    """(pos, simple) for tau_idx: pos[j] is the position, among the
    positive imaginary roots of its Cartan class representative, of
    +-P_tau^-1 of tau's j-th one, so that the grading of P_tau x there is
    x's at pos[j]; simple holds per simple root that position, or None
    when the root is not imaginary at tau_idx."""
    cache = ic._cache.setdefault('class_positions', {})
    out = cache.get(tau_idx)
    if out is None:
        tbl = twisted_involutions(ic)
        cls = tbl.classification(tau_idx)
        rep = cartan_classes(ic)[cartan_index(ic)[tau_idx]].rep
        at = tbl.classification(rep).im_index
        inv, neg = _inverse(fiber_frame(ic, tau_idx).path), ic.weyl.neg
        # max: the positive one of +-b
        pos = tuple([at.get(max(inv[b], neg[inv[b]])) for b in cls.im_pos])
        if len(pos) != len(at) or None in pos:
            raise WeylError("the frame path misses an imaginary root")
        out = cache[tau_idx] = (pos, tuple(
            pos[cls.im_index[a]] if cls.theta[a] == a else None
            for a in ic.weyl.simple_idx))
    return out


# the move of the key w = 1: f and the grading bits stay (tuple(g) is g)
_STAY = (None, None, tuple, None)


# ---------------------------------------------------------------------------
# enumeration


def _validate_square(ic, z: RatVecModZ) -> RatVecModZ:
    """z reduced mod the lattice, after checking its length and, on the
    integers D z, that it is central and fixed by the twist."""
    if not isinstance(z, RatVecModZ):
        raise TypeError(f"square must be a RatVecModZ, got {type(z).__name__}")
    if len(z.entries) != ic.rank:
        raise ValueError(f"square needs {ic.rank} coordinates, "
                         f"got {len(z.entries)}")
    den = z.order
    y = z.scaled(den)
    if any(vec_dot(a, y) % den for a in ic.rd.simple_roots):
        raise ValueError("square is not central")
    if any((x - g) % den
           for x, g in zip(y, mat_apply(ic.gamma_mat_dual, y))):
        raise ValueError("square is not fixed by the twist")
    return RatVecModZ.from_scaled(y, den)


def enumerate_X(ic: InnerClass) -> KGBTable:
    """The one-sided space over every central square, built breadth-first
    from the distinguished fiber once per inner class.  Every move keeps
    the square, so X over one square z is the slice table.ids_over(z),
    a union of strong real forms."""
    if 'kgbtable' in ic._cache:
        return ic._cache['kgbtable']
    squares = central_fixed_points(ic)
    tbl = twisted_involutions(ic)
    wg = ic.weyl
    k = ic.rd.n_simple
    blank = [None] * k
    classes, class_of = cartan_classes(ic), cartan_index(ic)

    # fiber coordinates y = denom * V^-1 lambda are integers mod denom:
    # denom clears the denominators of every solution over the squares
    denom = 2 * lcm(2, *(z.order for z in squares))
    # the columns: ys holds class coordinates f, grads class grading
    # bits; an element's square is kept as its index in squares, and
    # roots[i] is the seed whose search found element i
    taus, ys, sqs, grads, roots = [], [], [], [], []
    cross_ids, cayley_ids = [], []
    key_index = {}

    def insert(key, q, grading, root):
        j = len(taus)
        key_index[key] = j
        taus.append(key[0])
        ys.append(key[1])
        sqs.append(q)
        grads.append(grading)
        roots.append(j if root is None else root)
        cross_ids.extend(blank)
        cayley_ids.extend(blank)
        return j

    fs0 = fiber_space(tbl.elements[0], ic)
    fibers = [fs0.coordinates(z, denom) for z in squares]
    seeds = [(q, y) for q, ys in enumerate(fibers) for y in ys]
    gradings = _base_grading(ic, fibers, denom)
    for (q, y), g in zip(seeds, gradings):
        insert((0, y), q, g, None)

    # strong real forms = connected components of the move graph: every
    # element lies in the component of its root seed, and an edge to an
    # element already found joins two seeds' components
    seed_parent = list(range(len(taus)))

    def find(a):
        while seed_parent[a] != a:
            a = seed_parent[a]
        return a

    one, neg, simple_idx = wg.identity.perm, wg.neg, wg.simple_idx
    # per tau, P_tau and P_tau^-1, filled one Cartan class at a time
    paths = {}

    def enter(c):
        for t in c.members:
            p = fiber_frame(ic, t).path
            paths[t] = (p, _inverse(p))

    # the moves by key number; key 0 is w = 1
    key_ids = {}
    moves = [_STAY]

    def key_id(key):
        kid = key_ids[key] = len(moves)
        moves.append(None)
        return kid

    def make_slots(t):
        """Per tau, one slot (s, class position of alpha_s, cayley, tau2,
        key number) per cross move and then per Cayley move.  The keys
        are checked against the table's targets: P_tau theta_rho P_tau^-1
        = theta_tau, a cross key w fixes theta_rho and a Cayley key
        carries s_beta theta_rho to theta_rho2 (see the module doc).  The
        cross check reads w alone, and a wrong target gives a w that
        fixes no theta_rho, so it runs once per key.  The Cayley check
        is read on tau2: u s_beta theta_rho u^-1 = P_tau2^-1 s theta_tau
        P_tau2 is theta_rho2 = P_tau2^-1 theta_tau2 P_tau2 exactly when
        s theta_tau = theta_tau2, as tau2's own check holds."""
        rep = classes[class_of[t]].rep
        if t not in paths:
            enter(classes[class_of[t]])
        theta, at = tbl.elements[rep].theta, tbl.classification(rep).im_index
        p, pinv = paths[t]
        theta_t = tbl.elements[t].theta
        if p != one and _compose(p, theta) != _compose(theta_t, p):
            raise WeylError("cross action disagrees with the involution table")
        out = []
        for s, t2 in enumerate(tbl.cross[t]):
            w = _compose(paths[t2][1], _compose(wg.simple_tables[s], p))
            kid = 0 if w == one else key_ids.get((rep, w))
            if kid is None:
                if _compose(w, theta) != _compose(theta, w):
                    raise WeylError(
                        "cross action disagrees with the involution table")
                kid = key_id((rep, w))
            out.append((s, None, False, t2, kid))
        for s, a in enumerate(simple_idx):
            if theta_t[a] != a:
                continue
            t2 = tbl.cayley[t][s]
            if _compose(wg.simple_tables[s], theta_t) != \
                    tbl.elements[t2].theta:
                raise WeylError(
                    "Cayley transform disagrees with the involution table")
            if t2 not in paths:
                enter(classes[class_of[t2]])
            u = _compose(paths[t2][1], p)
            # beta = P_tau^-1 alpha_s; its grading bit sits at +-beta
            b = pinv[a]
            key = (rep, b, u)
            kid = key_ids.get(key)
            out.append((s, at[max(b, neg[b])], True, t2,
                        key_id(key) if kid is None else kid))
        return out

    # breadth first: every new element is queued at the end, so the
    # queue is the id order.  A key's move is built on first use
    slots = {}
    i = 0
    while i < len(taus):
        tau_idx, y, q, g, root = taus[i], ys[i], sqs[i], grads[i], roots[i]
        if tau_idx not in slots:
            slots[tau_idx] = make_slots(tau_idx)
        base = i * k
        for s, p, cayley, t2, kid in slots[tau_idx]:
            if cayley:
                if not g[p]:
                    continue
            elif cross_ids[base + s] is not None:
                # linked from the other end: the cross action of s is an
                # involution
                continue
            move = moves[kid]
            if move is None:
                move = moves[kid] = _move_map(ic, tau_idx, s, cayley, denom)
            rows, offset, regrade, rank_one = move
            if cayley:
                at, flips = regrade
                g2 = tuple(map(xor, map(g.__getitem__, at), flips))
            else:
                g2 = regrade(g)
            if rank_one is not None:
                r, c, fixes = rank_one
                t = sum(map(mul, r, y)) % denom
                fixed = fixes.get(t)
                if fixed is None:
                    fixed = fixes[t] = not any(
                        [(t * b - o) % denom for b, o in zip(c, offset)])
                if fixed:
                    # s fixes x: a link to itself, with no key to look up
                    if g2 != g:
                        raise WeylError("inconsistent duplicate element")
                    cross_ids[base + s] = i
                    continue
                y2 = tuple([(a - t * b + o) % denom
                            for a, b, o in zip(y, c, offset)])
            elif rows is None:     # the key w = 1
                y2 = y
            else:
                y2 = tuple([o if row is None
                            else (sum(map(mul, row, y)) + o) % denom
                            for row, o in zip(rows, offset)])
            key = (t2, y2)
            j = key_index.get(key)
            if j is None:
                j = insert(key, q, g2, root)
            elif sqs[j] != q or grads[j] != g2:
                raise WeylError("inconsistent duplicate element")
            elif roots[j] != root:
                ra, rb = find(root), find(roots[j])
                seed_parent[max(ra, rb)] = min(ra, rb)
            if cayley:
                cayley_ids[base + s] = j
            else:
                back = cross_ids[j * k + s]
                if back is None:
                    cross_ids[j * k + s] = i
                elif back != i:
                    raise WeylError("cross action is not an involution")
                cross_ids[base + s] = j
        i += 1

    # sanity: squares recompute, lengths nondecreasing.  A square is
    # invariant under the cross action, so it is checked on class
    # coordinates at the representative's Smith form U (1 + theta_v) V =
    # diag(d): (1 + theta_v) V f = D (z - nu) mod D, times the unimodular
    # U, is diag(d) f = U (D z - D nu) mod D
    shifted = {}    # (Cartan class, square index) -> U (D z - D nu), d
    for i, (t, f, q) in enumerate(zip(taus, ys, sqs)):
        key = (class_of[t], q)
        if key not in shifted:
            fs = fiber_space(tbl.elements[classes[key[0]].rep], ic)
            shifted[key] = fs._shifted(squares[q], denom), fs._diag
        uw, diag = shifted[key]
        if uw is None or any([(a - d * x) % denom
                              for a, d, x in zip(uw, diag, f)]):
            raise WeylError(f"square of element {i} does not recompute")
        if i and tbl.elements[t].length < tbl.elements[taus[i - 1]].length:
            raise WeylError("element lengths decrease")

    # each component holds a seed, so its least seed is its least id;
    # the seeds are the base fiber, tau index 0
    seed_root = [find(r) for r in range(len(seed_parent))]
    comps = {}
    for i, r in enumerate(roots):
        comps.setdefault(seed_root[r], []).append(i)
    no_im = {t for t in set(taus) if not tbl.classification(t).im_pos}
    quasisplit = {seed_root[r] for r, t in zip(roots, taus) if t in no_im}
    final = sorted(comps, key=lambda r: (r in quasisplit, r))
    forms = tuple(StrongRealForm(
        index=f, square=squares[sqs[r]],
        base_ids=tuple(i for i in comps[r] if i < len(seeds)),
        element_ids=tuple(comps[r]), quasisplit=r in quasisplit)
        for f, r in enumerate(final))
    table = ic._cache['kgbtable'] = KGBTable(
        ic, squares, denom, taus, ys, sqs, grads, cross_ids, cayley_ids, forms)
    return table


def _table_of(ic: InnerClass, x0: KGBElt) -> KGBTable:
    """The table of x0, checked to be one of ic or of an equal class."""
    table = x0.table
    if (table.ic.rd, table.ic.gamma) != (ic.rd, ic.gamma):
        raise NoMatch("x0 is not an element of this inner class")
    return table


def enumerate_form(ic: InnerClass, x0: KGBElt) -> KGBTable:
    """The subtable X[x0] of everything linked to x0, renumbered, with
    x0's form as its one record."""
    table = _table_of(ic, x0)
    return table.form_table(table.form_of(x0.id))


def strong_real_forms(ic: InnerClass):
    """The strong real forms of ic, the records of its full X: orbits on
    the distinguished fiber, in the canonical order (quasisplit last)."""
    return enumerate_X(ic).forms


# ---------------------------------------------------------------------------
# point operations


def grading(x: KGBElt, root_idx: int) -> int:
    rd = x.table.ic.rd
    _in_range(root_idx, len(rd.roots), "root")
    g = x.grading_map
    if root_idx in g:
        return g[root_idx]
    neg = rd.negative_of(root_idx)
    if neg in g:
        return g[neg]
    raise NotImaginary(f"root {root_idx} is not imaginary at this element")


def cross(s: int, x: KGBElt) -> KGBElt:
    return cross_by_word((s,), x)


def cross_by_word(word, x: KGBElt) -> KGBElt:
    """Cross action of the Weyl element with the given word: the last
    letter acts first."""
    table, xid, k = x.table, x.id, x.table.ic.rd.n_simple
    for s in reversed(tuple(word)):
        xid = table._cross[xid * k + _in_range(s, k, "simple root")]
    return table[xid]


# ---------------------------------------------------------------------------
# real Weyl groups


class RealWeylInfo(NamedTuple):
    """Orders of W(G, H) = W_C^theta x| (Stab_{W_i}(x) x W_r)."""
    total: int
    complex_fixed: int      # |W_C^theta| = |W| / (|class| |W_i| |W_r|)
    stab_imaginary: int     # |Stab_{W_i}(x)|
    real_order: int         # |W_r|
    imaginary_order: int
    orbit_size: int


def real_weyl(x: KGBElt) -> RealWeylInfo:
    """W(G, H) = W_C^theta x| (Stab_{W_i}(x) x W_r) (Vogan 1982): |W_i|
    and |W_r| by subsystem_order, from root heights; tau's Cartan class
    is W / (W_C^theta x| (W_i x W_r)), so |W_C^theta| = |W| / (|class|
    |W_i| |W_r|), a remainder raising WeylError; |Stab| is |W_i| over
    x's W_i-orbit."""
    return _real_weyl(x.table, x.id)


def _real_weyl(table: KGBTable, xid: int) -> RealWeylInfo:
    """real_weyl of element xid, its W_i-orbit walked by id."""
    ic = table.ic
    t = table._taus[xid]
    cls = twisted_involutions(ic).classification(t)
    k = ic.rd.n_simple
    orbit = {xid}
    frontier = [xid]
    while frontier:
        y = frontier.pop()
        for word in cls.imaginary_words:
            z = y
            for s in reversed(word):    # the last letter acts first
                z = table._cross[z * k + s]
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    rest = len(cartan_classes(ic)[cartan_index(ic)[t]].members) \
        * cls.im_order * cls.re_order
    fixed, rem = divmod(ic.weyl.order(), rest)
    if rem:
        raise WeylError(f"|W| not divisible by |class| |W_i| |W_r| = {rest}")
    stab = cls.im_order // len(orbit)
    return RealWeylInfo(
        total=fixed * stab * cls.re_order,
        complex_fixed=fixed, stab_imaginary=stab,
        real_order=cls.re_order, imaginary_order=cls.im_order,
        orbit_size=len(orbit))
