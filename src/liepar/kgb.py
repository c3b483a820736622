"""The one-sided parameter space X.

Elements are strong involutions exp(2 pi i lambda) . sigma_w . delta
modulo torus conjugation, encoded as (tau, lambda) with tau a twisted
involution and lambda a canonical fiber coordinate.  The space carries
the cross action of W, Cayley transforms between fibers, and a Z/2
grading (compact/noncompact) on imaginary roots; connected components
of the move graph are the strong real forms.

The breadth-first search keys an element by integer fiber coordinates
y = D V^-1 lambda mod D in tau's frame (see fiber_frame), with the
kernel coordinates 0 and D = 2 lcm(2, denominators of the central
squares); it builds no Fraction.  Each cross action and Cayley
transform (tau, s) is tabulated once, on first use, as an integer
affine map y -> M y + c mod D plus a map of the grading bits (see
_move_map); its target is read from the involution table.  M is the
identity on an edge of the frames' spanning tree, and 1 - c r for an s
that fixes tau: there an element pays one dot product r . y, and one
that s fixes is linked to itself with no key to look up.  The cross
action of s is an involution, so a cross edge is computed from one end
and linked both ways.  The seeds are the integer solutions over each
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
from .weyl import (InnerClass, WeylError, _in_range, cartan_classes,
                   cartan_index, twisted_involutions)


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
    index, fiber coordinates, square index, grading bits (in the order of
    tau's positive imaginary roots), and k slots each of cross and
    Cayley ids (None where no Cayley transform applies).  It holds only
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
        tau = twisted_involutions(self.ic).elements[t]
        k = self.ic.rd.n_simple
        return KGBElt(
            id=i, tau=tau, coords=self._coords[i], length=tau.length,
            square=self.squares[self._square_idx[i]],
            status=self._status(t, g),
            cross=tuple(self._cross[i * k:i * k + k]),
            cayley=tuple(self._cayley[i * k:i * k + k]),
            grading=tuple(zip(twisted_involutions(self.ic)
                              .classification(t).im_pos, g)), table=self)

    def _status(self, t, g) -> tuple:
        """Per simple root over tau index t with grading bits g: 'c' or
        'n' where theta fixes it, 'r' where it negates it, else 'C'."""
        theta = twisted_involutions(self.ic).elements[t].theta
        return tuple('cn'[g[p]] if p is not None
                     else 'r' if theta[a] == self.ic.weyl.neg[a] else 'C'
                     for a, p in zip(self.ic.weyl.simple_idx,
                                     _simple_positions(self.ic, t)))

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
# move arithmetic: per-move tables on integer fiber coordinates


def _square_map(ic, tau_idx, denom):
    """The central square z = (1 + theta_v) lambda + nu of the element
    with fiber coordinates y over tau_idx, as affine rows on y: with
    lambda = V y / denom in tau's frame, row j gives denom z_j mod
    denom."""
    fr = fiber_frame(ic, tau_idx)
    half = denom // 2
    return tuple((row, half * t) for row, t in zip(fr.square, fr.twice_nu))


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
    every element there: (target tau index, rows, offset, grading map,
    rank-one part), in the frames of the two taus.  An element with
    fiber coordinates y moves to y2 mod denom in one of three forms:

    - translation, y2 = y + offset, where M = V_tau2^-1 S_s V_tau is
      the identity with tau's kernel coordinates: on a cross edge of
      the frames' spanning tree, read from either end, or any other
      cross edge where S_s V_tau = V_tau2.
    - rank-one loop, where s fixes tau and so its frame V: M = 1 - c r
      with r = alpha_s V and c = V^-1 alpha_s^v, zeroed on the kernel
      coordinates.  The part is (r, c, fixes); with t = r . y mod
      denom, y2 = y - t c + offset, and the memo fixes records per t
      whether t c = offset, that is whether s fixes y.
    - general rows: y2[j] = row_j . y + offset[j], or 0 where row_j is
      None (on tau2's kernel).

    The grading bits g map to g2 = regrade(g) on a cross action, and to
    g2[j] = g[at[j]] ^ flips[j] with (at, flips) = regrade on a Cayley
    transform.  The cross action conjugates exp(2 pi i lambda) sigma_w
    delta by sigma_s; the Cayley transform left-multiplies it by
    sigma_s.  tau2 is read from the involution table and checked
    against the Weyl part of that Tits product."""
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
    # lambda2 rewritten on y = denom V^-1 lambda in the frames: the
    # offset sums the columns of V_tau2^-1 at the set bits of u
    fr = fiber_frame(ic, tau_idx)
    fr2 = fiber_frame(ic, t2)
    kernel = fr2.kernel
    offset = tuple([0 if j in kernel else denom // 2 * sum(compress(row, u))
                    for j, row in enumerate(fr2.vinv)])
    rows = rank_one = None
    if t2 == tau_idx:
        rank_one = (tuple([sum(map(mul, alpha, col)) for col in zip(*fr.v)]),
                    tuple([0 if j in kernel else sum(map(mul, row, av))
                           for j, row in enumerate(fr.vinv)]), {})
    elif cayley or (fr2.parent != (tau_idx, s) and fr.parent != (t2, s)):
        sv = _reflect_rows(fr.v, alpha, av)
        if sv != fr2.v or fr.kernel != kernel:
            svt = tuple(zip(*sv))
            rows = tuple([None if j in kernel else
                          tuple([sum(map(mul, row, col)) for col in svt])
                          for j, row in enumerate(fr2.vinv)])
    # grading bits are kept in the order of the positive imaginary roots:
    # a cross move maps tau2's imaginary roots back through s onto tau's,
    # a Cayley move keeps those of tau orthogonal to alpha_s
    im = tbl.classification(tau_idx).im_pos
    im2 = tbl.classification(t2).im_pos
    pos = dict(zip(im, range(len(im))))
    if cayley:
        if im2 != tuple(b for b in im if not sum(map(mul, rd.roots[b], av))):
            raise WeylError("Cayley transform misses an imaginary root")
        regrade = (tuple(map(pos.__getitem__, im2)),
                   tuple([int(tuple(map(add, alpha, rd.roots[b]))
                              in rd.root_index) for b in im2]))
    else:
        sp, neg = ic.weyl.simple_perms[s], ic.weyl.neg
        # max: the positive one of +-s(b)
        p2 = tuple([pos.get(max(sp[b], neg[sp[b]])) for b in im2])
        if len(im2) != len(im) or None in p2:
            raise WeylError("cross action misses an imaginary root")
        # tuple(g) is g itself; a map that moves a bit moves two
        regrade = tuple if p2 == tuple(range(len(p2))) else itemgetter(*p2)
    return t2, rows, offset, regrade, rank_one


def _simple_positions(ic, tau_idx) -> tuple:
    """Per simple root, its position among the positive imaginary roots
    of tau_idx, or None when it is not imaginary there."""
    cls = twisted_involutions(ic).classification(tau_idx)
    return tuple(cls.im_pos.index(a) if cls.theta[a] == a else None
                 for a in ic.weyl.simple_idx)


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
    k = ic.rd.n_simple
    blank = [None] * k

    # fiber coordinates y = denom * V^-1 lambda are integers mod denom:
    # denom clears the denominators of every solution over the squares
    denom = 2 * lcm(2, *(z.order for z in squares))
    # the columns; an element's square is kept as its index in squares,
    # and roots[i] is the seed whose search found element i
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

    # breadth first: every new element is queued at the end, so the
    # queue is the id order.  Per tau, one slot [s, position of alpha_s
    # among the imaginary roots, cayley, move] per cross move and then
    # per Cayley move; a move is tabulated on first use
    slots = {}
    i = 0
    while i < len(taus):
        tau_idx, y, q, g, root = taus[i], ys[i], sqs[i], grads[i], roots[i]
        if tau_idx not in slots:
            pos = _simple_positions(ic, tau_idx)
            slots[tau_idx] = []
            for cayley in (False, True):
                for s, p in enumerate(pos):
                    if not cayley or p is not None:
                        slots[tau_idx].append([s, p, cayley, None])
        base = i * k
        for slot in slots[tau_idx]:
            s, p, cayley, move = slot
            if cayley:
                if not g[p]:
                    continue
            elif cross_ids[base + s] is not None:
                # linked from the other end: the cross action of s is an
                # involution
                continue
            if move is None:
                move = slot[3] = _move_map(ic, tau_idx, s, cayley, denom)
            t2, rows, offset, regrade, rank_one = move
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
            elif rows is None:
                y2 = tuple([(a + o) % denom for a, o in zip(y, offset)])
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

    n = len(taus)
    # sanity: squares recompute, lengths nondecreasing
    square_rows = {t: _square_map(ic, t, denom) for t in set(taus)}
    square_ints = [z.scaled(denom) for z in squares]
    for i in range(n):
        if tuple([(sum(map(mul, row, ys[i])) + c) % denom
                  for row, c in square_rows[taus[i]]]) != square_ints[sqs[i]]:
            raise WeylError(f"square of element {i} does not recompute")
        if i and tbl.elements[taus[i]].length < \
                tbl.elements[taus[i - 1]].length:
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
