"""The one-sided parameter space X.

Elements are strong involutions exp(2 pi i lambda) . sigma_w . delta
modulo torus conjugation, encoded as (tau, lambda) with tau a twisted
involution and lambda a canonical fiber coordinate.  The space carries
the cross action of W, Cayley transforms between fibers, and a Z/2
grading (compact/noncompact) on imaginary roots; connected components
of the move graph are the strong real forms.

The breadth-first search does not carry lambda.  Over tau it keys an
element by integer fiber coordinates y = D V^-1 lambda mod D in tau's
frame (see fiber_frame): V is the Smith-form basis of tau's Cartan class
representative carried along cross edges, the coordinates on the kernel
of 1 + theta_v are 0, and D = 2 lcm(2, denominators of the central
squares).  One Smith form per Cartan class is computed.  For one (tau, s)
the Tits-group product, the target tau2, the shift and the regrading of
the imaginary roots are the same for every element, so each cross action
and Cayley transform is tabulated once per search as an integer affine
map y -> M y + c mod D, with M = V_tau2^-1 S_s V_tau and the kernel rows
of tau2 zeroed, plus a permutation (and, for Cayley, flips) of the
grading bits.  Along an edge of the frames' spanning tree M is the
identity and the move is the translation y -> y + c.  The cross action
of a simple reflection is an involution, so each cross edge is computed
once: the search links x -> x2 and x2 -> x together, skips the move of
s at x2, and stops with WeylError when x2 is already linked elsewhere;
many (tau, s) tables are never built.  Only the status and the positive
imaginary roots of each tau's root classification are read.  The seeds
are formed in the same integer coordinates: the solutions over each
central square on the distinguished fiber come from
FiberSpace.coordinates, and their grading bits from the integer
pairings (beta V) . y of the imaginary roots beta.  The central squares
enter as the integers D z mod D (RatVecModZ.scaled), so the search builds
no Fraction: rationals appear only at the output edge, where
KGBElt.torus_coord forms lambda from y in tau's own Smith coordinates on
first read.

The real Weyl group W(G, H) = W_C^theta x| (Stab_{W_i}(x) x W_r) of x
enumerates no subgroup of W: |W_i|, |W_r| and |W_C^theta| = sqrt
|W(deltaC)| are closed forms read once per tau; only the W_i-orbit of x
is searched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from operator import mul

from .fiber import (_reflect_rows, central_fixed_points, fiber_frame,
                    fiber_space, frame_torus_coord, tits_group)
from .intlinalg import IntMatrix, RatVecModZ, smith_normal_form, vec_dot
from .weyl import (InnerClass, TwistedInvolution, WeylError, _compose,
                   _mat_apply, _mat_mul, cartan_class_of, cartan_classes,
                   cartan_index, twisted_involutions)


class NotImaginary(ValueError):
    pass


class NotNoncompactImaginary(ValueError):
    pass


class NotReal(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class KGBElt:
    id: int
    tau: TwistedInvolution
    coords: tuple          # fiber coordinates y in tau's frame, mod denom
    length: int
    square: RatVecModZ
    status: tuple          # per simple root: 'c' / 'n' / 'r' / 'C'
    cross: tuple           # per simple root: element id
    cayley: tuple          # per simple root: element id or None
    grading: tuple         # sorted (positive imaginary root index, 0/1)
    table: object = field(default=None, repr=False, compare=False)

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

    def tau_word_str(self) -> str:
        return self.tau.tau_word_str()


@dataclass(frozen=True)
class StrongRealForm:
    index: int
    square: RatVecModZ
    base_ids: tuple        # the W_i-orbit in the base fiber
    element_ids: tuple     # all of X[x0]
    quasisplit: bool


class KGBTable:
    def __init__(self, ic, elements, form_partition, quasisplit_forms,
                 squares, generation_log, denom):
        self.ic = ic
        self.denom = denom       # the modulus of the elements' coords
        self.elements = elements
        self.form_partition = form_partition
        self.quasisplit_forms = quasisplit_forms
        self.squares = squares
        self.generation_log = generation_log
        form_of = [None] * len(elements)
        for f, ids in form_partition.items():
            for i in ids:
                form_of[i] = f
        self._form_of = tuple(form_of)
        self._down = {}
        for x in elements:
            for s, target in enumerate(x.cayley):
                if target is not None:
                    self._down.setdefault((s, target), []).append(x.id)

    def __len__(self):
        return len(self.elements)

    def cayley_down_ids(self, s: int, xid: int):
        return tuple(sorted(self._down.get((s, xid), ())))

    def form_of(self, xid: int) -> int:
        if not 0 <= xid < len(self._form_of):
            raise KeyError(xid)
        return self._form_of[xid]

    def lines(self):
        """One text line per element: id: length cartan# [status] cross
        columns, cayley columns, tau word."""
        cls_of = cartan_index(self.ic)
        out = []
        for x in self.elements:
            cr = " ".join(str(j) for j in x.cross)
            cy = " ".join("*" if j is None else str(j) for j in x.cayley)
            word = x.tau_word_str() or "e"
            out.append(f"{x.id}: {x.length} {cls_of[x.tau.index]} "
                       f"[{','.join(x.status)}] {cr} {cy} {word}")
        return out

    def dot(self):
        """DOT graph: cross edges undirected, Cayley edges directed and
        labeled by (1-based) simple index."""
        out = ["digraph kgb {"]
        for x in self.elements:
            out.append(f'  n{x.id} [label="{x.id}"];')
        seen = set()
        for x in self.elements:
            for s, j in enumerate(x.cross):
                if j != x.id and (min(x.id, j), max(x.id, j), s) not in seen:
                    seen.add((min(x.id, j), max(x.id, j), s))
                    out.append(f'  n{min(x.id, j)} -> n{max(x.id, j)} '
                               f'[dir=none, style=dashed, label="{s + 1}"];')
            for s, j in enumerate(x.cayley):
                if j is not None:
                    out.append(f'  n{x.id} -> n{j} [label="{s + 1}"];')
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
    which the distinguished involution delta acts on a root vector for
    beta.  Conjugating by delta a lift sigma_beta of the reflection in
    beta taken inside the root SL(2) either fixes the lift (sign 0) or
    multiplies it by the order-two coroot point x_{m_beta} (sign 1).

    The comparison is read in the Tits group of ic itself.  The Tits
    group of the simply connected datum with the same Cartan matrix and
    twist maps onto it, so the two read the same sign wherever m_beta is
    not 0 in Xv/2Xv.  delta fixes the lifts of W^delta, so a sign is
    constant on W^delta-orbits, and it is 1 only on the orbit of a root
    alpha + gamma(alpha) folded from an A2 pair of simple roots.  Such a
    beta has a root pairing oddly with beta^v (alpha, or its image, with
    pairing 1), so m_beta is not 0 in any datum and a sign 1 is never
    read as 0."""
    if 'delta_signs' in ic._cache:
        return ic._cache['delta_signs']
    tg = tits_group(ic)
    signs = {}
    for b in twisted_involutions(ic).classification(0).im_pos:
        sig = tg.sigma_for_root(b)
        d = tg.multiply(tg.twist(sig), tg.inverse(sig))
        if d.w.word:
            raise WeylError("twist does not fix a delta-imaginary root")
        if all(x == 0 for x in d.t):
            signs[b] = 0
        elif d.t == tg.m_alpha(b):
            signs[b] = 1
        else:
            raise WeylError("sign of delta on a root vector is ill defined")
    ic._cache['delta_signs'] = signs
    return signs


def _base_grading(ic, seeds, denom) -> list:
    """Grading bits, in the order of the positive imaginary roots, at
    each seed y = denom V^-1 lambda of the distinguished fiber: a
    delta-imaginary positive root beta is noncompact iff the parity of
    <beta, lambda> = (beta V) . y / denom, a multiple of 1/2, differs
    from the sign by which delta acts on its root vector."""
    tbl = twisted_involutions(ic)
    vt = tuple(zip(*fiber_frame(ic, 0).v))
    eps = _delta_signs(ic)
    rows = [(_mat_apply(vt, ic.rd.roots[b]), eps[b])
            for b in tbl.classification(0).im_pos]
    half = denom // 2
    out = []
    for y in seeds:
        g = []
        for row, e in rows:
            pair = sum(map(mul, row, y))
            if pair % half:
                raise WeylError(
                    "base fiber coordinate pairing not half-integral")
            g.append((e + pair // half) % 2)
        out.append(tuple(g))
    return out


def _move_map(ic, tau_idx, s, cayley, denom):
    """The cross action by simple root s (or, with cayley, the Cayley
    transform in alpha_s) on the fiber over tau_idx, as data shared by
    every element there: (target tau index, matrix rows, offset, grading
    map), in the frames of the two taus.

    An element with fiber coordinates y and grading bits g moves to
    y2[j] = (row_j . y + c_j) mod denom, or to y2[j] = (y[j] + c_j) mod
    denom when the rows are None, and g2 = (g[p] ^ f for (p, f) in the
    grading map).  The rows are None when S_s V_tau = V_tau2, so that
    M = V_tau2^-1 S_s V_tau is the identity, and tau2 has tau's kernel
    coordinates: on every cross edge of the frames' spanning tree, in
    either direction, and on many other cross edges.  S_s V_tau is a
    rank-one update of V_tau; only a move that is not a translation forms
    the product M.  The cross action conjugates exp(2 pi i lambda)
    sigma_w delta by sigma_s; the Cayley transform left-multiplies it by
    sigma_s."""
    tg = tits_group(ic)
    wg = ic.weyl
    tbl = twisted_involutions(ic)
    rd = ic.rd
    tau = tbl.elements[tau_idx]
    # cross: sigma_s sigma_w delta sigma_s^-1 = sigma_s sigma_w
    # sigma_{gamma(s)}^-1 delta = x_u sigma_w2 delta; Cayley: sigma_s sigma_w
    # = x_u sigma_w2; either way lambda2 = S_s lambda + u / 2
    perm, u = tg.conjugate_simple(s, tau.w,
                                  None if cayley else ic.diagram_perm[s])
    tau2 = tbl.elements[tbl.index_by_perm[_compose(perm, ic.gamma_perm)]]
    if cayley and tau2.index != tbl.cayley[tau_idx][s]:
        raise WeylError("Cayley transform disagrees with the involution table")
    # lambda2 rewritten on y = denom V^-1 lambda in the frames
    fr = fiber_frame(ic, tau_idx)
    fr2 = fiber_frame(ic, tau2.index)
    kernel = fr2.kernel
    c = _mat_apply(fr2.vinv, u)
    offset = tuple(0 if j in kernel else denom // 2 * x
                   for j, x in enumerate(c))
    sv = _reflect_rows(fr.v, rd.simple_roots[s], rd.simple_coroots[s])
    if sv == fr2.v and fr.kernel == kernel:
        rows = None
    else:
        rows = tuple((0,) * rd.rank if j in kernel else row
                     for j, row in enumerate(_mat_mul(fr2.vinv, sv)))
    # grading bits are kept in the order of the positive imaginary roots
    im = tbl.classification(tau_idx).im_pos
    im2 = tbl.classification(tau2.index).im_pos
    source = {}
    if cayley:
        alpha = rd.simple_roots[s]
        for p, b in enumerate(im):
            if vec_dot(rd.roots[b], rd.simple_coroots[s]) == 0:
                flip = tuple(x + y for x, y in zip(alpha, rd.roots[b])) \
                    in rd.root_index
                source[b] = (p, 1 if flip else 0)
    else:
        for p, b in enumerate(im):
            img = wg.simple_perms[s][b]
            source[img if rd.is_positive(img) else wg.neg[img]] = (p, 0)
    if set(source) != set(im2):
        raise WeylError(("Cayley transform" if cayley else "cross action")
                        + " misses an imaginary root")
    return tau2.index, rows, offset, tuple(source[b] for b in im2)


def _simple_positions(ic, tau_idx) -> tuple:
    """Per simple root, its position among the positive imaginary roots
    of tau_idx, or None when it is not imaginary there."""
    cls = twisted_involutions(ic).classification(tau_idx)
    return tuple(cls.im_pos.index(a) if cls.status[a] == 'i' else None
                 for a in ic.weyl.simple_idx)


# ---------------------------------------------------------------------------
# enumeration


def _validate_square(ic, z: RatVecModZ) -> RatVecModZ:
    """z reduced mod the lattice, after checking its length and, on the
    integers D z, that it is central and fixed by the twist."""
    if len(z.entries) != ic.rank:
        raise ValueError(f"square needs {ic.rank} coordinates, "
                         f"got {len(z.entries)}")
    den = z.order
    y = z.scaled(den)
    if any(vec_dot(a, y) % den for a in ic.rd.simple_roots):
        raise ValueError("square is not central")
    if any((x - g) % den
           for x, g in zip(y, _mat_apply(ic.gamma_mat_dual, y))):
        raise ValueError("square is not fixed by the twist")
    return RatVecModZ.from_scaled(y, den)


def enumerate_X(ic: InnerClass, squares=None) -> KGBTable:
    """The full one-sided space (or its slices over the given central
    squares), built breadth-first from the distinguished fiber."""
    cache_key = None
    if squares is None:
        cache_key = 'kgbtable'
        if cache_key in ic._cache:
            return ic._cache[cache_key]
        squares = central_fixed_points(ic)
    else:
        squares = tuple(sorted((_validate_square(ic, z) for z in squares),
                               key=lambda z: z.entries))
    tbl = twisted_involutions(ic)
    rd = ic.rd
    k = rd.n_simple

    # fiber coordinates y = denom * V^-1 lambda are integers mod denom:
    # denom clears the denominators of every solution over the squares
    denom = 2 * lcm(2, *(z.order for z in squares))
    taus, ys, sqs, grads = [], [], [], []
    key_index = {}
    log = []

    def add(tau_idx, y, q, grading, origin):
        key = (tau_idx, y)
        if key in key_index:
            j = key_index[key]
            if sqs[j] != q or grads[j] != grading:
                raise WeylError("inconsistent duplicate element")
            return j, False
        j = len(taus)
        key_index[key] = j
        taus.append(tau_idx)
        ys.append(y)
        sqs.append(q)
        grads.append(grading)
        log.append((j,) + origin)
        return j, True

    queue = deque()
    fs0 = fiber_space(tbl.elements[0], ic)
    # an element's square is kept as its index in squares
    seeds = [(q, y) for q, z in enumerate(squares)
             for y in fs0.coordinates(z, denom)]
    gradings = _base_grading(ic, [y for _, y in seeds], denom)
    for (q, y), g in zip(seeds, gradings):
        queue.append(add(0, y, q, g, (-1, 'seed'))[0])

    moves = {}
    simple_pos = {}
    cross_links = {}
    cayley_links = {}
    while queue:
        i = queue.popleft()
        tau_idx, y, q, g = taus[i], ys[i], sqs[i], grads[i]
        if tau_idx not in simple_pos:
            simple_pos[tau_idx] = _simple_positions(ic, tau_idx)
        for cayley in (False, True):
            for s, p in enumerate(simple_pos[tau_idx]):
                if cayley and (p is None or g[p] != 1):
                    continue
                if not cayley and (i, s) in cross_links:
                    # linked from the other end: the cross action of s
                    # is an involution
                    continue
                key = (tau_idx, s, cayley)
                if key not in moves:
                    moves[key] = _move_map(ic, tau_idx, s, cayley, denom)
                t2, rows, offset, gmap = moves[key]
                if rows is None:
                    y2 = tuple((a + c) % denom for a, c in zip(y, offset))
                else:
                    y2 = tuple((sum(map(mul, row, y)) + c) % denom
                               for row, c in zip(rows, offset))
                g2 = tuple(g[q] ^ f for q, f in gmap)
                j, new = add(t2, y2, q, g2,
                             (i, f"{'c' if cayley else 'x'}{s}"))
                if cayley:
                    cayley_links[(i, s)] = j
                elif cross_links.setdefault((j, s), i) != i:
                    raise WeylError("cross action is not an involution")
                else:
                    cross_links[(i, s)] = j
                if new:
                    queue.append(j)

    n = len(taus)
    # statuses
    statuses = [tuple(tbl.classification(t).status[a] if p is None
                      else 'n' if g[p] else 'c'
                      for a, p in zip(ic.weyl.simple_idx, simple_pos[t]))
                for t, g in zip(taus, grads)]
    # sanity: squares recompute, lengths nondecreasing
    square_rows = {t: _square_map(ic, t, denom) for t in set(taus)}
    square_ints = [z.scaled(denom) for z in squares]
    for i in range(n):
        if tuple((sum(map(mul, row, ys[i])) + c) % denom
                 for row, c in square_rows[taus[i]]) != square_ints[sqs[i]]:
            raise WeylError(f"square of element {i} does not recompute")
        if i and tbl.elements[taus[i]].length < \
                tbl.elements[taus[i - 1]].length:
            raise WeylError("element lengths decrease")

    # strong real forms = connected components of the move graph
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for (i, s), j in cross_links.items():
        union(i, j)
    for (i, s), j in cayley_links.items():
        union(i, j)
    comps = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    ordered = sorted(comps.values(), key=lambda ids: ids[0])
    no_im = {t.index for t in tbl.elements
             if not tbl.classification(t.index).im_pos}
    quasisplit = [any(taus[i] in no_im for i in ids) for ids in ordered]
    final = [ids for ids, q in zip(ordered, quasisplit) if not q] + \
            [ids for ids, q in zip(ordered, quasisplit) if q]
    form_partition = {f: tuple(ids) for f, ids in enumerate(final)}
    quasisplit_forms = tuple(f for f, ids in enumerate(final)
                             if any(taus[i] in no_im for i in ids))

    elements = []
    for i in range(n):
        elements.append(KGBElt(
            id=i, tau=tbl.elements[taus[i]], coords=ys[i],
            length=tbl.elements[taus[i]].length, square=squares[sqs[i]],
            status=statuses[i],
            cross=tuple(cross_links[(i, s)] for s in range(k)),
            cayley=tuple(cayley_links.get((i, s)) for s in range(k)),
            grading=tuple(zip(tbl.classification(taus[i]).im_pos,
                              grads[i]))))
    table = KGBTable(ic, tuple(elements), form_partition, quasisplit_forms,
                     squares, tuple(log), denom)
    for x in elements:
        object.__setattr__(x, 'table', table)
    if cache_key:
        ic._cache[cache_key] = table
    return table


def enumerate_form(ic: InnerClass, x0: KGBElt) -> KGBTable:
    """The subtable X[x0] of everything linked to x0, renumbered."""
    full = x0.table if x0.table is not None else enumerate_X(ic)
    ids = full.form_partition[full.form_of(x0.id)]
    remap = {old: new for new, old in enumerate(ids)}
    elements = []
    for old in ids:
        x = full.elements[old]
        elements.append(KGBElt(
            id=remap[old], tau=x.tau, coords=x.coords,
            length=x.length, square=x.square, status=x.status,
            cross=tuple(remap[j] for j in x.cross),
            cayley=tuple(None if j is None else remap[j] for j in x.cayley),
            grading=x.grading))
    log = tuple((remap[i], remap.get(src, -1), mv)
                for (i, src, mv) in full.generation_log if i in remap)
    table = KGBTable(ic, tuple(elements), {0: tuple(range(len(ids)))},
                     (0,) if full.form_of(x0.id) in full.quasisplit_forms
                     else (), full.squares, log, full.denom)
    for x in elements:
        object.__setattr__(x, 'table', table)
    return table


def strong_real_forms(ic: InnerClass):
    """Strong real forms as orbits on the distinguished fiber, in the
    canonical order (quasisplit last)."""
    table = enumerate_X(ic)
    forms = []
    for f, ids in table.form_partition.items():
        base = tuple(i for i in ids if table.elements[i].length == 0)
        forms.append(StrongRealForm(
            index=f, square=table.elements[ids[0]].square, base_ids=base,
            element_ids=ids, quasisplit=f in table.quasisplit_forms))
    return tuple(forms)


# ---------------------------------------------------------------------------
# point operations


def grading(x: KGBElt, root_idx: int) -> int:
    g = x.grading_map
    if root_idx in g:
        return g[root_idx]
    rd = x.table.ic.rd
    neg = rd.negative_of(root_idx)
    if neg in g:
        return g[neg]
    raise NotImaginary(f"root {root_idx} is not imaginary at this element")


def cross(s: int, x: KGBElt) -> KGBElt:
    return x.table.elements[x.cross[s]]


def cross_by_word(word, x: KGBElt) -> KGBElt:
    """Cross action of the Weyl element with the given word: the last
    letter acts first."""
    for s in reversed(tuple(word)):
        x = cross(s, x)
    return x


def cayley_up(s: int, x: KGBElt) -> KGBElt:
    if x.status[s] != 'n':
        raise NotNoncompactImaginary(
            f"simple root {s} is not noncompact imaginary here")
    return x.table.elements[x.cayley[s]]


def cayley_down(s: int, x: KGBElt):
    if x.status[s] != 'r':
        raise NotReal(f"simple root {s} is not real here")
    ids = x.table.cayley_down_ids(s, x.id)
    if len(ids) not in (1, 2):
        raise WeylError(f"{len(ids)} Cayley preimages, expected 1 or 2")
    return tuple(x.table.elements[i] for i in ids)


# ---------------------------------------------------------------------------
# real Weyl groups and Cartans


@dataclass(frozen=True)
class RealWeylInfo:
    """Orders of W(G, H) = W_C^theta x| (Stab_{W_i}(x) x W_r)."""
    total: int
    complex_fixed: int      # |(W_C)^tau|
    stab_imaginary: int     # |Stab_{W_i}(x)|
    real_order: int         # |W_r|
    imaginary_order: int
    orbit_size: int


def _imaginary_words(ic, tau_idx) -> tuple:
    """Words of the generators of W_i at tau_idx, formed once per tau."""
    words = ic._cache.setdefault('imaginary_words', {})
    if tau_idx not in words:
        wg = ic.weyl
        words[tau_idx] = tuple(
            wg.canonical_word(p, p) for p in map(
                wg.reflection_perm,
                twisted_involutions(ic).classification(tau_idx).im_simples))
    return words[tau_idx]


def real_weyl(x: KGBElt) -> RealWeylInfo:
    """W(G, H) = W_C^theta x| (Stab_{W_i}(x) x W_r) (Vogan 1982): |W_i|,
    |W_r| and |W_C^theta| = sqrt |W(deltaC)| are the closed forms of
    tau's root classification; |Stab| is |W_i| over x's W_i-orbit."""
    ic = x.table.ic
    cls = twisted_involutions(ic).classification(x.tau.index)
    words = _imaginary_words(ic, x.tau.index)
    orbit = {x.id}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        for word in words:
            z = cross_by_word(word, y)
            if z.id not in orbit:
                orbit.add(z.id)
                frontier.append(z)
    stab = cls.im_order // len(orbit)
    return RealWeylInfo(
        total=cls.complex_fixed * stab * cls.re_order,
        complex_fixed=cls.complex_fixed, stab_imaginary=stab,
        real_order=cls.re_order, imaginary_order=cls.im_order,
        orbit_size=len(orbit))


def cartans_for(x0: KGBElt):
    """Cartan classes met by the strong real form of x0, with the torus
    signature, a class invariant, read at the class representative."""
    table = x0.table
    ic = table.ic
    tbl = twisted_involutions(ic)
    classes = cartan_classes(ic)
    ids = table.form_partition[table.form_of(x0.id)]
    met = sorted({cartan_class_of(ic, table.elements[i].tau.index)
                  for i in ids})
    return tuple((c, fiber_space(tbl.elements[classes[c].rep], ic).signature)
                 for c in met)


@dataclass(frozen=True)
class ReducedSpace:
    z0: tuple          # transversal of Z^Gamma mod {z delta(z)}
    slices: dict       # z -> element ids of X(z)


def reduced_space(ic: InnerClass) -> ReducedSpace:
    """The reduced space: one X(z) slice per class of central squares
    modulo the subgroup {zeta delta(zeta)}.  With U M V = diag(d) for
    M = [1 + gamma_v; simple roots], z1 - z2 = (1 + gamma_v) zeta for a
    central zeta exactly when every row j of U whose invariant factor is
    0 (j < n with d_j = 0, and every j >= n) maps D (z1 - z2) to 0 mod D;
    those rows, applied to D z, key the classes."""
    rd = ic.rd
    n = rd.rank
    zg = central_fixed_points(ic)
    rows = [[(1 if i == j else 0) + ic.gamma_mat_dual[i][j]
             for j in range(n)] for i in range(n)]
    rows += [list(a) for a in rd.simple_roots]
    u, d, _ = smith_normal_form(IntMatrix.from_rows(rows))
    zero_rows = [u.row(j)[:n] for j in range(u.rows)
                 if j >= n or d[j, j] == 0]
    den = lcm(*(z.order for z in zg))
    classes = {}
    for z in zg:
        y = z.scaled(den)
        classes.setdefault(tuple(vec_dot(r, y) % den for r in zero_rows), z)
    z0 = tuple(classes.values())
    table = enumerate_X(ic)
    slices = {z: tuple(x.id for x in table.elements if x.square == z)
              for z in z0}
    return ReducedSpace(z0, slices)
