"""Weyl group arithmetic, inner classes, twisted involutions and their
Cartan classes.

A Weyl element is its shortlex-minimal reduced word together with the
permutation it induces on the roots: perm[r] is the index of w(root r)
in the root datum's (height, lex) order, where the negative roots are
exactly the indices below n_pos.  Composition is tuple indexing, a
descent is a comparison with n_pos, and the canonical word is peeled off
the permutation one smallest left descent at a time.  The action matrix
on the character lattice X (a word s_{i1},...,s_{ik} acts by
S_{i1} @ ... @ S_{ik}) and that of the inverse are derived on first use
from the images of the simple roots.

A twisted involution is keyed by the permutation of the roots induced
by theta = w o gamma, where the diagram involution gamma permutes the
roots; the table of them is one breadth-first pass on those
permutations, level by level.  Each tau of a level makes its cross and
Cayley moves once; links into the next level wait in a pending list
until that level is indexed, and a cross link is recorded in both
directions, so each cross edge is composed once.  When gamma fixes
every root, w and theta share one permutation tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .intlinalg import (IntMatrix, rational_inverse, smith_normal_form,
                        vec_dot)
from .rootdatum import RootDatum


class WeylError(ValueError):
    pass


class InvalidInvolution(WeylError):
    pass


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def _mat_apply(m, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def _compose(a, b):
    """The permutation a o b: b first, then a."""
    return tuple(map(a.__getitem__, b))


def perm_closure(gens, size, cap: int = 10 ** 7) -> set:
    """The group generated by the given permutations of range(size)."""
    seen = {tuple(range(size))}
    queue = list(seen)
    for p in queue:
        for q in (_compose(p, g) for g in gens):
            if q not in seen:
                seen.add(q)
                queue.append(q)
        if len(seen) > cap:
            raise WeylError("subgroup closure exceeds cap")
    return seen


def _inverse(perm):
    inv = [0] * len(perm)
    for r, q in enumerate(perm):
        inv[q] = r
    return tuple(inv)


@dataclass(frozen=True, eq=False)
class WeylElt:
    word: tuple
    perm: tuple   # perm[r] is the index of w(root r)
    group: "WeylGroup" = field(repr=False)

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    @property
    def length(self) -> int:
        return len(self.word)

    @cached_property
    def inv_perm(self) -> tuple:
        return _inverse(self.perm)

    @cached_property
    def mat(self) -> tuple:
        """Action matrix on X."""
        return self.group.lattice_matrix(self.perm)

    @cached_property
    def inv(self) -> tuple:
        """Action matrix of the inverse on X."""
        return self.group.lattice_matrix(self.inv_perm)

    def __repr__(self):
        return "WeylElt(" + ",".join(str(i + 1) for i in self.word) + ")" \
            if self.word else "WeylElt(e)"


class WeylGroup:
    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.simple_mats = tuple(rd.reflection_X(i).entries
                                 for i in range(rd.n_simple))
        self.simple_mats_dual = tuple(rd.reflection_Xv(i).entries
                                      for i in range(rd.n_simple))
        self.n_pos = rd.n_pos
        self.simple_idx = rd.simple_indices()
        self.neg = tuple(rd.negative_of(r) for r in range(len(rd.roots)))
        self.simple_perms = tuple(self.reflection_perm(a)
                                  for a in self.simple_idx)
        # times_simple[i](perm) is the permutation of w s_i
        self.times_simple = tuple(itemgetter(*p) for p in self.simple_perms)
        self.identity = WeylElt((), tuple(range(len(rd.roots))), self)
        self._simples = tuple(WeylElt((i,), p, self)
                              for i, p in enumerate(self.simple_perms))
        self._longest = None

    # -- basic element construction -------------------------------------

    def simple(self, i: int) -> WeylElt:
        return self._simples[i]

    def reflection_perm(self, root_idx: int) -> tuple:
        """The permutation of the roots by the reflection in a root."""
        rd = self.rd
        a, av = rd.roots[root_idx], rd.coroots[root_idx]
        return tuple(rd.index_of([x - c * y for x, y in zip(b, a)])
                     for b, c in ((b, vec_dot(b, av)) for b in rd.roots))

    @cached_property
    def _coords(self):
        """c_i(e_k) = sum_j (alpha_j^v)_k (C^-1)_{ji} for the standard basis
        vectors e_k of X, as integer rows over a common denominator den:
        with U C V = diag(d), den C^-1 = V diag(den / d) U for den the
        largest invariant factor."""
        rd = self.rd
        k = rd.n_simple
        if not k:
            return 1, ((),) * rd.rank
        u, d, v = smith_normal_form(rd.cartan_matrix)
        den = d[k - 1, k - 1]
        scale = [den // d[t, t] for t in range(k)]
        cinv = [[sum(v[j, t] * scale[t] * u[t, i] for t in range(k))
                 for i in range(k)] for j in range(k)]
        return den, tuple(
            tuple(sum(rd.simple_coroots[j][e] * cinv[j][i] for j in range(k))
                  for i in range(k))
            for e in range(rd.rank))

    def lattice_matrix(self, perm) -> tuple:
        """Action matrix on X of the element permuting the roots by perm:
        x -> x + sum_i c_i(x) (w(alpha_i) - alpha_i), where c(x) are the
        simple-root coordinates of x read off the inverse Cartan matrix
        (the part of x orthogonal to every coroot is fixed)."""
        rd = self.rd
        n = rd.rank
        den, coords = self._coords
        moves = [tuple(x - y for x, y in zip(rd.roots[perm[a]], rd.roots[a]))
                 for a in self.simple_idx]
        return tuple(
            tuple((r == e) + sum(c * m[r] for c, m in zip(coords[e], moves))
                  // den for e in range(n))
            for r in range(n))

    def canonical_word(self, perm) -> tuple:
        """Shortlex-minimal reduced word of the element permuting the
        roots by perm: greedily peel the smallest left descent i, the
        first with w^{-1}(alpha_i) < 0."""
        word = []
        inv = _inverse(perm)
        npos = self.n_pos
        while inv != self.identity.perm:
            for i, a in enumerate(self.simple_idx):
                if inv[a] < npos:
                    word.append(i)
                    inv = self.times_simple[i](inv)
                    break
            else:
                raise WeylError("permutation is not a Weyl group element")
        return tuple(word)

    def from_perm(self, perm) -> WeylElt:
        return WeylElt(self.canonical_word(perm), perm, self)

    def from_matrix(self, mat) -> WeylElt:
        """The element with the given action matrix on X, found from the
        images of the roots."""
        rd = self.rd
        perm = tuple(rd.root_index.get(_mat_apply(mat, r)) for r in rd.roots)
        if None in perm:
            raise WeylError("matrix does not permute the roots")
        w = self.from_perm(perm)
        if w.mat != tuple(map(tuple, mat)):
            raise WeylError("matrix is not a Weyl group element")
        return w

    def from_word(self, word) -> WeylElt:
        perm = self.identity.perm
        for i in word:
            perm = self.times_simple[i](perm)
        return self.from_perm(perm)

    # -- group operations -------------------------------------------------

    def mult(self, a: WeylElt, b: WeylElt) -> WeylElt:
        return self.from_perm(_compose(a.perm, b.perm))

    def inverse(self, a: WeylElt) -> WeylElt:
        return self.from_perm(a.inv_perm)

    def act_root(self, a: WeylElt, root_idx: int) -> int:
        return a.perm[root_idx]

    def act_Xv(self, a: WeylElt, v):
        """Action of a on the cocharacter lattice Xv (the transposed
        inverse)."""
        return _mat_apply(tuple(zip(*a.inv)), v)

    def longest_element(self) -> WeylElt:
        if self._longest is None:
            perm = self.identity.perm
            while True:
                # an ascent: w(alpha_i) > 0
                up = next((i for i, a in enumerate(self.simple_idx)
                           if perm[a] >= self.n_pos), None)
                if up is None:
                    break
                perm = self.times_simple[up](perm)
            self._longest = self.from_perm(perm)
        return self._longest

    def order(self) -> int:
        """|W| = prod (m_j + 1) over the exponents m_j, which are the
        transpose of the partition "number of positive roots of each
        height" (Kostant 1959); the transpose of a sum of partitions is
        the union of their transposes, so this holds for reducible data
        and torus factors too."""
        per_height = Counter(h for h in self.rd.heights if h > 0)
        out = 1
        for j in range(1, per_height[1] + 1):
            out *= 1 + sum(1 for c in per_height.values() if c >= j)
        return out

    def all_elements(self, cap: int = 2 * 10 ** 6):
        """Brute-force enumeration of W (test oracle)."""
        seen = {self.identity.perm: self.identity}
        queue = [self.identity]
        while queue:
            w = queue.pop()
            for step in self.times_simple:
                nxt = step(w.perm)
                if nxt not in seen:
                    seen[nxt] = self.from_perm(nxt)
                    queue.append(seen[nxt])
                    if len(seen) > cap:
                        raise WeylError("brute-force enumeration exceeds cap")
        return list(seen.values())


# ---------------------------------------------------------------------------
# inner classes


class InnerClass:
    """A root datum together with a based-datum involution gamma of X
    (the distinguished element delta acts on X by gamma)."""

    def __init__(self, rd: RootDatum, gamma: IntMatrix, _dual=None):
        self.rd = rd
        if gamma.rows != rd.rank or gamma.cols != rd.rank:
            raise InvalidInvolution("gamma has the wrong size")
        if not gamma.is_involution():
            raise InvalidInvolution("gamma is not an involution")
        self.gamma = gamma
        self.gamma_mat = gamma.entries
        self.gamma_mat_dual = gamma.transpose().entries  # action on Xv
        # derive and validate the diagram permutation
        perm = []
        for i, a in enumerate(rd.simple_roots):
            img = tuple(gamma.apply(a))
            try:
                j = rd.simple_roots.index(img)
            except ValueError:
                raise InvalidInvolution(
                    f"gamma does not permute the simple roots (alpha_{i})")
            perm.append(j)
        self.diagram_perm = tuple(perm)
        for i in range(rd.n_simple):
            img = _mat_apply(self.gamma_mat_dual, rd.simple_coroots[i])
            if img != rd.simple_coroots[perm[i]]:
                raise InvalidInvolution(
                    "gamma^t does not permute the simple coroots compatibly")
        self.gamma_perm = tuple(rd.index_of(gamma.apply(r))
                                for r in rd.roots)
        self.weyl = WeylGroup(rd)
        self._dual = _dual
        self._cache = {}

    @property
    def rank(self) -> int:
        return self.rd.rank

    @property
    def n_simple(self) -> int:
        return self.rd.n_simple

    def twist_word(self, word):
        return tuple(self.diagram_perm[i] for i in word)

    def twist_weyl(self, w: WeylElt) -> WeylElt:
        """gamma . w . gamma as a Weyl element."""
        g = self.gamma_perm
        return self.weyl.from_perm(_compose(g, _compose(w.perm, g)))

    @property
    def dual(self) -> "InnerClass":
        """The dual inner class: dual datum with gammav = -w0 . gamma^t."""
        if self._dual is None:
            w0 = self.weyl.longest_element()
            w0_on_Xv = tuple(zip(*w0.mat))  # w0 involution: inv = mat
            gv = _mat_mul(tuple(tuple(-x for x in row) for row in w0_on_Xv),
                          self.gamma_mat_dual)
            dual_rd = self.rd.dual()
            self._dual = InnerClass(dual_rd, IntMatrix(gv), _dual=self)
        return self._dual


def inner_class_from_perm(rd: RootDatum, perm, coord_perm=None) -> InnerClass:
    """Inner class from a permutation of the simple roots.

    For semisimple data the lattice involution is solved for exactly;
    otherwise coord_perm (a permutation of the standard coordinates
    realizing gamma) must be supplied.
    """
    perm = tuple(perm)
    k = rd.n_simple
    if sorted(perm) != list(range(k)):
        raise InvalidInvolution("not a permutation of the simple indices")
    if any(perm[perm[i]] != i for i in range(k)):
        raise InvalidInvolution("permutation is not an involution")
    if coord_perm is not None:
        n = rd.rank
        g = IntMatrix.from_rows([[1 if coord_perm[j] == i else 0
                                  for j in range(n)] for i in range(n)])
        return InnerClass(rd, g)
    if k != rd.rank:
        raise InvalidInvolution(
            "non-semisimple datum: supply the lattice involution explicitly")
    # solve gamma @ A = A_perm with A = matrix of simple-root columns
    a_cols = IntMatrix.from_rows(rd.simple_roots).transpose()
    a_perm = IntMatrix.from_rows([rd.simple_roots[perm[j]]
                                  for j in range(k)]).transpose()
    n = rd.rank
    ainv = rational_inverse(a_cols.entries)
    if ainv is None:
        raise InvalidInvolution("simple roots are linearly dependent")
    g_frac = [[sum(a_perm[r, t] * ainv[t][c] for t in range(n))
               for c in range(n)] for r in range(n)]
    if any(x.denominator != 1 for row in g_frac for x in row):
        raise InvalidInvolution(
            "the permutation does not extend to a lattice involution")
    g = IntMatrix.from_rows([[int(x) for x in row] for row in g_frac])
    return InnerClass(rd, g)


def trivial_inner_class(rd: RootDatum) -> InnerClass:
    return InnerClass(rd, IntMatrix.identity(rd.rank))


# ---------------------------------------------------------------------------
# twisted involutions


@dataclass(frozen=True)
class RootClassification:
    """The roots of a twisted involution tau sorted by theta: imaginary
    (fixed), real (negated) or complex.  status and the positive
    imaginary roots, all the X search reads, are computed at once; the
    other fields, which only the real Weyl group reads, are formed on
    first read."""
    status: tuple        # per root index: 'i' / 'r' / 'C'
    im_pos: tuple        # positive imaginary root indices
    rd: RootDatum = field(repr=False, compare=False)

    def _pos(self, kind) -> tuple:
        return tuple(i for i in range(self.rd.n_pos, len(self.status))
                     if self.status[i] == kind)

    @cached_property
    def re_pos(self) -> tuple:
        """Positive real root indices."""
        return self._pos('r')

    @cached_property
    def cx_pos(self) -> tuple:
        """Positive complex root indices."""
        return self._pos('C')

    @cached_property
    def im_simples(self) -> tuple:
        """Simple roots of the imaginary subsystem."""
        return _subsystem_simples(self.rd, self.im_pos)

    @cached_property
    def re_simples(self) -> tuple:
        """Simple roots of the real subsystem."""
        return _subsystem_simples(self.rd, self.re_pos)

    @cached_property
    def deltaC(self) -> tuple:
        """Indices of the complex roots orthogonal to twice rho of the
        imaginary roots and twice rhov of the real roots."""
        rd = self.rd
        rho_i = [sum(col) for col in zip(*(rd.roots[i] for i in self.im_pos))]
        rhov_r = [sum(col)
                  for col in zip(*(rd.coroots[i] for i in self.re_pos))]
        return tuple(i for i, s in enumerate(self.status) if s == 'C'
                     and vec_dot(rho_i, rd.coroots[i]) == 0
                     and vec_dot(rd.roots[i], rhov_r) == 0)

    @cached_property
    def deltaC_simples(self) -> tuple:
        """Simple roots of the subsystem deltaC."""
        return _subsystem_simples(
            self.rd, tuple(i for i in self.deltaC if self.rd.is_positive(i)))


def _subsystem_simples(rd: RootDatum, pos_indices) -> tuple:
    """The simple roots of the subsystem with the given positive roots:
    those that are not a sum of two of them."""
    vecs = {rd.roots[i] for i in pos_indices}
    simples = []
    for i in pos_indices:
        b = rd.roots[i]
        if not any(tuple(x - y for x, y in zip(b, g)) in vecs
                   for g in vecs if g != b):
            simples.append(i)
    return tuple(simples)


@dataclass(frozen=True, eq=False)
class TwistedInvolution:
    index: int
    w: WeylElt
    theta: tuple         # permutation of the roots by (action of w) o gamma
    length: int          # graph distance from delta
    ic: InnerClass = field(repr=False)

    def __eq__(self, other):
        return isinstance(other, TwistedInvolution) and \
            self.theta == other.theta

    def __hash__(self):
        return hash(self.theta)

    @cached_property
    def theta_X(self) -> tuple:
        """Matrix of (action of w) o gamma on X."""
        return _mat_mul(self.w.mat, self.ic.gamma_mat)

    def tau_word_str(self) -> str:
        return ",".join(str(i + 1) for i in self.w.word)


def classify_roots(tau: TwistedInvolution, rd: RootDatum) -> RootClassification:
    neg = tau.ic.weyl.neg
    status = tuple('i' if q == r else 'r' if q == neg[r] else 'C'
                   for r, q in enumerate(tau.theta))
    im_pos = tuple(i for i in range(rd.n_pos, len(status))
                   if status[i] == 'i')
    return RootClassification(status, im_pos, rd)


class TwistedInvolutionTable:
    """All twisted involutions of an inner class, generated from delta
    by twisted conjugation and Cayley moves, with links and lengths.

    One pass, level by level in the length from delta.  A level is
    indexed in (length, word) order of w; then each of its taus makes
    its cross move s theta s and, where theta fixes alpha_s, its Cayley
    move s theta.  A target that already has an index is linked at
    once; one in the next level is kept pending and linked when that
    level is indexed.  The cross action of s is an involution on the
    taus, so a cross link t -> t2 by s also records t2 -> t, and t2
    never makes the move of s: each cross edge is composed once.  A
    reverse slot that already holds another tau raises WeylError."""

    def __init__(self, ic: InnerClass):
        self.ic = ic
        wg = ic.weyl
        gamma = ic.gamma_perm
        # w = theta o gamma, since theta = w o gamma and gamma^2 = 1; when
        # gamma fixes every root, w shares the theta tuple
        fixes_roots = gamma == wg.identity.perm
        moves = tuple(enumerate(zip(wg.simple_idx, wg.simple_perms,
                                    wg.times_simple)))
        self.elements = []
        self.index_by_perm = {}   # theta permutation -> tau index
        cross = []    # per element: target index per simple, None if unset
        cayley = []   # per element: target index per simple, or None
        self._classification = {}

        def link(i, s, t, is_cross):
            j = self.index_by_perm.get(t)
            if j is None:
                pending.append((i, s, t, is_cross))
            elif not is_cross:
                cayley[i][s] = j
            else:
                cross[i][s] = j
                back = cross[j][s]
                if back is None:
                    cross[j][s] = i
                elif back != i:
                    raise WeylError("cross action is not an involution")

        level = [(wg.identity, gamma)]
        pending = []   # (tau index, simple, target theta, cross or Cayley)
        length = 0
        while level:
            start = len(self.elements)
            for w, theta in level:
                j = len(self.elements)
                self.elements.append(
                    TwistedInvolution(j, w, theta, length, ic))
                self.index_by_perm[theta] = j
                cross.append([None] * len(moves))
                cayley.append([None] * len(moves))
            resolve = pending[:]
            pending.clear()
            for move in resolve:
                link(*move)
            for i in range(start, len(self.elements)):
                theta = self.elements[i].theta
                for s, (a, sp, times_s) in moves:
                    if cross[i][s] is None:
                        link(i, s, _compose(sp, times_s(theta)), True)
                    if theta[a] == a:
                        link(i, s, _compose(sp, theta), False)
            length += 1
            level = sorted(
                ((wg.from_perm(t if fixes_roots else _compose(t, gamma)), t)
                 for t in {t for _, _, t, _ in pending}),
                key=lambda wt: (wt[0].length, wt[0].word))
        self.cross = [tuple(row) for row in cross]
        self.cayley = [tuple(row) for row in cayley]

    def __len__(self):
        return len(self.elements)

    def classification(self, idx: int) -> RootClassification:
        if idx not in self._classification:
            self._classification[idx] = classify_roots(
                self.elements[idx], self.ic.rd)
        return self._classification[idx]


def twisted_involutions(ic: InnerClass) -> TwistedInvolutionTable:
    if 'involutions' not in ic._cache:
        ic._cache['involutions'] = TwistedInvolutionTable(ic)
    return ic._cache['involutions']


@dataclass(frozen=True)
class CartanClass:
    index: int
    rep: int          # index of the canonical representative
    members: tuple    # sorted tau indices


def cartan_classes(ic: InnerClass):
    """Twisted-conjugacy classes of I_W, canonically ordered."""
    if 'cartans' in ic._cache:
        return ic._cache['cartans']
    table = twisted_involutions(ic)
    n = len(table)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in range(n):
        for j in table.cross[idx]:
            ra, rb = find(idx), find(j)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for idx in range(n):
        groups.setdefault(find(idx), []).append(idx)
    reps = []
    for members in groups.values():
        rep = min(members, key=lambda t: (table.elements[t].w.length,
                                          table.elements[t].w.word))
        reps.append((rep, tuple(sorted(members))))
    reps.sort(key=lambda rm: (table.elements[rm[0]].w.length,
                              table.elements[rm[0]].w.word))
    classes = tuple(CartanClass(k, rep, members)
                    for k, (rep, members) in enumerate(reps))
    class_of = [None] * n
    for c in classes:
        for t in c.members:
            class_of[t] = c.index
    ic._cache['cartans'] = classes
    ic._cache['cartan_index'] = tuple(class_of)
    return classes


def cartan_index(ic: InnerClass) -> tuple:
    """The Cartan class index of each twisted involution, by tau index."""
    cartan_classes(ic)
    return ic._cache['cartan_index']


def cartan_class_of(ic: InnerClass, tau_idx: int) -> int:
    index = cartan_index(ic)
    if not 0 <= tau_idx < len(index):
        raise WeylError("tau not found in any Cartan class")
    return index[tau_idx]
