"""Weyl group arithmetic, inner classes, twisted involutions and their
Cartan classes.

A Weyl element is its shortlex-minimal reduced word together with the
permutation it induces on the roots: perm[r] is the index of w(root r)
in the root datum's (height, lex) order, where the negative roots are
exactly the indices below n_pos.  A root permutation is bytes, one byte
per root, when the datum has at most 256 roots (E8 has 240), and a tuple
above that (A16 has 272, D12 264, E8.B3 258), as a byte holds no index
above 255; _perm makes one, and _compose and _inverse take both.
Composition a o b is b.translate(a padded to 256 bytes), one C call
(an itemgetter call on tuples); a bytes object caches its hash and
compares by memcmp.  A descent is a comparison with n_pos, and the
canonical word is peeled off psi(w^-1 alpha_j), psi(alpha_j) = j + 1,
one smallest left descent at a time.  The action matrix on the
character lattice X (a word s_{i1},...,s_{ik} acts by S_{i1} @ ... @
S_{ik}) and that of the inverse are derived on first use from the
images of the simple roots.  Lattice products and pairings run in C as
sum(map(mul, row, col)).

A twisted involution is keyed by the permutation of the roots induced
by theta = w o gamma, where the diagram involution gamma permutes the
roots; the table of them is one breadth-first search on those
permutations from delta.  Each tau makes its cross and Cayley moves
once, and a cross link is recorded in both directions, so each cross
edge is formed once; theta is padded once for its k moves and the
simple permutations once per group.  When gamma fixes every root, w and
theta share one permutation.  The class made by .dual relabels its
partner's table by tau -> -theta^T on the coroots.  W^v is W as a
Coxeter system, so a dual w read in the partner's roots is a primal
element with the same shortlex word: it takes a partner w's word tuple
where one has that permutation (every dual w when w0 = -1, as then it is
w0 w^-1), and canonical_word peels the others (A3, D5, E6).  Both tables
are then numbered in one tau order, (length, l(w), word of w), which
also picks the representative of each Cartan class (see cartan_classes).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, compress
from operator import eq, itemgetter, mul, sub
from typing import NamedTuple

from .intlinalg import identity, mat_apply, mat_mul, scaled_inverse, vec_dot
from .rootdatum import RootDatum, _integer


class WeylError(ValueError):
    pass


class InvalidInvolution(WeylError):
    pass


def _in_range(i, n, what):
    """i, when 0 <= i < n; else WeylError naming it as what."""
    if not 0 <= i < n:
        raise WeylError(f"{what} {i} is not in 0..{n - 1}")
    return i


def _perm(images):
    """The root permutation with the given sequence of images: bytes, one
    byte per root, when there are at most 256 roots, else a tuple (a byte
    cannot hold an index above 255)."""
    return bytes(images) if len(images) <= 256 else tuple(images)


def _table(perm):
    """perm as the left factor of _compose, padded once for reuse: a
    256-byte translate table, or the tuple itself."""
    return perm.ljust(256, b"\0") if type(perm) is bytes else perm


def _compose(a, b):
    """The permutation a o b: b first, then a.  On bytes b.translate of a
    padded to 256 bytes (no copy when a comes from _table), on tuples an
    itemgetter call, which wants two entries or more."""
    if type(b) is bytes:
        return b.translate(a.ljust(256, b"\0"))
    return itemgetter(*b)(a) if len(b) > 1 else tuple(a[i] for i in b)


def _inverse(perm):
    """The inverse permutation, of perm's own type: on bytes the first
    len(perm) entries of the table sending perm[r] to r."""
    n = len(perm)
    if type(perm) is bytes:
        return bytes.maketrans(perm, bytes(range(n)))[:n]
    inv = [0] * n
    for r, q in enumerate(perm):
        inv[q] = r
    return tuple(inv)


def subsystem_heights(rd: RootDatum, pos) -> tuple:
    """Heights of the positive roots pos of a root subsystem over its own
    base: h(beta) = <beta, 2 rhov_P> / 2, where 2 rhov_P is the sum of
    the coroots of pos (Kostant 1959), so h = 1 exactly on the simple
    roots.  Raises WeylError unless every pairing is positive and even."""
    two_rhov = [sum(col) for col in zip(*map(rd.coroots.__getitem__, pos))]
    twice = [sum(map(mul, rd.roots[b], two_rhov)) for b in pos]
    if any(t <= 0 or t % 2 for t in twice):
        raise WeylError("not the positive roots of a root subsystem")
    return tuple(t // 2 for t in twice)


def subsystem_order(heights) -> int:
    """|W| of a root subsystem from the subsystem_heights of its positive
    roots: prod (m_j + 1) over its exponents, the transpose of the
    partition "roots per height" (Kostant 1959), reducible included."""
    per_height = Counter(heights)
    out = 1
    for j in range(1, per_height[1] + 1):
        out *= 1 + sum(1 for c in per_height.values() if c >= j)
    return out


class WeylElt:
    def __init__(self, word, perm, group):
        self.word, self.group = word, group
        self.perm = perm    # perm[r] is the index of w(root r); see _perm

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    @property
    def length(self) -> int:
        return len(self.word)

    @cached_property
    def inv_perm(self) -> bytes:
        return _inverse(self.perm)

    @cached_property
    def mat(self) -> tuple:
        """Action matrix on X."""
        return self.group.lattice_matrix(self.perm)

    def __repr__(self):
        return "WeylElt(" + ",".join(str(i + 1) for i in self.word) + ")" \
            if self.word else "WeylElt(e)"


class WeylGroup:
    def __init__(self, rd: RootDatum):
        self.rd = rd
        self.n_pos = rd.n_pos
        self.simple_idx = rd.simple_indices()
        self.neg = _perm([rd.negative_of(r) for r in range(len(rd.roots))])
        self._reflection_perms = {}
        self.simple_perms = tuple(self.reflection_perm(a)
                                  for a in self.simple_idx)
        # the simple permutations as left factors of _compose
        self.simple_tables = tuple(map(_table, self.simple_perms))
        # for canonical_word: psi per root, and per simple i the pairs
        # (j, <alpha_j, alpha_i^v>) of its Cartan neighbours
        self._psi = tuple(sum(j * c for j, c in enumerate(co, 1))
                          for co in rd.coefficients)
        self._neighbours = tuple(tuple((j, c) for j, c in enumerate(
            vec_dot(a, av) for a in rd.simple_roots) if c and j != i)
            for i, av in enumerate(rd.simple_coroots))
        self.identity = WeylElt((), _perm(range(len(rd.roots))), self)
        self._simples = tuple(WeylElt((i,), p, self)
                              for i, p in enumerate(self.simple_perms))
        self._longest = None
        self._order = None

    # -- basic element construction -------------------------------------

    def simple(self, i: int) -> WeylElt:
        return self._simples[_in_range(i, len(self._simples), "simple root")]

    def reflection_perm(self, root_idx: int) -> bytes:
        """The permutation of the roots by the reflection in a root; a
        root b with <b, alpha^v> = 0 is kept without a lookup."""
        perm = self._reflection_perms.get(root_idx)
        if perm is None:
            rd = self.rd
            _in_range(root_idx, len(rd.roots), "root")
            a, av = rd.roots[root_idx], rd.coroots[root_idx]
            pairing = [sum(map(mul, b, av)) for b in rd.roots]
            perm = self._reflection_perms[root_idx] = _perm([
                rd.index_of([x - c * y for x, y in zip(b, a)]) if c else r
                for r, (b, c) in enumerate(zip(rd.roots, pairing))])
        return perm

    @cached_property
    def _coords(self):
        """c_i(e_k) = sum_j (alpha_j^v)_k (C^-1)_{ji} for the standard basis
        vectors e_k of X, as integer rows over a common denominator den:
        den C^-1 from scaled_inverse."""
        rd = self.rd
        k = rd.n_simple
        if not k:
            return 1, ((),) * rd.rank
        den, cinv = scaled_inverse(rd.cartan_matrix)
        return den, mat_mul(tuple(zip(*rd.simple_coroots)), cinv)

    def lattice_matrix(self, perm) -> tuple:
        """Action matrix on X of the element permuting the roots by perm:
        x -> x + sum_i c_i(x) (w(alpha_i) - alpha_i), where c(x) are the
        simple-root coordinates of x read off the inverse Cartan matrix
        (the part of x orthogonal to every coroot is fixed)."""
        rd = self.rd
        n = rd.rank
        den, coords = self._coords
        # per lattice coordinate r, the r-th entries of the moves
        moves = tuple(zip(*[map(sub, rd.roots[perm[a]], rd.roots[a])
                            for a in self.simple_idx])) or ((),) * n
        return tuple(
            tuple([(r == e) + sum(map(mul, ce, mr)) // den
                   for e, ce in enumerate(coords)])
            for r, mr in enumerate(moves))

    def canonical_word(self, perm, inv=None) -> tuple:
        """Shortlex-minimal reduced word of the element permuting the
        roots by perm: greedily peel the smallest left descent i, the
        first with h_i = psi(w^{-1}(alpha_i)) < 0, where psi(alpha_j) =
        j + 1 is positive exactly on the positive roots; peeling s_i
        negates h_i and lowers each neighbour h_j by <alpha_j, alpha_i^v>
        h_i.  Only those neighbours change and every h below i was >= 0,
        so the scan for the next descent restarts at the lowest neighbour
        j < i that turned negative, else at i + 1.  Any end but h = (1,
        ..., k), such as a diagram automorphism's, raises.  inv is w^{-1},
        if known."""
        psi = self._psi
        h = [psi[inv[a]] for a in self.simple_idx] if inv is not None \
            else [psi[perm.index(a)] for a in self.simple_idx]
        neighbours = self._neighbours
        word = []
        k, start = len(h), 0
        while True:
            for i in range(start, k):
                x = h[i]
                if x < 0:
                    break
            else:
                break
            word.append(i)
            h[i] = -x
            start = i + 1
            for j, c in neighbours[i]:
                h[j] -= c * x
                if j < start and h[j] < 0:
                    start = j
        if h != list(range(1, k + 1)):
            raise WeylError("permutation is not a Weyl group element")
        return tuple(word)

    def from_perm(self, perm, inv=None) -> WeylElt:
        return WeylElt(self.canonical_word(perm, inv), perm, self)

    # -- group operations -------------------------------------------------

    def inverse(self, a: WeylElt) -> WeylElt:
        return self.from_perm(a.inv_perm)

    def longest_element(self) -> WeylElt:
        if self._longest is None:
            perm = self.identity.perm
            while True:
                # an ascent: w(alpha_i) > 0
                up = next((i for i, a in enumerate(self.simple_idx)
                           if perm[a] >= self.n_pos), None)
                if up is None:
                    break
                perm = _compose(perm, self.simple_perms[up])
            self._longest = self.from_perm(perm)
        return self._longest

    def order(self) -> int:
        """|W| by subsystem_order, once per group."""
        if self._order is None:
            pos = range(self.n_pos, len(self.rd.roots))
            self._order = subsystem_order(subsystem_heights(self.rd, pos))
        return self._order


# ---------------------------------------------------------------------------
# inner classes


class InnerClass:
    """A root datum together with a based-datum involution gamma of X
    (the distinguished element delta acts on X by gamma), given as rows
    of integers in value, as new_root_datum reads its vectors."""

    def __init__(self, rd: RootDatum, gamma, _dual=None):
        self.rd = rd
        gamma = tuple(tuple(_integer(x, InvalidInvolution) for x in row)
                      for row in gamma)
        if len(gamma) != rd.rank or any(len(row) != rd.rank for row in gamma):
            raise InvalidInvolution("gamma is not a rank x rank matrix")
        if mat_mul(gamma, gamma) != identity(rd.rank):
            raise InvalidInvolution("gamma is not an involution")
        self.gamma = gamma
        self.gamma_mat_dual = tuple(zip(*gamma))  # action on Xv
        # derive and validate the diagram permutation
        perm = []
        for i, a in enumerate(rd.simple_roots):
            img = mat_apply(gamma, a)
            try:
                j = rd.simple_roots.index(img)
            except ValueError:
                raise InvalidInvolution(
                    f"gamma does not permute the simple roots (alpha_{i})")
            perm.append(j)
        self.diagram_perm = tuple(perm)
        for i in range(rd.n_simple):
            img = mat_apply(self.gamma_mat_dual, rd.simple_coroots[i])
            if img != rd.simple_coroots[perm[i]]:
                raise InvalidInvolution(
                    "gamma^t does not permute the simple coroots compatibly")
        self.gamma_perm = _perm([rd.index_of(mat_apply(gamma, r))
                                 for r in rd.roots])
        self.weyl = WeylGroup(rd)
        self._dual = _dual
        self._derived = _dual is not None   # made by .dual
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
            gv = mat_mul(tuple(tuple(-x for x in row) for row in w0_on_Xv),
                         self.gamma_mat_dual)
            dual_rd = self.rd.dual()
            self._dual = InnerClass(dual_rd, gv, _dual=self)
        return self._dual


def inner_class_from_perm(rd: RootDatum, perm) -> InnerClass:
    """Inner class of a semisimple datum from a permutation of the simple
    roots: the lattice involution is solved for exactly."""
    perm = tuple(perm)
    k = rd.n_simple
    if sorted(perm) != list(range(k)):
        raise InvalidInvolution("not a permutation of the simple indices")
    if any(perm[perm[i]] != i for i in range(k)):
        raise InvalidInvolution("permutation is not an involution")
    if k != rd.rank:
        raise InvalidInvolution(
            "non-semisimple datum: supply the lattice involution explicitly")
    # solve gamma A = A_perm with A = matrix of simple-root columns
    inv = scaled_inverse(tuple(zip(*rd.simple_roots)))
    if inv is None:
        raise InvalidInvolution("simple roots are linearly dependent")
    den, ainv = inv
    g = mat_mul(tuple(zip(*[rd.simple_roots[j] for j in perm])), ainv)
    if any(x % den for row in g for x in row):
        raise InvalidInvolution(
            "the permutation does not extend to a lattice involution")
    return InnerClass(rd, [[x // den for x in row] for row in g])


def trivial_inner_class(rd: RootDatum) -> InnerClass:
    return InnerClass(rd, identity(rd.rank))


# ---------------------------------------------------------------------------
# twisted involutions


class RootClassification:
    """The roots of a twisted involution tau sorted by theta: imaginary
    (fixed), real (negated) or complex, read from tau's own theta permutation
    and the Weyl group's neg.  The positive imaginary roots, all the X
    search reads, are computed at once; the other fields are formed on
    first read from the root heights <beta, 2 rhov_P> / 2 of
    subsystem_heights: the imaginary simple roots have height 1 and the
    orders are subsystem_order; |W_C^theta| is |W| / (|tau's Cartan
    class| |W_i| |W_r|), read by kgb.real_weyl.  Equal by (theta,
    im_pos)."""

    def __init__(self, theta, im_pos, weyl):
        self.theta = theta      # tau's permutation of the roots
        self.im_pos = im_pos    # positive imaginary root indices
        self.weyl = weyl

    def __eq__(self, other):
        return isinstance(other, RootClassification) and \
            self.theta == other.theta and self.im_pos == other.im_pos

    def __hash__(self):
        return hash((self.theta, self.im_pos))

    @property
    def rd(self) -> RootDatum:
        return self.weyl.rd

    @cached_property
    def im_index(self) -> dict:
        """The position in im_pos of each positive imaginary root."""
        return {b: j for j, b in enumerate(self.im_pos)}

    @cached_property
    def re_pos(self) -> tuple:
        """Positive real root indices."""
        theta, neg = self.theta, self.weyl.neg
        return tuple(r for r in range(self.weyl.n_pos, len(theta))
                     if theta[r] == neg[r])

    @cached_property
    def im_heights(self) -> tuple:
        """subsystem_heights of im_pos, read by im_simples and im_order."""
        return subsystem_heights(self.rd, self.im_pos)

    @cached_property
    def im_simples(self) -> tuple:
        """Simple roots of the imaginary subsystem: those of height 1."""
        return tuple(b for b, h in zip(self.im_pos, self.im_heights) if h == 1)

    @cached_property
    def im_order(self) -> int:
        return subsystem_order(self.im_heights)

    @cached_property
    def re_order(self) -> int:
        return subsystem_order(subsystem_heights(self.rd, self.re_pos))

    @cached_property
    def imaginary_words(self) -> tuple:
        """Words of the W_i generators, the simple imaginary reflections."""
        wg = self.weyl
        return tuple(wg.canonical_word(p, p)
                     for p in map(wg.reflection_perm, self.im_simples))


class TwistedInvolution:
    def __init__(self, index, w, theta, length, ic):
        self.index, self.w, self.ic = index, w, ic
        self.theta = theta      # root permutation of (action of w) o gamma
        self.length = length    # graph distance from delta

    def __eq__(self, other):
        return isinstance(other, TwistedInvolution) and \
            self.theta == other.theta

    def __hash__(self):
        return hash(self.theta)

    @cached_property
    def theta_X(self) -> tuple:
        """Matrix of (action of w) o gamma on X: w.mat itself when gamma
        is the identity matrix.  The matrix is compared, not gamma_perm,
        as a gamma that fixes every root may still move X (A1.T1 with
        gamma = diag(1, -1))."""
        gamma = self.ic.gamma
        if gamma == identity(len(gamma)):
            return self.w.mat
        return mat_mul(self.w.mat, gamma)

    def tau_word_str(self) -> str:
        return ",".join(str(i + 1) for i in self.w.word)


def classify_roots(tau: TwistedInvolution, rd: RootDatum) -> RootClassification:
    """tau's roots by theta, over rd = tau.ic.rd: only im_pos is formed."""
    theta = tau.theta
    pos = range(rd.n_pos, len(theta))
    return RootClassification(
        theta, tuple(compress(pos, map(eq, theta[rd.n_pos:], pos))),
        tau.ic.weyl)


class TwistedInvolutionTable:
    """All twisted involutions of an inner class, generated from delta
    by twisted conjugation and Cayley moves, with links and lengths.

    One breadth-first search over the theta permutations from delta: each
    tau makes its cross move s theta s and, where theta fixes alpha_s,
    its Cayley move s theta, and a target not met before is a new tau one
    step further from delta.  The cross action of s is an involution on
    the taus, so a cross link t -> t2 by s also records t2 -> t, and t2
    never makes the move of s: each cross edge is composed once.  A
    reverse slot that already holds another tau raises WeylError.

    The class made by .dual relabels its partner's table: theta ->
    -theta^T, length -> top length - length, and a Cayley link t -> t2 by
    s -> dual(t2) -> dual(t).  Its w words come from the partner: a dual
    w relabelled into the partner's roots, unorder o perm o order, is the
    primal element with the same word, so the word tuple of the partner
    tau with that w is reused, and only a w that no partner tau has
    (w0 != -1, as in A3, D5 and E6) is peeled by canonical_word, which
    checks that it is in W.  dual_index maps each tau to its dual.
    Both tables are numbered by _index in the one tau order: length,
    then the length and the word of w."""

    def __init__(self, ic: InnerClass):
        self.ic = ic
        self._classification = {}
        if ic._derived:
            self._derive(twisted_involutions(ic.dual))
            return
        wg = ic.weyl
        gamma = ic.gamma_perm
        # w = theta o gamma, since theta = w o gamma and gamma^2 = 1; when
        # gamma fixes every root, w shares theta's permutation
        fixes_roots = gamma == wg.identity.perm
        k = ic.n_simple
        moves = tuple(enumerate(zip(wg.simple_idx, wg.simple_perms,
                                    wg.simple_tables)))
        found = [(0, wg.identity, gamma)]   # (length, w, theta), search order
        index = {gamma: 0}    # theta permutation -> search index
        cross = [[None] * k]    # per tau: target per simple, None if unset
        cayley = [[-1] * k]     # per tau: target per simple, -1 if none

        def reach(t, length):
            """The search index of t, a new tau at length + 1 if unseen."""
            j = index.get(t)
            if j is None:
                j = index[t] = len(found)
                found.append((length + 1, wg.from_perm(t, t) if fixes_roots
                              else wg.from_perm(_compose(t, gamma)), t))
                cross.append([None] * k)
                cayley.append([-1] * k)
            return j

        for i, (length, _, theta) in enumerate(found):
            padded = _table(theta)   # one pad for the k moves
            for s, (a, sp, sp_table) in moves:
                if cross[i][s] is None:
                    j = cross[i][s] = reach(
                        _compose(sp_table, _compose(padded, sp)), length)
                    back = cross[j][s]
                    if back is None:
                        cross[j][s] = i
                    elif back != i:
                        raise WeylError("cross action is not an involution")
                if theta[a] == a:
                    cayley[i][s] = reach(_compose(sp_table, theta), length)
        self._index(found, index, cross, cayley)

    def _derive(self, partner: "TwistedInvolutionTable"):
        ic, wg, gamma = self.ic, self.ic.weyl, self.ic.gamma_perm
        fixes_roots = gamma == wg.identity.perm
        # partner root r -> the dual root of its coroot, and of minus it;
        # theta = minus o (partner theta) o order^-1
        order = _perm(list(map(ic.rd.root_index.__getitem__,
                               partner.ic.rd.coroots)))
        minus = _table(_compose(order, partner.ic.weyl.neg))
        unorder = _inverse(order)
        unorder_table = _table(unorder)
        # the partner's words by w permutation (see the class docstring)
        words = {tau.w.perm: tau.w.word for tau in partner.elements}
        top = partner.elements[-1].length
        found, index, k = [], {}, ic.n_simple
        cayley = [[-1] * k for _ in partner.elements]
        for i, tau in enumerate(partner.elements):
            theta = _compose(minus, _compose(tau.theta, unorder))
            perm = theta if fixes_roots else _compose(theta, gamma)
            word = words.get(_compose(unorder_table, _compose(perm, order)))
            if word is None:
                word = wg.canonical_word(perm, theta if fixes_roots else None)
            found.append((top - tau.length, WeylElt(word, perm, wg), theta))
            index[theta] = i
            for s, t in enumerate(partner.cayley[i]):
                if t is not None:
                    cayley[t][s] = i
        self.dual_index = self._index(found, index, list(partner.cross),
                                      cayley)
        partner.dual_index = _inverse(self.dual_index)

    def _index(self, found, index, cross, cayley) -> tuple:
        """Number the taus in the tau order (length, l(w), word of w) and
        relabel in place: found holds (length, w, theta) per tau, index
        maps theta to a tau, cross holds the cross targets and cayley the
        Cayley targets (-1 for none), all in one source order.  Returns
        the source index of each tau."""
        order = sorted(range(len(found)), key=lambda i: (
            found[i][0], found[i][1].length, found[i][1].word))
        new = [*_inverse(order), None]   # and -1, no Cayley move, -> None
        for i, (length, w, theta) in enumerate(found):
            found[i] = TwistedInvolution(new[i], w, theta, length, self.ic)
        for theta, i in index.items():
            index[theta] = new[i]
        self.elements = list(map(found.__getitem__, order))
        self.index_by_perm = index
        k = self.ic.n_simple
        for rows in (cross, cayley):
            # each row relabelled in place, k targets at a time off one
            # stream that has read all of row i when row i is replaced
            targets = map(new.__getitem__, chain.from_iterable(rows))
            for i, row in enumerate(zip(*[targets] * k) if k
                                    else [()] * len(rows)):
                rows[i] = row
        self.cross = list(map(cross.__getitem__, order))
        self.cayley = list(map(cayley.__getitem__, order))
        return tuple(order)

    def __len__(self):
        return len(self.elements)

    def classification(self, idx: int) -> RootClassification:
        cls = self._classification.get(idx)
        if cls is None:
            cls = self._classification[idx] = classify_roots(
                self.elements[_in_range(idx, len(self), "tau index")],
                self.ic.rd)
        return cls


def twisted_involutions(ic: InnerClass) -> TwistedInvolutionTable:
    if 'involutions' not in ic._cache:
        ic._cache['involutions'] = TwistedInvolutionTable(ic)
    return ic._cache['involutions']


class CartanClass(NamedTuple):
    index: int
    rep: int          # index of the canonical representative
    members: tuple    # sorted tau indices


def cartan_classes(ic: InnerClass):
    """Twisted-conjugacy classes of I_W, ordered by the (l(w), word) of
    their representatives.  A class's representative is its least tau
    index, the start of the sweep that finds it, and that is also its
    (l(w), word) minimum: length is the rank function (l(w) + l'(w)) / 2
    of Richardson-Springer and Hultman, with l' constant on a class, so
    on a class the tau order (length, l(w), word) is the (l(w), word)
    order."""
    if 'cartans' in ic._cache:
        return ic._cache['cartans']
    table = twisted_involutions(ic)
    n = len(table)
    # one sweep over the cross edges, a class from each least unseen index
    seen = [False] * n
    reps = []
    for start in range(n):
        if not seen[start]:
            seen[start] = True
            members = [start]
            for t in members:
                for j in table.cross[t]:
                    if not seen[j]:
                        seen[j] = True
                        members.append(j)
            reps.append((start, tuple(sorted(members))))
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
