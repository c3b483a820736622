"""Weyl group arithmetic, inner classes, twisted involutions and their
Cartan classes.

Weyl elements are stored as shortlex-minimal reduced words together
with the exact action matrix on the character lattice X (and its
inverse).  A word s_{i1},...,s_{ik} acts on X by the matrix product
S_{i1} @ ... @ S_{ik} (left-to-right application).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intlinalg import IntMatrix, rational_inverse, vec_dot
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


@dataclass(frozen=True, eq=False)
class WeylElt:
    word: tuple
    mat: tuple   # action on X
    inv: tuple   # action of the inverse on X

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    @property
    def length(self) -> int:
        return len(self.word)

    def __repr__(self):
        return "WeylElt(" + ",".join(str(i + 1) for i in self.word) + ")" \
            if self.word else "WeylElt(e)"


class WeylGroup:
    def __init__(self, rd: RootDatum):
        self.rd = rd
        n = rd.rank
        self._id_mat = tuple(tuple(1 if i == j else 0 for j in range(n))
                             for i in range(n))
        self.simple_mats = tuple(rd.reflection_X(i).entries
                                 for i in range(rd.n_simple))
        self.simple_mats_dual = tuple(rd.reflection_Xv(i).entries
                                      for i in range(rd.n_simple))
        self.identity = WeylElt((), self._id_mat, self._id_mat)
        self._simples = tuple(
            WeylElt((i,), self.simple_mats[i], self.simple_mats[i])
            for i in range(rd.n_simple))
        self._longest = None
        self._order = None

    # -- basic element construction -------------------------------------

    def simple(self, i: int) -> WeylElt:
        return self._simples[i]

    def _root_is_negative(self, vec) -> bool:
        idx = self.rd.root_index.get(tuple(vec))
        if idx is None:
            raise WeylError("matrix does not permute the roots")
        return not self.rd.is_positive(idx)

    def canonical_word(self, mat, inv) -> tuple:
        """Shortlex-minimal reduced word of the element with the given
        action matrix: greedily peel the smallest left descent."""
        word = []
        m, mi = mat, inv
        rd = self.rd
        while m != self._id_mat:
            for i in range(rd.n_simple):
                # i is a left descent iff w^{-1}(alpha_i) < 0
                if self._root_is_negative(_mat_apply(mi, rd.simple_roots[i])):
                    word.append(i)
                    s = self.simple_mats[i]
                    m = _mat_mul(s, m)
                    mi = _mat_mul(mi, s)
                    break
            else:
                raise WeylError("matrix is not a Weyl group element")
        return tuple(word)

    def from_mats(self, mat, inv) -> WeylElt:
        return WeylElt(self.canonical_word(mat, inv), mat, inv)

    def from_matrix(self, mat) -> WeylElt:
        """Build an element from its action matrix alone (the word is
        extracted first, then the inverse recomputed from it)."""
        word = []
        m = mat
        # peel right descents to find *a* reduced word, then normalize
        rd = self.rd
        while m != self._id_mat:
            for i in range(rd.n_simple):
                if self._root_is_negative(_mat_apply(m, rd.simple_roots[i])):
                    word.append(i)
                    m = _mat_mul(m, self.simple_mats[i])
                    break
            else:
                raise WeylError("matrix is not a Weyl group element")
        word.reverse()
        return self.from_word(word)

    def from_word(self, word) -> WeylElt:
        mat = self._id_mat
        inv = self._id_mat
        for i in word:
            s = self.simple_mats[i]
            mat = _mat_mul(mat, s)
            inv = _mat_mul(s, inv)
        return self.from_mats(mat, inv)

    # -- group operations -------------------------------------------------

    def mult(self, a: WeylElt, b: WeylElt) -> WeylElt:
        return self.from_mats(_mat_mul(a.mat, b.mat), _mat_mul(b.inv, a.inv))

    def inverse(self, a: WeylElt) -> WeylElt:
        return self.from_mats(a.inv, a.mat)

    def act_root(self, a: WeylElt, root_idx: int) -> int:
        return self.rd.index_of(_mat_apply(a.mat, self.rd.roots[root_idx]))

    def act_Xv_mat(self, a: WeylElt):
        """Action matrix of a on the cocharacter lattice Xv."""
        return tuple(zip(*a.inv))

    def act_Xv(self, a: WeylElt, v):
        return _mat_apply(self.act_Xv_mat(a), v)

    def longest_element(self) -> WeylElt:
        if self._longest is None:
            w = self.identity
            rd = self.rd
            while True:
                for i in range(rd.n_simple):
                    # ascent: w(alpha_i) > 0
                    if not self._root_is_negative(
                            _mat_apply(w.mat, rd.simple_roots[i])):
                        w = self.mult(w, self.simple(i))
                        break
                else:
                    break
            self._longest = w
        return self._longest

    def order(self, cap: int = 10 ** 7) -> int:
        """|W|, as the size of the orbit of a regular vector."""
        if self._order is None:
            rho = self.rd.rho()
            if not self.rd.simple_roots:
                self._order = 1
                return 1
            seen = {rho}
            queue = [rho]
            while queue:
                v = queue.pop()
                for s in self.simple_mats:
                    nv = _mat_apply(s, v)
                    if nv not in seen:
                        seen.add(nv)
                        queue.append(nv)
                        if len(seen) > cap:
                            raise WeylError("Weyl group order exceeds cap")
            self._order = len(seen)
        return self._order

    def all_elements(self, cap: int = 2 * 10 ** 6):
        """Brute-force enumeration of W (test oracle)."""
        seen = {self._id_mat: self.identity}
        queue = [self.identity]
        while queue:
            w = queue.pop()
            for i in range(self.rd.n_simple):
                nxt = self.mult(w, self.simple(i))
                if nxt.mat not in seen:
                    seen[nxt.mat] = nxt
                    queue.append(nxt)
                    if len(seen) > cap:
                        raise WeylError("brute-force enumeration exceeds cap")
        return list(seen.values())

    @staticmethod
    def generate_matrices(gen_mats, cap: int = 10 ** 6):
        """Closure of a set of matrices under multiplication (subgroup
        order computations for reflection subgroups)."""
        if not gen_mats:
            return set()
        n = len(gen_mats[0])
        ident = tuple(tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n))
        seen = {ident}
        queue = [ident]
        while queue:
            m = queue.pop()
            for g in gen_mats:
                nm = _mat_mul(m, g)
                if nm not in seen:
                    seen.add(nm)
                    queue.append(nm)
                    if len(seen) > cap:
                        raise WeylError("subgroup closure exceeds cap")
        return seen


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
        return self.weyl.from_word(self.twist_word(w.word))

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

    def theta_X(self, w: WeylElt):
        """Action on X of theta = (action of w) o gamma."""
        return _mat_mul(w.mat, self.gamma_mat)


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
    status: tuple        # per root index: 'i' / 'r' / 'C'
    im_pos: tuple        # positive imaginary root indices
    re_pos: tuple        # positive real root indices
    cx_pos: tuple        # positive complex root indices
    im_simples: tuple    # simple roots of the imaginary subsystem
    re_simples: tuple    # simple roots of the real subsystem
    deltaC: tuple        # indices of the complex roots orthogonal to
                         # rho_imaginary and rhov_real
    deltaC_simples: tuple


@dataclass(frozen=True, eq=False)
class TwistedInvolution:
    index: int
    w: WeylElt
    theta_X: tuple       # matrix of (action of w) o gamma on X
    length: int          # graph distance from delta

    def __eq__(self, other):
        return isinstance(other, TwistedInvolution) and \
            self.theta_X == other.theta_X

    def __hash__(self):
        return hash(self.theta_X)

    def tau_word_str(self) -> str:
        return ",".join(str(i + 1) for i in self.w.word)


def classify_roots(tau: TwistedInvolution, rd: RootDatum) -> RootClassification:
    status = []
    for idx, root in enumerate(rd.roots):
        img = _mat_apply(tau.theta_X, root)
        if img == root:
            status.append('i')
        elif img == tuple(-x for x in root):
            status.append('r')
        else:
            status.append('C')
    status = tuple(status)
    im_pos = tuple(i for i, s in enumerate(status)
                   if s == 'i' and rd.is_positive(i))
    re_pos = tuple(i for i, s in enumerate(status)
                   if s == 'r' and rd.is_positive(i))
    cx_pos = tuple(i for i, s in enumerate(status)
                   if s == 'C' and rd.is_positive(i))

    def subsystem_simples(pos_indices):
        vecs = {rd.roots[i] for i in pos_indices}
        simples = []
        for i in pos_indices:
            b = rd.roots[i]
            if not any(tuple(x - y for x, y in zip(b, g)) in vecs
                       for g in vecs if g != b):
                simples.append(i)
        return tuple(simples)

    im_simples = subsystem_simples(im_pos)
    re_simples = subsystem_simples(re_pos)

    n = rd.rank
    rho_i = [Fraction(0)] * n
    for i in im_pos:
        for k in range(n):
            rho_i[k] += Fraction(rd.roots[i][k], 2)
    rhov_r = [Fraction(0)] * n
    for i in re_pos:
        for k in range(n):
            rhov_r[k] += Fraction(rd.coroots[i][k], 2)
    deltaC = tuple(i for i, s in enumerate(status) if s == 'C'
                   and vec_dot(rho_i, rd.coroots[i]) == 0
                   and vec_dot(rd.roots[i], rhov_r) == 0)
    deltaC_simples = subsystem_simples(
        tuple(i for i in deltaC if rd.is_positive(i)))
    return RootClassification(status, im_pos, re_pos, cx_pos,
                              im_simples, re_simples, deltaC, deltaC_simples)


class TwistedInvolutionTable:
    """All twisted involutions of an inner class, generated from delta
    by twisted conjugation and Cayley moves, with links and lengths."""

    def __init__(self, ic: InnerClass):
        self.ic = ic
        wg = ic.weyl
        rd = ic.rd
        self.elements = []
        self.index_by_theta = {}
        self.cross = []   # per element: tuple of target indices (per simple)
        self.cayley = []  # per element: tuple of target index or None
        self._classification = {}

        delta = TwistedInvolution(0, wg.identity,
                                  ic.theta_X(wg.identity), 0)
        self.elements.append(delta)
        self.index_by_theta[delta.theta_X] = 0
        level = [0]
        length = 0
        while level:
            nxt = set()
            for idx in level:
                tau = self.elements[idx]
                for theta2 in self._move_thetas(tau.theta_X):
                    if theta2 not in self.index_by_theta:
                        nxt.add(theta2)
            length += 1
            fresh = []
            for theta2 in nxt:
                # w = theta . gamma, since theta = (action of w) . gamma
                fresh.append(
                    (wg.from_matrix(_mat_mul(theta2, ic.gamma_mat)), theta2))
            fresh.sort(key=lambda pair: (pair[0].length, pair[0].word))
            new_level = []
            for w2, theta2 in fresh:
                j = len(self.elements)
                self.elements.append(TwistedInvolution(j, w2, theta2, length))
                self.index_by_theta[theta2] = j
                new_level.append(j)
            level = new_level

        # resolve links (matrix level: cross is S_s theta S_s, Cayley
        # S_s theta when alpha_s is tau-imaginary)
        for tau in self.elements:
            cross_row = []
            cayley_row = []
            for i in range(rd.n_simple):
                s = wg.simple_mats[i]
                cross_row.append(
                    self.index_by_theta[_mat_mul(s, _mat_mul(tau.theta_X, s))])
                if _mat_apply(tau.theta_X, rd.simple_roots[i]) == \
                        rd.simple_roots[i]:
                    cayley_row.append(
                        self.index_by_theta[_mat_mul(s, tau.theta_X)])
                else:
                    cayley_row.append(None)
            self.cross.append(tuple(cross_row))
            self.cayley.append(tuple(cayley_row))

    def _move_thetas(self, theta):
        wg = self.ic.weyl
        rd = self.ic.rd
        out = []
        for i in range(rd.n_simple):
            s = wg.simple_mats[i]
            out.append(_mat_mul(s, _mat_mul(theta, s)))
            if _mat_apply(theta, rd.simple_roots[i]) == rd.simple_roots[i]:
                out.append(_mat_mul(s, theta))
        return out

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
