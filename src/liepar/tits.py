"""The extended group of order-2 torus points: elements sigma_w . x_t
with w in the Weyl group and t in Xv/2Xv.

An element is normalized as (w, t) = sigma_w . x_t where sigma_w is the
canonical lift built from the canonical reduced word of w.  The defining
relations are the braid relations among the sigma_i together with
sigma_i^2 = x_{m_i} (m_i the simple coroot mod 2).

Products are folded one simple letter at a time on the state (perm, t),
perm the permutation of the roots by w (bytes up to 256 roots, see
weyl): sigma_w x_t sigma_i is sigma_{w s_i} x_{s_i(t)}, times x_{m_i}
exactly when w(alpha_i) < 0, and s_i(t) = t + <alpha_i, t> m_i mod 2;
w s_i is one _compose, a bytes.translate.  No lattice matrix is
multiplied.
The conjugation sigma_s sigma_w sigma_r^-1 of the X search needs no fold
along w: conjugate_simple reads it off the root permutation of w.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .intlinalg import f2_add, f2_vec, mat_apply
from .weyl import InnerClass, WeylElt, WeylError, _compose, _in_range


class TitsElt(NamedTuple):
    w: WeylElt
    t: tuple  # element of Xv/2Xv (0/1 coordinates)

    def __repr__(self):
        word = ",".join(str(i + 1) for i in self.w.word) or "e"
        return f"TitsElt({word}; {''.join(map(str, self.t))})"


class TitsGroup:
    def __init__(self, ic: InnerClass):
        self.ic = ic
        self.rd = ic.rd
        self.weyl = ic.weyl
        n = self.rd.rank
        self.zero = tuple(0 for _ in range(n))
        self._m = tuple(f2_vec(c) for c in self.rd.simple_coroots)

    def m_alpha(self, root_idx: int) -> tuple:
        coroots = self.rd.coroots
        return f2_vec(coroots[_in_range(root_idx, len(coroots), "root")])

    def canonical_lift(self, w: WeylElt) -> TitsElt:
        return TitsElt(w, self.zero)

    def fold(self, perm, t, word):
        """Right-multiply the state (root permutation of w, torus part t)
        by sigma_i for each letter i of word:
        sigma_w x_t sigma_i = sigma_{w s_i} x_{s_i(t) (+ m_i)}, the m_i
        correction appearing exactly on descents."""
        wg = self.weyl
        roots = self.rd.simple_roots
        for i in word:
            flip = sum(map(mul, roots[i], t)) \
                + (perm[wg.simple_idx[i]] < wg.n_pos)
            if flip & 1:
                t = f2_add(t, self._m[i])
            perm = _compose(perm, wg.simple_perms[i])
        return perm, t

    def conjugate_simple(self, s: int, w: WeylElt, r=None):
        """sigma_s sigma_w sigma_r^-1 = x_u sigma_v, or sigma_s sigma_w =
        x_u sigma_v when r is None, as (root permutation of v, u) with the
        torus part u on the left and no fold along w.  sigma_s sigma_w is
        sigma_{s w}, or x_{m_s} sigma_{s w} when l(s w) < l(w), since then
        sigma_w = sigma_s sigma_{s w}; likewise sigma_{s w} sigma_r^-1 =
        sigma_{s w} sigma_r x_{m_r} is sigma_v x_{m_r}, or sigma_v when
        l(s w r) < l(s w), and sigma_v x_{m_r} = x_{v(m_r)} sigma_v, where
        v(m_r) is the coroot of the root v(alpha_r) mod 2."""
        wg = self.weyl
        a = wg.simple_idx[s]
        perm = _compose(wg.simple_tables[s], w.perm)
        u = self._m[s] if w.perm.index(a) < wg.n_pos else self.zero
        if r is not None:
            b = wg.simple_idx[r]
            ascent = perm[b] >= wg.n_pos
            perm = _compose(perm, wg.simple_perms[r])
            if ascent:
                u = f2_add(u, f2_vec(self.rd.coroots[perm[b]]))
        return perm, u

    def multiply(self, a: TitsElt, b: TitsElt) -> TitsElt:
        perm, t = self.fold(a.w.perm, a.t, b.w.word)
        return TitsElt(self.weyl.from_perm(perm), f2_add(t, b.t))

    def inverse(self, a: TitsElt) -> TitsElt:
        winv = self.weyl.inverse(a.w)
        p = self.multiply(a, self.canonical_lift(winv))
        if p.w.word:
            raise WeylError("inverse normalization failed")
        return TitsElt(winv, p.t)

    def twist(self, a: TitsElt) -> TitsElt:
        """Conjugation by the distinguished involution delta."""
        tw = self.ic.twist_weyl(a.w)
        t = f2_vec(mat_apply(self.ic.gamma_mat_dual, a.t))
        return TitsElt(tw, t)
