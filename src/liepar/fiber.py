"""Fibers of the one-sided parameter space over a twisted involution.

For a twisted involution tau with torus involution theta_v on the
cocharacter lattice, the strong involutions over tau with a fixed
central square z correspond to solutions lambda of

    (1 + theta_v) lambda = z - nu_tau   (mod the cocharacter lattice)

taken modulo the identity component of the fixed torus.  The solution
set, when nonempty, is a torsor under an F2 vector space (the fiber
group) read off from the Smith normal form of 1 + theta_v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .intlinalg import (IntMatrix, RatVecModZ, frac_vec, smith_normal_form,
                        torsion_solutions, vec_add, vec_scale, vec_sub)
from .tits import TitsGroup
from .weyl import InnerClass, TwistedInvolution, WeylError


class NotAnInvolution(ValueError):
    pass


class InfiniteCenterFixedPoints(ValueError):
    pass


@dataclass(frozen=True)
class TorusSignature:
    """Shape of the real points of a torus with Cartan involution theta:
    a split factors, b compact circle factors, c complex factors
    (theta = +1 on a compact circle); a + b + 2c = rank."""
    a: int
    b: int
    c: int


def theta_matrix(tau: TwistedInvolution, ic: InnerClass) -> IntMatrix:
    """The torus involution of tau on the cocharacter lattice."""
    return IntMatrix(tau.theta_X).transpose()


def torus_signature(theta: IntMatrix) -> TorusSignature:
    n = theta.rows
    if not theta.is_involution():
        raise NotAnInvolution("matrix is not an involution")
    ident = IntMatrix.identity(n)
    minus = ident - theta
    plus = ident + theta
    a = minus.rank() - minus.rank_mod2()
    b = plus.rank() - plus.rank_mod2()
    if (n - a - b) % 2:
        raise NotAnInvolution("inconsistent involution signature")
    return TorusSignature(a, b, (n - a - b) // 2)


def tits_group(ic: InnerClass) -> TitsGroup:
    if 'tits' not in ic._cache:
        ic._cache['tits'] = TitsGroup(ic)
    return ic._cache['tits']


def nu_tau(tau: TwistedInvolution, ic: InnerClass) -> tuple:
    """Half the torus part of sigma_w . delta(sigma_w), a vector in
    (1/2)Z^n: the square of the canonical strong-involution lift over
    tau is exp(2 pi i nu_tau) times the central square."""
    tg = tits_group(ic)
    w = tau.w
    perm, t = tg.fold(w.perm, tg.zero, ic.twist_word(w.word))
    if perm != ic.weyl.identity.perm:
        raise WeylError("not a twisted involution")
    return tuple(Fraction(x, 2) for x in t)


def central_fixed_points(ic: InnerClass):
    """All central torus elements fixed by the twist, sorted; raises
    InfiniteCenterFixedPoints when they form a positive-dimensional
    torus (twist-fixed central torus factor)."""
    if 'central_fixed' in ic._cache:
        return ic._cache['central_fixed']
    rd = ic.rd
    n = rd.rank
    gamma_v = ic.gamma_mat_dual
    rows = [list(a) for a in rd.simple_roots]
    for i in range(n):
        rows.append([(1 if i == j else 0) - gamma_v[i][j] for j in range(n)])
    factors, gens, kernel_dim = torsion_solutions(IntMatrix.from_rows(rows))
    if kernel_dim > 0:
        raise InfiniteCenterFixedPoints(
            "the twist fixes a central torus; central squares are not finite")
    elts = set()
    for combo in product(*(range(d) for d in factors)):
        v = tuple(Fraction(0) for _ in range(n))
        for c, g in zip(combo, gens):
            v = vec_add(v, vec_scale(Fraction(c), g))
        elts.add(RatVecModZ.reduce(v))
    out = tuple(sorted(elts, key=lambda e: e.entries))
    ic._cache['central_fixed'] = out
    return out


class FiberSpace:
    """Solution structure of (1 + theta_v) lambda = z - nu_tau over a
    fixed twisted involution tau.

    With U (1 + theta_v) V = diag(d), d_j in {0, 1, 2}, the coordinates
    y = V^-1 lambda split the problem: a coordinate with d_j = 0 runs
    along the kernel of 1 + theta_v and is set to 0, the others are taken
    mod 1, and those with d_j = 2 carry the F2 fiber group.
    canonical_form is V y in that normal form; the X search in kgb keeps
    D y as integers mod D instead, D even and clearing every
    denominator."""

    def __init__(self, tau: TwistedInvolution, ic: InnerClass):
        self.tau = tau
        self.ic = ic
        self.theta_v = theta_matrix(tau, ic)
        n = ic.rank
        s = IntMatrix.identity(n) + self.theta_v
        u, d, v = smith_normal_form(s)
        self._u = u
        self._v = v
        diag = tuple(d[j, j] for j in range(n))
        if any(x not in (0, 1, 2) for x in diag):
            raise NotAnInvolution("1 + theta has an invariant factor > 2")
        self._diag = diag
        self._kernel_coords = tuple(j for j, x in enumerate(diag) if x == 0)
        self._two_coords = tuple(j for j, x in enumerate(diag) if x == 2)
        self.nu = nu_tau(tau, ic)
        self.basis = tuple(
            RatVecModZ.reduce(vec_scale(Fraction(1, 2), v.col(j)))
            for j in self._two_coords)
        self.base_points = {}

    @cached_property
    def signature(self) -> TorusSignature:
        return torus_signature(self.theta_v)

    @cached_property
    def _vinv(self) -> IntMatrix:
        return self._v.inverse()

    @property
    def fiber_rank(self) -> int:
        return len(self._two_coords)

    def canonical_form(self, lam) -> RatVecModZ:
        """Unique representative of lambda modulo the lattice and the
        identity component of the theta_v-fixed torus."""
        y = list(frac_vec(self._vinv.apply(frac_vec(lam))))
        for j in range(len(y)):
            y[j] = Fraction(0) if j in self._kernel_coords else y[j] % 1
        return RatVecModZ.reduce(self._v.apply(y))

    def _shifted(self, z: RatVecModZ):
        """U (z - nu), or None when a row with d_j = 0 is not integral:
        then nothing lies over z."""
        uc = self._u.apply(vec_sub(frac_vec(z.entries), self.nu))
        if any(uc[j].denominator != 1 for j in self._kernel_coords):
            return None
        return uc

    def solvable(self, z: RatVecModZ) -> bool:
        """Whether the fiber over central square z is nonempty."""
        return self._shifted(z) is not None

    def base_point(self, z: RatVecModZ):
        """Canonical (lex-least) solution over z, or None."""
        if z in self.base_points:
            return self.base_points[z]
        uc = self._shifted(z)
        base = None
        if uc is not None:
            lam0 = self._v.apply([Fraction(0) if dj == 0 else Fraction(x) / dj
                                  for x, dj in zip(uc, self._diag)])
            base = min(
                (self._translate(lam0, eps)
                 for eps in product((0, 1), repeat=self.fiber_rank)),
                key=lambda r: r.entries)
        self.base_points[z] = base
        return base

    def _translate(self, lam, eps) -> RatVecModZ:
        v = frac_vec(lam)
        for e, f in zip(eps, self.basis):
            if e:
                v = vec_add(v, f.entries)
        return self.canonical_form(v)

    def elements(self, z: RatVecModZ):
        """All solutions over z, base point first, in binary fiber order."""
        base = self.base_point(z)
        if base is None:
            return ()
        return tuple(self._translate(base.entries, eps)
                     for eps in product((0, 1), repeat=self.fiber_rank))


def fiber_space(tau: TwistedInvolution, ic: InnerClass) -> FiberSpace:
    fibers = ic._cache.setdefault('fibers', {})
    if tau.theta not in fibers:
        fibers[tau.theta] = FiberSpace(tau, ic)
    return fibers[tau.theta]
