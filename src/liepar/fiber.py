"""Fibers of the one-sided parameter space over a twisted involution.

For a twisted involution tau with torus involution theta_v on the
cocharacter lattice, the strong involutions over tau with a fixed
central square z correspond to solutions lambda of

    (1 + theta_v) lambda = z - nu_tau   (mod the cocharacter lattice)

taken modulo the identity component of the fixed torus.  The solution
set, when nonempty, is a torsor under an F2 vector space (the fiber
group) read off from the Smith normal form U (1 + theta_v) V = diag(d).
Every matrix here is a tuple of integer row tuples, and one call of
intlinalg.smith_normal_form gives U, d, V and V^-1 together.
The solutions are computed in integer coordinates y = D V^-1 lambda mod
D from the central square as the integers D z mod D
(RatVecModZ.scaled); lambda is formed from y only at the output edge
(FiberSpace.torus_coord).

The cross action of s maps the fiber over tau onto the fiber over
s tau s, and 1 + theta_v of s tau s is S_s (1 + theta_v) S_s for the
reflection S_s of the cocharacters.  So one Smith form per Cartan class
serves every tau in it: the frame of tau (fiber_frame) is its class
representative's V carried along a spanning tree of cross edges by
V_{s tau} = S_s V_tau, with 2 nu_tau carried along the same edges mod
2.  In frame coordinates a tree edge moves y by a translation alone.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import lcm
from operator import mul
from typing import NamedTuple

from .intlinalg import (IntMatrix, RatVecModZ, identity, mat_add, mat_apply,
                        mat_mul, smith_normal_form)
from .tits import TitsGroup
from .weyl import (InnerClass, TwistedInvolution, WeylError, cartan_classes,
                   cartan_index, twisted_involutions)


class NotAnInvolution(ValueError):
    pass


class InfiniteCenterFixedPoints(ValueError):
    pass


class TorusSignature(NamedTuple):
    """Shape of the real points of a torus with Cartan involution theta:
    a split factors, b compact circle factors, c complex factors
    (theta = +1 on a compact circle); a + b + 2c = rank."""
    a: int
    b: int
    c: int


def theta_matrix(tau: TwistedInvolution, ic: InnerClass) -> IntMatrix:
    """The torus involution of tau on the cocharacter lattice, as rows
    with the IntMatrix shim's entrywise +."""
    return IntMatrix(zip(*tau.theta_X))


def _signature(diag) -> TorusSignature:
    """The signature from the invariant factors of 1 + theta on the
    cocharacters: a 2 is a compact circle, a 1 with a 0 a complex pair,
    every other 0 a split factor."""
    b, c = diag.count(2), diag.count(1)
    return TorusSignature(len(diag) - b - 2 * c, b, c)


def tits_group(ic: InnerClass) -> TitsGroup:
    if 'tits' not in ic._cache:
        ic._cache['tits'] = TitsGroup(ic)
    return ic._cache['tits']


def _twice_nu(tau: TwistedInvolution, ic: InnerClass) -> tuple:
    """The torus part of sigma_w . delta(sigma_w), an integer vector."""
    tg = tits_group(ic)
    w = tau.w
    perm, t = tg.fold(w.perm, tg.zero, ic.twist_word(w.word))
    if perm != ic.weyl.identity.perm:
        raise WeylError("not a twisted involution")
    return t


def central_fixed_points(ic: InnerClass):
    """All central torus elements fixed by the twist, sorted; raises
    InfiniteCenterFixedPoints when they form a positive-dimensional
    torus (twist-fixed central torus factor).  With U M V = diag(d) for
    M = [simple roots; 1 - gamma_v], they are the sums of c_j V e_j / d_j,
    0 <= c_j < d_j, formed as integers mod the largest factor den."""
    if 'central_fixed' in ic._cache:
        return ic._cache['central_fixed']
    rd = ic.rd
    n = rd.rank
    gamma_v = ic.gamma_mat_dual
    rows = [list(a) for a in rd.simple_roots]
    for i in range(n):
        rows.append([(1 if i == j else 0) - gamma_v[i][j] for j in range(n)])
    _, d, v, _ = smith_normal_form(rows)
    den = d[-1] if d else 1
    if den == 0:
        raise InfiniteCenterFixedPoints(
            "the twist fixes a central torus; central squares are not finite")
    points = [(0,) * n]
    for dj, col in zip(d, zip(*v)):
        gen = tuple((den // dj) * x for x in col)
        points = [tuple((a + c * g) % den for a, g in zip(p, gen))
                  for p in points for c in range(dj)]
    out = tuple(RatVecModZ.from_scaled(y, den) for y in sorted(points))
    ic._cache['central_fixed'] = out
    return out


class FiberSpace:
    """Solution structure of (1 + theta_v) lambda = z - nu_tau over a
    fixed twisted involution tau.

    With U (1 + theta_v) V = diag(d), d_j in {0, 1, 2}, the coordinates
    y = V^-1 lambda split the problem: a coordinate with d_j = 0 runs
    along the kernel of 1 + theta_v and is set to 0, the others are taken
    mod 1, and those with d_j = 2 carry the F2 fiber group.  Solutions
    are found in integers: for an even D that clears every denominator,
    D y mod D is the base solution D (U (z - nu))_j / d_j plus D/2 on any
    subset of the d_j = 2 coordinates.  theta_v, U, V and V^-1 (_u, _v,
    _vinv) are tuples of integer rows from one smith_normal_form call."""

    def __init__(self, tau: TwistedInvolution, ic: InnerClass):
        self.tau = tau
        self.ic = ic
        self.theta_v = tuple(theta_matrix(tau, ic))
        s = mat_add(identity(ic.rank), self.theta_v)
        self._u, diag, self._v, self._vinv = smith_normal_form(s)
        if any(x not in (0, 1, 2) for x in diag):
            raise NotAnInvolution("1 + theta has an invariant factor > 2")
        self._diag = diag
        self._kernel_coords = tuple(j for j, x in enumerate(diag) if x == 0)
        self._two_coords = tuple(j for j, x in enumerate(diag) if x == 2)
        self._twice_nu = _twice_nu(tau, ic)

    @property
    def signature(self) -> TorusSignature:
        return _signature(self._diag)

    @property
    def fiber_rank(self) -> int:
        return len(self._two_coords)

    def _shifted(self, z: RatVecModZ, scale: int):
        """U (scale (z - nu)) as integers, or None when a row with d_j = 0
        is not divisible by scale: then nothing lies over z.  scale is
        even and a multiple of every denominator of z."""
        half = scale // 2
        w = [x - half * t for x, t in zip(z.scaled(scale), self._twice_nu)]
        uw = mat_apply(self._u, w)
        if any(uw[j] % scale for j in self._kernel_coords):
            return None
        return uw

    def solvable(self, z: RatVecModZ) -> bool:
        """Whether the fiber over central square z is nonempty."""
        return self._shifted(z, 2 * z.order) is not None

    def coordinates(self, z: RatVecModZ, denom: int) -> tuple:
        """All solutions over z as integer tuples y = denom V^-1 lambda mod
        denom, base point first, then in binary fiber order; () when
        nothing lies over z.  denom is a multiple of 2 lcm(2, order of z).
        The base point has the lex-least V y mod denom, that is the
        lex-least lambda in [0, 1)^n."""
        uw = self._shifted(z, denom)
        if uw is None:
            return ()
        half = denom // 2

        def translate(y, eps):
            y = list(y)
            for j, e in zip(self._two_coords, eps):
                y[j] = (y[j] + half * e) % denom
            return tuple(y)

        signs = tuple(product((0, 1), repeat=self.fiber_rank))
        y0 = tuple(0 if dj == 0 else x // dj % denom
                   for x, dj in zip(uw, self._diag))
        base = min((translate(y0, eps) for eps in signs),
                   key=lambda y: [x % denom for x in mat_apply(self._v, y)])
        return tuple(translate(base, eps) for eps in signs)

    def torus_coord(self, y, denom: int) -> RatVecModZ:
        """lambda = V y / denom mod the lattice."""
        return RatVecModZ.from_scaled(mat_apply(self._v, y), denom)

    def elements(self, z: RatVecModZ):
        """All solutions over z, base point first, in binary fiber order."""
        denom = 2 * lcm(2, z.order)
        return tuple(self.torus_coord(y, denom)
                     for y in self.coordinates(z, denom))


def fiber_space(tau: TwistedInvolution, ic: InnerClass) -> FiberSpace:
    fibers = ic._cache.setdefault('fibers', {})
    if tau.theta not in fibers:
        fibers[tau.theta] = FiberSpace(tau, ic)
    return fibers[tau.theta]


class Frame(NamedTuple):
    """Fiber data of one twisted involution tau in the basis carried over
    from its Cartan class representative: the unimodular V with its
    inverse, the coordinates j with (1 + theta_v) V e_j = 0, the rows of
    (1 + theta_v) V, the integer vector 2 nu_tau mod 2, and the tree edge
    (tau index, s) it was carried along (None at the representative)."""
    v: tuple
    vinv: tuple
    kernel: tuple
    square: tuple
    twice_nu: tuple
    parent: tuple


def _reflect_rows(m, a, av):
    """S m for the reflection S v = v - <a, v> av of the cocharacters;
    a row where av is 0 is returned as the same tuple."""
    r = [sum(map(mul, a, col)) for col in zip(*m)]
    return tuple([row if c == 0 else tuple([x - c * y for x, y in zip(row, r)])
                  for row, c in zip(m, av)])


def _reflect_cols(m, a, av):
    """m S for the same reflection S; a row with row . av = 0 is returned
    as the same tuple."""
    return tuple([row if c == 0 else tuple([x - c * y for x, y in zip(row, a)])
                  for row, c in zip(m, [sum(map(mul, row, av)) for row in m])])


def _carry_frames(ic: InnerClass, rep: int, frames: dict):
    """Frames of the Cartan class of rep: the representative's Smith form,
    carried along cross edges breadth-first from rep in simple-root
    order.  2 nu is carried too: with sigma_s sigma_w sigma_gamma(s)^-1 =
    x_u sigma_w2, squaring sigma_s (sigma_w delta) sigma_s^-1 gives
    2 nu_tau2 = S_s (2 nu_tau) + (1 + theta_tau2) u mod 2, and
    1 + theta_tau2 is the carried square rows times V^-1."""
    tbl = twisted_involutions(ic)
    rd = ic.rd
    tg = tits_group(ic)
    fs = fiber_space(tbl.elements[rep], ic)
    square = mat_mul(mat_add(identity(ic.rank), fs.theta_v), fs._v)
    frames[rep] = Frame(fs._v, fs._vinv, fs._kernel_coords, square,
                        tuple(x % 2 for x in fs._twice_nu), None)
    queue = deque([rep])
    while queue:
        t = queue.popleft()
        fr = frames[t]
        for s, t2 in enumerate(tbl.cross[t]):
            if t2 in frames:
                continue
            a, av = rd.simple_roots[s], rd.simple_coroots[s]
            sq2 = _reflect_rows(fr.square, a, av)
            vinv2 = _reflect_cols(fr.vinv, a, av)
            _, u = tg.conjugate_simple(s, tbl.elements[t].w,
                                       ic.diagram_perm[s])
            c = sum(map(mul, a, fr.twice_nu))
            shift = mat_apply(sq2, mat_apply(vinv2, u))
            frames[t2] = Frame(
                _reflect_rows(fr.v, a, av), vinv2, fr.kernel, sq2,
                tuple([(x - c * y + z) % 2
                       for x, y, z in zip(fr.twice_nu, av, shift)]), (t, s))
            queue.append(t2)


def fiber_frame(ic: InnerClass, tau_idx: int) -> Frame:
    """The frame of tau_idx; the first call in a Cartan class builds the
    representative's Smith form and the frames of the whole class."""
    frames = ic._cache.setdefault('frames', {})
    if tau_idx not in frames:
        cls = cartan_classes(ic)[cartan_index(ic)[tau_idx]]
        _carry_frames(ic, cls.rep, frames)
    return frames[tau_idx]


def frame_torus_coord(ic: InnerClass, tau: TwistedInvolution, y,
                      denom: int) -> RatVecModZ:
    """The canonical lambda of the point with coordinates y mod denom in
    tau's frame: y_own = V_own^-1 V_frame y mod denom in tau's own Smith
    coordinates, with the kernel coordinates zeroed."""
    fs = fiber_space(tau, ic)
    own = mat_apply(fs._vinv, mat_apply(fiber_frame(ic, tau.index).v, y))
    return fs.torus_coord(tuple(0 if j in fs._kernel_coords else x % denom
                                for j, x in enumerate(own)), denom)
