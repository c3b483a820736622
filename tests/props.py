"""Property checkers over a whole inner class.

Each checker walks the full one-sided space and returns the number of
individual cases it verified, so callers can assert coverage totals.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from liepar import (InnerClass, NotAnInvolution, RatVecModZ, RealWeylInfo,
                    TitsElt, cartan_classes, central_fixed_points, cross,
                    cross_by_word, dual_tau, enumerate_form, enumerate_X,
                    fiber_space, grading, smith_normal_form,
                    strong_real_forms, tits_group, twisted_involutions)
from liepar.fiber import _signature, _twice_nu, fiber_frame
from liepar.intlinalg import (f2_vec, identity, mat_add, mat_apply, mat_mul,
                              vec_dot)
from liepar.rootdatum import _reflection_closure
from liepar.weyl import WeylError, _compose, _inverse, _perm, cartan_index


def frac_vec(v) -> tuple:
    return tuple(Fraction(x) for x in v)


def vec_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, v) -> tuple:
    return tuple(c * x for x in v)


# ---------------------------------------------------------------------------
# Weyl group routes the library does not take: brute-force enumeration,
# words, products and action matrices read back as elements


def reference_compose(a, b) -> tuple:
    """The permutation a o b, b first, one entry at a time."""
    return tuple(a[i] for i in b)


def all_elements(wg, cap: int = 2 * 10 ** 6):
    """Brute-force enumeration of W by root permutations."""
    seen = {wg.identity.perm: wg.identity}
    queue = [wg.identity]
    while queue:
        w = queue.pop()
        for sp in wg.simple_perms:
            nxt = _compose(w.perm, sp)
            if nxt not in seen:
                seen[nxt] = wg.from_perm(nxt)
                queue.append(seen[nxt])
                if len(seen) > cap:
                    raise WeylError("brute-force enumeration exceeds cap")
    return list(seen.values())


def from_word(wg, word):
    """The element with the given word, folded on root permutations."""
    perm = wg.identity.perm
    for i in word:
        perm = _compose(perm, wg.simple_perms[i])
    return wg.from_perm(perm)


def reference_canonical_word(wg, perm, inv=None):
    """Shortlex-minimal reduced word of the element permuting the roots
    by perm, peeled off the inverse permutation: the smallest left
    descent i, the first with w^-1(alpha_i) < 0, then w^-1 s_i, until
    w^-1 is the identity; the route that WeylGroup.canonical_word, which
    reads the descents off psi, replaced."""
    word = []
    if inv is None:
        inv = _inverse(perm)
    while inv != wg.identity.perm:
        for i, a in enumerate(wg.simple_idx):
            if inv[a] < wg.n_pos:
                word.append(i)
                inv = _compose(inv, wg.simple_perms[i])
                break
        else:
            raise WeylError("permutation is not a Weyl group element")
    return tuple(word)


def perm_bfs(wg, cap):
    """The first cap root permutations of W met breadth-first from the
    identity by right multiplication with simple reflections; no word is
    formed."""
    seen = [wg.identity.perm]
    known = set(seen)
    for p in seen:
        for sp in wg.simple_perms:
            q = _compose(p, sp)
            if q not in known and len(seen) < cap:
                known.add(q)
                seen.append(q)
    return seen


def reference_tau_distances(ic) -> dict:
    """The theta permutation (a tuple) of each twisted involution of ic,
    met breadth-first from delta, with its distance from delta: the cross
    move s theta s and, where theta fixes alpha_s, the Cayley move s
    theta, composed one entry at a time."""
    wg = ic.weyl
    dist = {tuple(ic.gamma_perm): 0}
    queue = list(dist)
    for theta in queue:
        for a, sp in zip(wg.simple_idx, wg.simple_perms):
            targets = [reference_compose(sp, reference_compose(theta, sp))]
            if theta[a] == a:
                targets.append(reference_compose(sp, theta))
            for t in targets:
                if t not in dist:
                    dist[t] = dist[theta] + 1
                    queue.append(t)
    return dist


def mult(wg, a, b):
    return wg.from_perm(_compose(a.perm, b.perm))


def from_matrix(wg, mat):
    """The element with the given action matrix on X, found from the
    images of the roots and checked against its own matrix."""
    rd = wg.rd
    images = [rd.root_index.get(mat_apply(mat, r)) for r in rd.roots]
    assert None not in images, "matrix does not permute the roots"
    w = wg.from_perm(_perm(images))
    assert w.mat == tuple(map(tuple, mat)), "not a Weyl group element"
    return w


def inverse_matrix(w):
    """The action matrix of w^-1 on X."""
    return w.group.lattice_matrix(w.inv_perm)


def act_Xv(w, v):
    """Action of w on the cocharacters: the transposed inverse."""
    return mat_apply(tuple(zip(*inverse_matrix(w))), v)


def root_status(tau):
    """Per root index of the twisted involution tau: 'i' where theta
    fixes it, 'r' where it negates it, else 'C'."""
    neg = tau.ic.weyl.neg
    return tuple('i' if q == r else 'r' if q == neg[r] else 'C'
                 for r, q in enumerate(tau.theta))


# ---------------------------------------------------------------------------
# central squares by brute force: the library reads them off one Smith
# form each


def _scan(ic, n_scan):
    """The central points x of (1/N)Z^n / Z^n, N = n_scan, and those
    among them with (1 - gamma_v) x integral, as integer tuples N x: the
    x with every alpha . x integral, found by trying every point."""
    rd = ic.rd
    g = ic.gamma_mat_dual
    center = [x for x in product(range(n_scan), repeat=rd.rank)
              if all(vec_dot(a, x) % n_scan == 0 for a in rd.simple_roots)]
    fixed = [x for x in center
             if all(c % n_scan == 0 for c in vec_sub(x, mat_apply(g, x)))]
    return center, fixed


def _unscale(x, n_scan):
    return RatVecModZ.reduce([Fraction(c, n_scan) for c in x])


def reference_central_points(ic, n_scan):
    """central_fixed_points by the scan; N must be a multiple of the
    exponent of the answer."""
    return tuple(_unscale(x, n_scan) for x in _scan(ic, n_scan)[1])


def reference_reduced_z0(ic, n_scan):
    """reduced_space(ic).z0 by the same scan: the first twist-fixed
    central point of each coset of {(1 + gamma_v) zeta : zeta central},
    N a multiple of the exponents of the fixed points and of the zeta."""
    center, fixed = _scan(ic, n_scan)
    g = ic.gamma_mat_dual
    image = {tuple(c % n_scan for c in vec_add(x, mat_apply(g, x)))
             for x in center}
    z0 = []
    for x in fixed:
        if not any(tuple(c % n_scan for c in vec_sub(x, w)) in image
                   for w in z0):
            z0.append(x)
    return tuple(_unscale(x, n_scan) for x in z0)


# ---------------------------------------------------------------------------
# operations the library keeps as data, formed from it here: X stores
# the cross and Cayley links as table columns (x.cross, x.cayley), the
# fibers store 2 nu_tau and their Smith forms, and the Cartan classes
# one class index per tau


# z0: a transversal of the twist-fixed central squares modulo
# {z delta(z)}; slices: z -> the element ids of X(z)
ReducedSpace = namedtuple("ReducedSpace", "z0 slices")


def torus_signature(theta):
    """The TorusSignature read off one Smith form of 1 + theta."""
    n = len(theta)
    if any(len(row) != n for row in theta) or \
            mat_mul(theta, theta) != identity(n):
        raise NotAnInvolution("matrix is not a square involution")
    return _signature(smith_normal_form(mat_add(identity(n), theta))[1])


def nu_tau(tau, ic) -> tuple:
    """Half the torus part of sigma_w . delta(sigma_w), a vector in
    (1/2)Z^n: the square of the canonical strong-involution lift over
    tau is exp(2 pi i nu_tau) times the central square."""
    return tuple(Fraction(x, 2) for x in _twice_nu(tau, ic))


@lru_cache(maxsize=4)
def _cayley_down_index(table) -> dict:
    """(s, id) -> the ids whose Cayley transform in alpha_s is id."""
    k = table.ic.rd.n_simple
    down = {}
    for slot, target in enumerate(table._cayley):
        if target is not None:
            down.setdefault((slot % k, target), []).append(slot // k)
    return down


def cayley_down_ids(table, s: int, xid: int) -> tuple:
    return tuple(sorted(_cayley_down_index(table).get((s, xid), ())))


def cayley_down(s: int, x):
    """The elements whose Cayley transform in alpha_s is x."""
    ids = cayley_down_ids(x.table, s, x.id)
    if len(ids) not in (1, 2):
        raise WeylError(f"{len(ids)} Cayley preimages, expected 1 or 2")
    return tuple(map(x.table.__getitem__, ids))


def cartans_for(x0):
    """Cartan classes met by the strong real form of x0, with the torus
    signature, a class invariant, read at the class representative."""
    table = x0.table
    ic = table.ic
    tbl = twisted_involutions(ic)
    classes = cartan_classes(ic)
    ids = table.forms[table.form_of(x0.id)].element_ids
    index = cartan_index(ic)
    met = sorted({index[table._taus[i]] for i in ids})
    return tuple((c, fiber_space(tbl.elements[classes[c].rep], ic).signature)
                 for c in met)


def reduced_space(ic) -> ReducedSpace:
    """The reduced space: one X(z) slice per class of central squares
    modulo the subgroup {zeta delta(zeta)}.  With U M V = diag(d) for
    M = [1 + gamma_v; simple roots], z1 - z2 = (1 + gamma_v) zeta for a
    central zeta exactly when every row j of U whose invariant factor is
    0 (j < n with d_j = 0, and every j >= n) maps D (z1 - z2) to 0 mod D;
    those rows, applied to D z, key the classes."""
    rd = ic.rd
    n = rd.rank
    zg = central_fixed_points(ic)
    rows = mat_add(identity(n), ic.gamma_mat_dual) + rd.simple_roots
    u, d = smith_normal_form(rows)[:2]
    zero_rows = [row[:n] for j, row in enumerate(u) if j >= n or d[j] == 0]
    den = lcm(*(z.order for z in zg))
    classes = {}
    for z in zg:
        y = z.scaled(den)
        classes.setdefault(tuple(vec_dot(r, y) % den for r in zero_rows), z)
    z0 = tuple(classes.values())
    table = enumerate_X(ic)
    return ReducedSpace(z0, {z: table.ids_over(z) for z in z0})


# ---------------------------------------------------------------------------
# reference kernels: index loops, one entry at a time, for the library's
# map/operator forms (sum(map(mul, a, b)), tuple(map(xor, a, b)))


def reference_dot(a, b):
    """sum_t a[t] b[t] by an index loop (int or Fraction entries)."""
    if len(a) != len(b):
        raise ValueError("lengths differ")
    acc = 0
    for t in range(len(a)):
        acc += a[t] * b[t]
    return acc


def reference_mat_mul(a, b) -> tuple:
    """The product of two matrices given by their rows, by the triple
    loop over row, column and inner index."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for i in range(len(a)):
        if len(a[i]) != inner:
            raise ValueError("shapes do not match")
        row = []
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc += a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def reference_apply(m, v) -> tuple:
    """Matrix times column vector: one reference_dot per row."""
    return tuple(reference_dot(row, v) for row in m)


def reference_entrywise(a, b, op) -> tuple:
    """op(a[i][j], b[i][j]) for every entry of two same-shape matrices."""
    if len(a) != len(b):
        raise ValueError("shapes do not match")
    out = []
    for i in range(len(a)):
        if len(a[i]) != len(b[i]):
            raise ValueError("shapes do not match")
        out.append(tuple(op(a[i][j], b[i][j]) for j in range(len(a[i]))))
    return tuple(out)


def reference_f2_add(a, b) -> tuple:
    """a + b mod 2, entry by entry."""
    return tuple((a[t] + b[t]) % 2 for t in range(len(a)))


def reference_reflection_perm(rd, r):
    """The permutation of the roots by the reflection in root r, by the
    lattice formula b - <b, alpha_r^v> alpha_r for every root b."""
    a, av = rd.roots[r], rd.coroots[r]
    return _perm([rd.root_index[vec_sub(b, vec_scale(reference_dot(b, av), a))]
                  for b in rd.roots])


# ---------------------------------------------------------------------------
# reference eliminations: the library solves with the Smith normal form
# alone; these independent routes check it


def row_reduce(rows):
    """Reduced row echelon form over Q of a matrix given by its rows (int
    or Fraction entries): (rows as lists of Fraction, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for j in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][j]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(j)
    return m, tuple(pivots)


def rational_inverse(rows):
    """Inverse over Q of a square matrix given by its rows, as lists of
    Fraction, by Gauss-Jordan elimination; None when it is singular."""
    n = len(rows)
    rref, pivots = row_reduce(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)])
    if pivots != tuple(range(n)):
        return None
    return [row[n:] for row in rref]


def rational_rank(rows) -> int:
    """Rank over Q: the pivot count of the reduced echelon form."""
    return len(row_reduce(rows)[1])


def bareiss_det(rows) -> int:
    """Exact determinant of a square matrix by fraction-free Bareiss
    elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_mod2(rows) -> int:
    """Rank over F2 by elimination on the rows reduced mod 2."""
    m = [[a & 1 for a in row] for row in rows]
    rank = 0
    for j in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def reference_signature(theta):
    """(a, b) of torus_signature as rank minus F2-rank of 1 - theta and of
    1 + theta, by the two eliminations above."""
    n = len(theta)
    out = []
    for sign in (-1, 1):
        rows = [[int(i == j) + sign * theta[i][j] for j in range(n)]
                for i in range(n)]
        out.append(rational_rank(rows) - rank_mod2(rows))
    return tuple(out)


def signature_count(ic) -> int:
    """sum over tau of 2^a(tau), a(tau) = dim ker(theta - 1) - rank_F2(1 +
    theta) with theta = tau.theta_X: the number of +1 summands of theta on
    X, one torus-signature count per tau.  Over the square of a
    quasisplit strong real form no fiber is empty and the fiber over tau
    has 2^a(tau) elements, so this is the size of X over that square.  It
    reads only the involution table's lattice matrices: no Smith form,
    frame, Tits group or search."""
    n = ic.rank
    total = 0
    for tau in twisted_involutions(ic).elements:
        theta = tau.theta_X
        minus, plus = ([[x + sign * (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(theta)] for sign in (-1, 1))
        total += 2 ** (n - rational_rank(minus) - rank_mod2(plus))
    return total


def reflection_matrix(rd, root_idx) -> tuple:
    """Matrix on X of the reflection x -> x - <x, alphav> alpha in a root;
    its transpose acts on the cocharacters."""
    a, av = rd.roots[root_idx], rd.coroots[root_idx]
    return tuple(tuple(int(r == c) - a[r] * av[c] for c in range(rd.rank))
                 for r in range(rd.rank))


def simple_reflection(rd, i) -> tuple:
    """reflection_matrix of the i-th simple root."""
    return reflection_matrix(rd, rd.index_of(rd.simple_roots[i]))


def is_positive(rd, idx) -> bool:
    """Is the root positive: is its height over the simple roots > 0?"""
    return rd.heights[idx] > 0


def sigma_for_root(tg, root_idx):
    """A lift sigma_alpha in the Tits group tg of the reflection in a
    positive root alpha (canonical for simple alpha; well defined up to
    x_{m_alpha}), by recursion on the height: sigma_i sigma_beta
    sigma_i^-1 for the first simple i with beta = s_i(alpha) positive
    and lower."""
    rd, wg = tg.rd, tg.weyl
    assert is_positive(rd, root_idx), "sigma_for_root wants a positive root"
    simple = rd.simple_indices()
    if root_idx in simple:
        return tg.canonical_lift(wg.simple(simple.index(root_idx)))
    for i in range(rd.n_simple):
        j = wg.simple_perms[i][root_idx]
        if is_positive(rd, j) and rd.heights[j] < rd.heights[root_idx]:
            si = tg.canonical_lift(wg.simple(i))
            si_inv = TitsElt(si.w, f2_vec(rd.simple_coroots[i]))
            return tg.multiply(tg.multiply(si, sigma_for_root(tg, j)), si_inv)
    raise WeylError("no height-reducing simple reflection found")


def simple_coordinates(root, simple_roots):
    """Coefficients of root in the simple-root basis, by Fraction
    elimination."""
    k = len(simple_roots)
    rref, pivots = row_reduce([[a[r] for a in simple_roots] + [x]
                               for r, x in enumerate(root)])
    coeffs = [Fraction(0)] * k
    for row, col in zip(rref, pivots):
        coeffs[col] = row[k]
    return tuple(coeffs)


def reference_rho(rd) -> tuple:
    """Half the sum of the positive roots, a vector in X tensor Q, with
    Fraction arithmetic."""
    acc = [Fraction(0)] * rd.rank
    for idx, r in enumerate(rd.roots):
        if is_positive(rd, idx):
            for k in range(rd.rank):
                acc[k] += Fraction(r[k], 2)
    return tuple(acc)


def reference_canonical_form(fs, lam):
    """Unique representative of lambda modulo the lattice and the identity
    component of the theta_v-fixed torus, with Fraction arithmetic and V^-1
    from an independent inversion of V."""
    y = mat_apply(rational_inverse(fs._v), frac_vec(lam))
    y = [Fraction(0) if j in fs._kernel_coords else x % 1
         for j, x in enumerate(y)]
    return RatVecModZ.reduce(mat_apply(fs._v, y))


def reference_fiber(fs, z):
    """All solutions over z by the Fraction route: one solution
    V (U (z - nu))_j / d_j, its 2^rank translates by the halves of the
    d_j = 2 columns of V, each in canonical form; the lex-least is the
    base point and the list starts from it in binary fiber order."""
    uc = mat_apply(fs._u, vec_sub(frac_vec(z.entries), nu_tau(fs.tau, fs.ic)))
    if any(uc[j].denominator != 1 for j in fs._kernel_coords):
        return ()
    lam0 = mat_apply(fs._v, [Fraction(0) if dj == 0 else x / dj
                             for x, dj in zip(uc, fs._diag)])
    cols = tuple(zip(*fs._v))
    halves = [vec_scale(Fraction(1, 2), cols[j]) for j in fs._two_coords]

    def translate(lam, eps):
        for e, h in zip(eps, halves):
            if e:
                lam = vec_add(lam, h)
        return reference_canonical_form(fs, lam)

    signs = list(product((0, 1), repeat=fs.fiber_rank))
    base = min((translate(lam0, eps) for eps in signs),
               key=lambda r: r.entries)
    return tuple(translate(base.entries, eps) for eps in signs)


def reference_delta_signs(ic) -> dict:
    """The sign of delta on a root vector for each delta-imaginary
    positive root beta, compared in a simply connected companion datum
    with the same Cartan matrix and twist, where the coroot points
    m_beta are all nonzero: an independent route to kgb._delta_signs,
    which reads the signs in the Tits group of ic itself."""
    rd = ic.rd
    k = rd.n_simple
    cartan = rd.cartan_matrix
    sc_rd = _reflection_closure(
        cartan, tuple(tuple(int(i == j) for j in range(k)) for i in range(k)),
        k, cartan)
    perm = ic.diagram_perm
    sc_ic = InnerClass(sc_rd, [[1 if j == perm[i] else 0 for j in range(k)]
                               for i in range(k)])
    assert sc_ic.diagram_perm == perm
    tg = tits_group(sc_ic)
    sc_index = {c: j for j, c in enumerate(sc_rd.coefficients)}
    signs = {}
    for b in twisted_involutions(ic).classification(0).im_pos:
        j = sc_index[rd.coefficients[b]]
        sig = sigma_for_root(tg, j)
        d = tg.multiply(tg.twist(sig), tg.inverse(sig))
        assert not d.w.word
        assert not any(d.t) or d.t == tg.m_alpha(j)
        signs[b] = int(any(d.t))
    return signs


def reference_base_grading(ic, lam):
    """Grading bits at a point of the distinguished fiber from Fraction
    pairings: <beta, lambda> must be half-integral, and beta is
    noncompact iff its parity differs from delta's sign on beta."""
    rd = ic.rd
    eps = reference_delta_signs(ic)
    bits = []
    for b in twisted_involutions(ic).classification(0).im_pos:
        pair = vec_dot(rd.roots[b], lam.entries)
        assert (2 * pair).denominator == 1
        bits.append((eps[b] + (pair.denominator != 1)) % 2)
    return tuple(bits)


def per_tau_slice_size(ic, tau, squares):
    """|X_tau(z)| summed over the given squares, from tau's own Smith
    form: the per-tau route the per-class count replaced."""
    fs = fiber_space(tau, ic)
    return sum(2 ** fs.fiber_rank for z in squares if fs.solvable(z))


def per_tau_count_z_blocks(ic, xs, ys):
    """count_z_blocks over the x squares xs and the y squares ys with one
    Smith form per tau on each side."""
    rows = []
    for tau in twisted_involutions(ic).elements:
        nx = per_tau_slice_size(ic, tau, xs)
        ny = per_tau_slice_size(ic.dual, dual_tau(tau, ic), ys) if nx else 0
        rows.append((tau.index, nx, ny))
    return rows, sum(nx * ny for _, nx, ny in rows)


def per_tau_torus_coord(x):
    """lambda of an element from its frame coordinates by the Fraction
    route: V_frame y / D in the canonical form of tau's own Smith form,
    with V^-1 from an independent inversion."""
    ic = x.table.ic
    lam = [Fraction(a, x.table.denom)
           for a in mat_apply(fiber_frame(ic, x.tau.index).v, x.coords)]
    return reference_canonical_form(fiber_space(x.tau, ic), lam)


def reference_classification(tau, rd):
    """tau's root types, its positive imaginary and real roots, deltaC
    and the simple roots of the three subsystems (those not a sum of two
    of its positive roots), all computed at once from the matrix of
    theta on X: the eager route the lazy fields and the root heights
    replaced."""
    status = []
    for r in rd.roots:
        img = mat_apply(tau.theta_X, r)
        status.append('i' if img == r else
                      'r' if img == tuple(-x for x in r) else 'C')
    status = tuple(status)

    def pos(kind):
        return tuple(i for i, s in enumerate(status)
                     if s == kind and is_positive(rd, i))

    def subsystem_simples(pos_indices):
        vecs = {rd.roots[i] for i in pos_indices}
        return tuple(i for i in pos_indices
                     if not any(vec_sub(rd.roots[i], g) in vecs
                                for g in vecs if g != rd.roots[i]))

    im_pos, re_pos = pos('i'), pos('r')
    rho_i = [sum(col) for col in zip(*(rd.roots[i] for i in im_pos))]
    rhov_r = [sum(col) for col in zip(*(rd.coroots[i] for i in re_pos))]
    delta_c = tuple(i for i, s in enumerate(status) if s == 'C'
                    and vec_dot(rho_i, rd.coroots[i]) == 0
                    and vec_dot(rd.roots[i], rhov_r) == 0)
    return {"status": status, "im_pos": im_pos, "re_pos": re_pos,
            "im_simples": subsystem_simples(im_pos),
            "re_simples": subsystem_simples(re_pos), "deltaC": delta_c,
            "deltaC_simples": subsystem_simples(
                tuple(i for i in delta_c if is_positive(rd, i)))}


def perm_closure(gens, size, cap: int = 10 ** 7) -> set:
    """The group generated by the given root permutations of
    range(size), closed under p -> p o g."""
    seen = {_perm(range(size))}
    queue = list(seen)
    for p in queue:
        for q in (_compose(p, g) for g in gens):
            if q not in seen:
                seen.add(q)
                queue.append(q)
        if len(seen) > cap:
            raise WeylError("subgroup closure exceeds cap")
    return seen


def reference_complex_fixed(ic, tau):
    """|W_C^theta| as the theta-fixed elements of W(deltaC), counted one
    by one, where deltaC holds the complex roots orthogonal to 2 rho of
    the imaginary roots and to 2 rhov of the real roots: the route the
    class-size closed form of kgb.real_weyl replaced."""
    wg = ic.weyl
    theta = tau.theta
    simples = reference_classification(tau, ic.rd)["deltaC_simples"]
    return sum(1 for m in perm_closure(
        [wg.reflection_perm(i) for i in simples], len(ic.rd.roots))
        if _compose(theta, _compose(m, theta)) == m)


def reference_real_weyl(x):
    """The real Weyl group of x with each order found by enumerating a
    subgroup of W as root permutations, the simple roots taken from
    reference_classification and |W_C^theta| from
    reference_complex_fixed: the route the closed forms of
    kgb.real_weyl replaced."""
    ic = x.table.ic
    ref = reference_classification(x.tau, ic.rd)
    wg = ic.weyl
    size = len(ic.rd.roots)
    im = [wg.reflection_perm(i) for i in ref["im_simples"]]
    wi_order = len(perm_closure(im, size))
    wr_order = len(perm_closure(
        [wg.reflection_perm(i) for i in ref["re_simples"]], size))
    gens = [wg.from_perm(p) for p in im]
    orbit = {x.id}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        for g in gens:
            z = cross_by_word(g.word, y)
            if z.id not in orbit:
                orbit.add(z.id)
                frontier.append(z)
    stab = wi_order // len(orbit)
    fixed = reference_complex_fixed(ic, x.tau)
    return RealWeylInfo(total=fixed * stab * wr_order, complex_fixed=fixed,
                        stab_imaginary=stab, real_order=wr_order,
                        imaginary_order=wi_order, orbit_size=len(orbit))


def root_is_negative(rd, vec):
    """Is the integer vector a negative root? (It must be a root.)"""
    idx = rd.root_index.get(tuple(vec))
    assert idx is not None, "matrix does not permute the roots"
    return not is_positive(rd, idx)


def matrix_canonical_word(wg, mat, inv):
    """Shortlex-minimal reduced word of the element with the given
    action matrices on X, by peeling the smallest left descent i (the
    first with w^-1(alpha_i) < 0) one matrix product at a time."""
    rd = wg.rd
    word = []
    m, mi = mat, inv
    while m != wg.identity.mat:
        i = next(i for i in range(rd.n_simple) if root_is_negative(
            rd, mat_apply(mi, rd.simple_roots[i])))
        word.append(i)
        s = simple_reflection(rd, i)
        m = mat_mul(s, m)
        mi = mat_mul(mi, s)
    return tuple(word)


def square_of(ic, tau_idx, lam):
    """The central square (1 + theta_v) lambda + nu_tau mod the lattice,
    with Fraction arithmetic."""
    fs = fiber_space(twisted_involutions(ic).elements[tau_idx], ic)
    v = frac_vec(lam)
    return RatVecModZ.reduce(vec_add(vec_add(v, mat_apply(fs.theta_v, v)),
                                     nu_tau(fs.tau, ic)))


def check_cross_involutive(ic):
    table = enumerate_X(ic)
    cases = 0
    for x in table:
        for s in range(ic.n_simple):
            assert cross(s, cross(s, x)) == x
            cases += 1
    return cases


def check_cross_action(ic, pairs):
    """(uv) x x = u x (v x x) for the given (u, v) Weyl element pairs."""
    table = enumerate_X(ic)
    wg = ic.weyl
    cases = 0
    for u, v in pairs:
        uv = mult(wg, u, v)
        for x in table:
            lhs = cross_by_word(uv.word, x)
            rhs = cross_by_word(u.word, cross_by_word(v.word, x))
            assert lhs == rhs
            cases += 1
    return cases


def check_cayley_roundtrip(ic):
    table = enumerate_X(ic)
    cases = 0
    for x in table:
        for s in range(ic.n_simple):
            if x.status[s] == 'n':
                y = table[x.cayley[s]]
                assert y.status[s] == 'r'
                assert x.id in {z.id for z in cayley_down(s, y)}
                cases += 1
            elif x.status[s] == 'r':
                downs = cayley_down(s, x)
                assert len(downs) in (1, 2)
                for z in downs:
                    assert z.status[s] == 'n'
                    assert z.cayley[s] == x.id
                    cases += 1
    return cases


def check_grading_transfer(ic):
    """gr_{s x x}(s(beta)) = gr_x(beta) for every imaginary root beta."""
    table = enumerate_X(ic)
    rd = ic.rd
    smats = [simple_reflection(rd, s) for s in range(ic.n_simple)]
    cases = 0
    for x in table:
        for s, smat in enumerate(smats):
            y = cross(s, x)
            for b, g in x.grading:
                img = rd.index_of(mat_apply(smat, rd.roots[b]))
                assert grading(y, img) == g
                cases += 1
    return cases


def check_fiber_power_two(ic):
    """Every nonempty fiber X_tau(z) has exactly 2^rank elements, all
    with the right square, base point first."""
    table = enumerate_X(ic)
    tbl = twisted_involutions(ic)
    cases = 0
    for tau in tbl.elements:
        fs = fiber_space(tau, ic)
        for z in table.squares:
            elts = fs.elements(z)
            assert len(elts) in (0, 2 ** fs.fiber_rank)
            if elts:
                assert elts[0] == min(elts, key=lambda e: e.entries)
                assert len(set(elts)) == len(elts)
                for lam in elts:
                    assert square_of(ic, tau.index, lam.entries) == z
                    cases += 1
            cases += 1
    return cases


def check_projection_surjective(ic):
    """Every element of X projects to a valid twisted involution, and
    every twisted involution carries at least one element of X."""
    table = enumerate_X(ic)
    tbl = twisted_involutions(ic)
    n = len(tbl.elements)
    hit = set()
    for x in table:
        assert 0 <= x.tau.index < n
        assert tbl.elements[x.tau.index].theta_X == x.tau.theta_X
        hit.add(x.tau.index)
    assert hit == set(range(n))
    return len(table) + n


def check_form_partition(ic):
    """The strong real forms partition X, and each per-form table has
    the advertised size."""
    table = enumerate_X(ic)
    forms = strong_real_forms(ic)
    ids = []
    for f in forms:
        sub = enumerate_form(ic, table[f.element_ids[0]])
        assert len(sub) == len(f.element_ids)
        ids.extend(f.element_ids)
    assert sorted(ids) == list(range(len(table)))
    return len(ids)


def reference_forms(table):
    """(element ids per form index, quasisplit form indices) from a
    union-find over every cross and Cayley link of the element views:
    components ordered by least id, those holding an element with no
    imaginary root (a quasisplit form) last."""
    parent = list(range(len(table)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for x in table:
        for j in x.cross + x.cayley:
            if j is not None:
                a, b = find(x.id), find(j)
                parent[max(a, b)] = min(a, b)
    comps = {}
    for x in table:
        comps.setdefault(find(x.id), []).append(x.id)
    split = {r for r, ids in comps.items()
             if any(not table[i].grading for i in ids)}
    order = sorted(comps, key=lambda r: (r in split, r))
    return ({f: tuple(comps[r]) for f, r in enumerate(order)},
            tuple(f for f, r in enumerate(order) if r in split))


def derived_generation_log(table):
    """How the search reached each element, read off the links, in id
    order: (j, -1, 'seed') for an element over tau index 0, else (j, i,
    move) with i the least id whose cross or Cayley slot holds j and
    move ('x<s>' or 'c<s>') i's first such slot in search order, cross
    s = 0..k-1 and then Cayley s = 0..k-1."""
    found = {}
    for x in table:
        for kind, ids in (('x', x.cross), ('c', x.cayley)):
            for s, j in enumerate(ids):
                if j is not None:
                    found.setdefault(j, (x.id, f"{kind}{s}"))
    return tuple((x.id, -1, 'seed') if x.tau.index == 0
                 else (x.id,) + found[x.id] for x in table)


# the fields of a kgb._move_map record by name, and of its rank-one part:
# the one place outside the library that knows their shapes.
# MoveRecord(*record) reads one, and a record _replace'd from it is a
# record the search takes
MoveRecord = namedtuple("MoveRecord", "target rows offset regrade rank_one")
RankOne = namedtuple("RankOne", "r c fixes")


def tits_identity(tg):
    """The identity of the Tits group tg."""
    return TitsElt(tg.weyl.identity, tg.zero)


def _braid_order(rd, i, j):
    c = rd.cartan_matrix[i][j] * rd.cartan_matrix[j][i]
    return {0: 2, 1: 3, 2: 4, 3: 6}[c]


def _random_reduced_word(wg, w, rng):
    """A random reduced word of w, by peeling random left descents."""
    rd = wg.rd
    word = []
    m, mi = w.mat, inverse_matrix(w)
    while m != wg.identity.mat:
        descents = [i for i in range(rd.n_simple)
                    if root_is_negative(rd,
                                        mat_apply(mi, rd.simple_roots[i]))]
        i = rng.choice(descents)
        word.append(i)
        s = simple_reflection(rd, i)
        m = mat_mul(s, m)
        mi = mat_mul(mi, s)
    return tuple(word)


def check_tits_lifts(ic, rng, n_words=40):
    """Lift well-definedness: the product of simple lifts along ANY
    reduced word of w equals the canonical lift (w, 0); braid relations
    hold on the nose; simple lifts square to m_i."""
    tg = tits_group(ic)
    wg = ic.weyl
    rd = ic.rd
    cases = 0
    lifts = [tg.canonical_lift(wg.simple(i)) for i in range(ic.n_simple)]
    for i in range(ic.n_simple):
        sq = tg.multiply(lifts[i], lifts[i])
        assert not sq.w.word
        assert sq.t == tg.m_alpha(rd.root_index[rd.simple_roots[i]])
        cases += 1
    for i in range(ic.n_simple):
        for j in range(i + 1, ic.n_simple):
            m = _braid_order(rd, i, j)
            a = b = tits_identity(tg)
            for k in range(m):
                a = tg.multiply(a, lifts[i if k % 2 == 0 else j])
                b = tg.multiply(b, lifts[j if k % 2 == 0 else i])
            assert a == b
            cases += 1
    elements = all_elements(wg)
    for _ in range(n_words):
        w = rng.choice(elements)
        word = _random_reduced_word(wg, w, rng)
        assert len(word) == w.length
        prod = tits_identity(tg)
        for i in word:
            prod = tg.multiply(prod, lifts[i])
        assert prod == tg.canonical_lift(w)
        cases += 1
    return cases
