"""Property checkers over a whole inner class.

Each checker walks the full one-sided space and returns the number of
individual cases it verified, so callers can assert coverage totals.
"""

from fractions import Fraction
from itertools import product
from operator import itemgetter

from liepar import (InnerClass, IntMatrix, RatVecModZ, RealWeylInfo,
                    cayley_down, cayley_up, cross, cross_by_word, dual_tau,
                    enumerate_form, enumerate_X, fiber_space, grading,
                    nu_tau, strong_real_forms, tits_group,
                    twisted_involutions)
from liepar.fiber import fiber_frame
from liepar.intlinalg import vec_dot
from liepar.rootdatum import _reflection_closure
from liepar.weyl import WeylError, _compose, _mat_apply, _mat_mul


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


def all_elements(wg, cap: int = 2 * 10 ** 6):
    """Brute-force enumeration of W by root permutations."""
    seen = {wg.identity.perm: wg.identity}
    queue = [wg.identity]
    while queue:
        w = queue.pop()
        for step in wg.times_simple:
            nxt = step(w.perm)
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
        perm = wg.times_simple[i](perm)
    return wg.from_perm(perm)


def mult(wg, a, b):
    return wg.from_perm(_compose(a.perm, b.perm))


def from_matrix(wg, mat):
    """The element with the given action matrix on X, found from the
    images of the roots and checked against its own matrix."""
    rd = wg.rd
    perm = tuple(rd.root_index.get(_mat_apply(mat, r)) for r in rd.roots)
    assert None not in perm, "matrix does not permute the roots"
    w = wg.from_perm(perm)
    assert w.mat == tuple(map(tuple, mat)), "not a Weyl group element"
    return w


def act_Xv(w, v):
    """Action of w on the cocharacters: the transposed inverse."""
    return _mat_apply(tuple(zip(*w.inv)), v)


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
             if all(c % n_scan == 0 for c in vec_sub(x, _mat_apply(g, x)))]
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
    image = {tuple(c % n_scan for c in vec_add(x, _mat_apply(g, x)))
             for x in center}
    z0 = []
    for x in fixed:
        if not any(tuple(c % n_scan for c in vec_sub(x, w)) in image
                   for w in z0):
            z0.append(x)
    return tuple(_unscale(x, n_scan) for x in z0)


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
    n = theta.rows
    out = []
    for sign in (-1, 1):
        rows = [[int(i == j) + sign * theta[i, j] for j in range(n)]
                for i in range(n)]
        out.append(rational_rank(rows) - rank_mod2(rows))
    return tuple(out)


def reflection_matrix(rd, root_idx) -> tuple:
    """Matrix on X of the reflection x -> x - <x, alphav> alpha in a root;
    its transpose acts on the cocharacters."""
    a, av = rd.roots[root_idx], rd.coroots[root_idx]
    return tuple(tuple(int(r == c) - a[r] * av[c] for c in range(rd.rank))
                 for r in range(rd.rank))


def simple_reflection(rd, i) -> tuple:
    """reflection_matrix of the i-th simple root."""
    return reflection_matrix(rd, rd.index_of(rd.simple_roots[i]))


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
        if rd.is_positive(idx):
            for k in range(rd.rank):
                acc[k] += Fraction(r[k], 2)
    return tuple(acc)


def reference_canonical_form(fs, lam):
    """Unique representative of lambda modulo the lattice and the identity
    component of the theta_v-fixed torus, with Fraction arithmetic and V^-1
    from an independent inversion of V."""
    y = _mat_apply(rational_inverse(fs._v.entries), frac_vec(lam))
    y = [Fraction(0) if j in fs._kernel_coords else x % 1
         for j, x in enumerate(y)]
    return RatVecModZ.reduce(fs._v.apply(y))


def reference_fiber(fs, z):
    """All solutions over z by the Fraction route: one solution
    V (U (z - nu))_j / d_j, its 2^rank translates by the halves of the
    d_j = 2 columns of V, each in canonical form; the lex-least is the
    base point and the list starts from it in binary fiber order."""
    uc = fs._u.apply(vec_sub(frac_vec(z.entries), nu_tau(fs.tau, fs.ic)))
    if any(uc[j].denominator != 1 for j in fs._kernel_coords):
        return ()
    lam0 = fs._v.apply([Fraction(0) if dj == 0 else x / dj
                        for x, dj in zip(uc, fs._diag)])
    halves = [vec_scale(Fraction(1, 2), fs._v.col(j)) for j in fs._two_coords]

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
    cartan = rd.cartan_matrix.entries
    sc_rd = _reflection_closure(
        cartan, tuple(tuple(int(i == j) for j in range(k)) for i in range(k)),
        k, cartan)
    perm = ic.diagram_perm
    sc_ic = InnerClass(sc_rd, IntMatrix.from_rows(
        [[1 if j == perm[i] else 0 for j in range(k)] for i in range(k)]))
    assert sc_ic.diagram_perm == perm
    tg = tits_group(sc_ic)
    sc_index = {c: j for j, c in enumerate(sc_rd.coefficients)}
    signs = {}
    for b in twisted_involutions(ic).classification(0).im_pos:
        j = sc_index[rd.coefficients[b]]
        sig = tg.sigma_for_root(j)
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
           for a in _mat_apply(fiber_frame(ic, x.tau.index).v, x.coords)]
    return reference_canonical_form(fiber_space(x.tau, ic), lam)


def reference_classification(tau, rd):
    """The seven fields of a root classification, all computed at once
    from the matrix of theta on X: the eager route the lazy fields
    replaced."""
    status = []
    for r in rd.roots:
        img = _mat_apply(tau.theta_X, r)
        status.append('i' if img == r else
                      'r' if img == tuple(-x for x in r) else 'C')
    status = tuple(status)

    def pos(kind):
        return tuple(i for i, s in enumerate(status)
                     if s == kind and rd.is_positive(i))

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
                tuple(i for i in delta_c if rd.is_positive(i)))}


def perm_closure(gens, size, cap: int = 10 ** 7) -> set:
    """The group generated by the given permutations of range(size);
    itemgetter(*g)(p) is the composition p o g."""
    steps = [itemgetter(*g) for g in gens]
    seen = {tuple(range(size))}
    queue = list(seen)
    for p in queue:
        for q in (step(p) for step in steps):
            if q not in seen:
                seen.add(q)
                queue.append(q)
        if len(seen) > cap:
            raise WeylError("subgroup closure exceeds cap")
    return seen


def reference_real_weyl(x):
    """The real Weyl group of x with each order found by enumerating a
    subgroup of W as root permutations, and the theta-fixed part of
    W(deltaC) counted element by element: the route the closed forms of
    kgb.real_weyl replaced."""
    ic = x.table.ic
    cls = twisted_involutions(ic).classification(x.tau.index)
    wg = ic.weyl
    size = len(ic.rd.roots)
    im = [wg.reflection_perm(i) for i in cls.im_simples]
    wi_order = len(perm_closure(im, size))
    wr_order = len(perm_closure(
        [wg.reflection_perm(i) for i in cls.re_simples], size))
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
    theta = x.tau.theta
    fixed = sum(1 for m in perm_closure(
        [wg.reflection_perm(i) for i in cls.deltaC_simples], size)
        if _compose(theta, _compose(m, theta)) == m)
    return RealWeylInfo(total=fixed * stab * wr_order, complex_fixed=fixed,
                        stab_imaginary=stab, real_order=wr_order,
                        imaginary_order=wi_order, orbit_size=len(orbit))


def root_is_negative(rd, vec):
    """Is the integer vector a negative root? (It must be a root.)"""
    idx = rd.root_index.get(tuple(vec))
    assert idx is not None, "matrix does not permute the roots"
    return not rd.is_positive(idx)


def matrix_canonical_word(wg, mat, inv):
    """Shortlex-minimal reduced word of the element with the given
    action matrices on X, by peeling the smallest left descent i (the
    first with w^-1(alpha_i) < 0) one matrix product at a time."""
    rd = wg.rd
    word = []
    m, mi = mat, inv
    while m != wg.identity.mat:
        i = next(i for i in range(rd.n_simple) if root_is_negative(
            rd, _mat_apply(mi, rd.simple_roots[i])))
        word.append(i)
        s = simple_reflection(rd, i)
        m = _mat_mul(s, m)
        mi = _mat_mul(mi, s)
    return tuple(word)


def square_of(ic, tau_idx, lam):
    """The central square (1 + theta_v) lambda + nu_tau mod the lattice,
    with Fraction arithmetic."""
    fs = fiber_space(twisted_involutions(ic).elements[tau_idx], ic)
    v = frac_vec(lam)
    return RatVecModZ.reduce(vec_add(vec_add(v, fs.theta_v.apply(v)),
                                     nu_tau(fs.tau, ic)))


def check_cross_involutive(ic):
    table = enumerate_X(ic)
    cases = 0
    for x in table.elements:
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
        for x in table.elements:
            lhs = cross_by_word(uv.word, x)
            rhs = cross_by_word(u.word, cross_by_word(v.word, x))
            assert lhs == rhs
            cases += 1
    return cases


def check_cayley_roundtrip(ic):
    table = enumerate_X(ic)
    cases = 0
    for x in table.elements:
        for s in range(ic.n_simple):
            if x.status[s] == 'n':
                y = cayley_up(s, x)
                assert y.status[s] == 'r'
                assert x.id in {z.id for z in cayley_down(s, y)}
                cases += 1
            elif x.status[s] == 'r':
                downs = cayley_down(s, x)
                assert len(downs) in (1, 2)
                for z in downs:
                    assert z.status[s] == 'n'
                    assert cayley_up(s, z) == x
                    cases += 1
    return cases


def check_grading_transfer(ic):
    """gr_{s x x}(s(beta)) = gr_x(beta) for every imaginary root beta."""
    table = enumerate_X(ic)
    rd = ic.rd
    smats = [simple_reflection(rd, s) for s in range(ic.n_simple)]
    cases = 0
    for x in table.elements:
        for s, smat in enumerate(smats):
            y = cross(s, x)
            for b, g in x.grading:
                img = rd.index_of(_mat_apply(smat, rd.roots[b]))
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
    for x in table.elements:
        assert 0 <= x.tau.index < n
        assert tbl.elements[x.tau.index].theta_X == x.tau.theta_X
        hit.add(x.tau.index)
    assert hit == set(range(n))
    return len(table.elements) + n


def check_form_partition(ic):
    """The strong real forms partition X, and each per-form table has
    the advertised size."""
    table = enumerate_X(ic)
    forms = strong_real_forms(ic)
    ids = []
    for f in forms:
        sub = enumerate_form(ic, table.elements[f.element_ids[0]])
        assert len(sub) == len(f.element_ids)
        ids.extend(f.element_ids)
    assert sorted(ids) == list(range(len(table)))
    return len(ids)


def reference_forms(table):
    """(form_partition, quasisplit_forms) from a union-find over every
    cross and Cayley link of the element views: components ordered by
    least id, those holding an element with no imaginary root (a
    quasisplit form) last."""
    parent = list(range(len(table.elements)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for x in table.elements:
        for j in x.cross + x.cayley:
            if j is not None:
                a, b = find(x.id), find(j)
                parent[max(a, b)] = min(a, b)
    comps = {}
    for x in table.elements:
        comps.setdefault(find(x.id), []).append(x.id)
    split = {r for r, ids in comps.items()
             if any(not table.elements[i].grading for i in ids)}
    order = sorted(comps, key=lambda r: (r in split, r))
    return ({f: tuple(comps[r]) for f, r in enumerate(order)},
            tuple(f for f, r in enumerate(order) if r in split))


def _braid_order(rd, i, j):
    c = rd.cartan_matrix[i, j] * rd.cartan_matrix[j, i]
    return {0: 2, 1: 3, 2: 4, 3: 6}[c]


def _random_reduced_word(wg, w, rng):
    """A random reduced word of w, by peeling random left descents."""
    rd = wg.rd
    word = []
    m, mi = w.mat, w.inv
    while m != wg.identity.mat:
        descents = [i for i in range(rd.n_simple)
                    if root_is_negative(rd,
                                        _mat_apply(mi, rd.simple_roots[i]))]
        i = rng.choice(descents)
        word.append(i)
        s = simple_reflection(rd, i)
        m = _mat_mul(s, m)
        mi = _mat_mul(mi, s)
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
            a = tg.identity
            b = tg.identity
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
        prod = tg.identity
        for i in word:
            prod = tg.multiply(prod, lifts[i])
        assert prod == tg.canonical_lift(w)
        cases += 1
    return cases
