"""Root data: construction, validation, reflection closure and duality.

A root datum is (X, Delta, Xv, Deltav): character/cocharacter lattices
in perfect pairing with simple roots and coroots.  X is identified with
Z^n in a fixed standard basis, so roots are integer vectors in X
coordinates, coroots integer vectors in the dual coordinates, and the
pairing is the standard dot product.
"""

from __future__ import annotations

from operator import itemgetter, mul

from .intlinalg import identity, rank as matrix_rank, vec_dot


class RootDatumError(ValueError):
    pass


class NotACartanMatrix(RootDatumError):
    pass


class PairingNotTwo(RootDatumError):
    pass


class InfiniteClosure(RootDatumError):
    pass


class UnknownType(RootDatumError):
    pass


class RootDatum:
    """Equal and hashed by its six defining fields, rank to cartan_matrix."""

    def __init__(self, rank, simple_roots, simple_coroots, roots, coroots,
                 cartan_matrix, coefficients=(), coroot_coefficients=(),
                 heights=(), root_index=None):
        self.rank = rank
        self.simple_roots = simple_roots
        self.simple_coroots = simple_coroots
        self.roots = roots        # all roots, canonical (height, lex) order
        self.coroots = coroots    # matched to roots by alpha <-> alphav
        self.cartan_matrix = cartan_matrix  # rows: <alpha_i, alphav_j>
        # derived by new_root_datum: coefficients per root in the simple
        # roots, coroot_coefficients per coroot in the simple coroots
        self.coefficients = coefficients
        self.coroot_coefficients = coroot_coefficients
        self.heights = heights
        self.root_index = {} if root_index is None else root_index

    def _key(self) -> tuple:
        return (self.rank, self.simple_roots, self.simple_coroots,
                self.roots, self.coroots, self.cartan_matrix)

    def __eq__(self, other):
        return isinstance(other, RootDatum) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n_simple(self) -> int:
        return len(self.simple_roots)

    @property
    def n_pos(self) -> int:
        return len(self.roots) // 2

    def index_of(self, root_vec) -> int:
        return self.root_index[tuple(root_vec)]

    def simple_indices(self) -> tuple:
        return tuple(self.root_index[r] for r in self.simple_roots)

    def negative_of(self, root_idx: int) -> int:
        return self.root_index[tuple([-x for x in self.roots[root_idx]])]

    def rho_in_X(self) -> bool:
        """Is rho a character: is every coordinate of 2 rho even?"""
        return all(sum(col) % 2 == 0
                   for col in zip(*self.roots[self.n_pos:]))

    def dual(self) -> "RootDatum":
        """Swap roots, coroots and their coefficients, transpose the Cartan
        matrix and reorder: the dual of a valid datum needs no closure or
        validation.  rd.dual().dual() == rd."""
        return _ordered_datum(self.rank, self.simple_coroots,
                              self.simple_roots,
                              tuple(zip(*self.cartan_matrix)), self.coroots,
                              self.roots, self.coroot_coefficients,
                              self.coefficients)


def _validate_cartan(cartan, n_simple):
    for i in range(n_simple):
        if cartan[i][i] != 2:
            raise PairingNotTwo(
                f"<alpha_{i}, alphav_{i}> = {cartan[i][i]}, expected 2")
    for i in range(n_simple):
        for j in range(n_simple):
            if i == j:
                continue
            cij, cji = cartan[i][j], cartan[j][i]
            if cij > 0 or cji > 0:
                raise NotACartanMatrix(
                    f"positive off-diagonal entry at ({i},{j})")
            if (cij == 0) != (cji == 0):
                raise NotACartanMatrix(
                    f"asymmetric zero at ({i},{j})")
            if cij * cji > 3:
                raise InfiniteClosure(
                    f"Cartan product {cij * cji} > 3 at ({i},{j}): "
                    "not of finite type")


def _integer(x, error=RootDatumError) -> int:
    """x as an int when it is an integer in value (2 or 2.0, not 2.5 or
    "2"); else error, by default RootDatumError."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise error(f"{x!r} is not an integer")
    return n


def new_root_datum(simple_roots, simple_coroots, rank=None) -> RootDatum:
    """Validate and build a root datum from simple roots/coroots,
    generating the full root system by reflection closure.  The lattice
    rank is read off the vectors; it must be given when there are no
    simple roots (a torus).  An entry or rank that is not an integer in
    value, or a negative rank, raises RootDatumError."""
    simple_roots = tuple(tuple(map(_integer, r)) for r in simple_roots)
    simple_coroots = tuple(tuple(map(_integer, r)) for r in simple_coroots)
    if len(simple_roots) != len(simple_coroots):
        raise RootDatumError("need equally many roots and coroots")
    k = len(simple_roots)
    if rank is None:
        rank = len(simple_roots[0]) if k else 0
    rank = _integer(rank)
    if rank < 0:
        raise RootDatumError(f"rank {rank} is negative")
    for r in simple_roots + simple_coroots:
        if len(r) != rank:
            raise RootDatumError("inconsistent vector lengths")

    cartan = tuple(tuple([vec_dot(a, av) for av in simple_coroots])
                   for a in simple_roots)
    _validate_cartan(cartan, k)
    if matrix_rank(simple_roots) != k:
        raise NotACartanMatrix("simple roots are linearly dependent")
    if matrix_rank(simple_coroots) != k:
        raise NotACartanMatrix("simple coroots are linearly dependent")
    return _reflection_closure(simple_roots, simple_coroots, rank, cartan)


def _reflection_closure(simple_roots, simple_coroots, rank, cartan):
    """The root datum of validated simple roots and coroots (tuples) with
    Cartan matrix cartan: the reflection closure on (root, coroot) pairs,
    carrying each root's coefficients in the simple roots and its
    coroot's in the simple coroots (s_i subtracts c, resp. cv, at i).  A
    pair that s_i fixes (both pairings 0) is skipped; a pair with one
    pairing 0 still meets the bijection check.  A finite root system of
    rank k has at most 15 k^2 / 4 roots (E8 has 240 = 3.75 * 8^2), so a
    closure past 4 k^2 raises InfiniteClosure: the Cartan matrix is of
    affine or indefinite type, or not symmetrizable."""
    k = len(simple_roots)
    pairs = {}
    coefficients, co_coefficients = {}, {}
    for i, p in enumerate(zip(simple_roots, simple_coroots)):
        for sign in (1, -1):
            root = tuple(sign * x for x in p[0])
            pairs[root] = tuple(sign * x for x in p[1])
            coefficients[root] = co_coefficients[root] = \
                tuple(sign * (i == j) for j in range(k))
    queue = list(pairs.items())
    qi = 0
    while qi < len(queue):
        root, coroot = queue[qi]
        qi += 1
        for i, (a, av) in enumerate(zip(simple_roots, simple_coroots)):
            c = sum(map(mul, root, av))
            cv = sum(map(mul, a, coroot))
            if not c and not cv:
                continue
            nr = tuple([x - c * y for x, y in zip(root, a)])
            nc = tuple([x - cv * y for x, y in zip(coroot, av)])
            if nr not in pairs:
                pairs[nr] = nc
                coeffs = list(coefficients[root])
                coeffs[i] -= c
                coefficients[nr] = tuple(coeffs)
                coeffs = list(co_coefficients[root])
                coeffs[i] -= cv
                co_coefficients[nr] = tuple(coeffs)
                queue.append((nr, nc))
                if len(pairs) > 4 * k * k:
                    raise InfiniteClosure(
                        "Cartan matrix is not of finite type")
            elif pairs[nr] != nc:
                raise NotACartanMatrix("root/coroot bijection broke under "
                                       "reflection closure")

    return _ordered_datum(rank, simple_roots, simple_coroots, cartan,
                          tuple(pairs), tuple(pairs.values()),
                          tuple(coefficients.values()),
                          tuple(co_coefficients.values()))


def _ordered_datum(rank, simple_roots, simple_coroots, cartan_matrix, roots,
                   coroots, coefficients, coroot_coefficients):
    """The datum with these matched roots, coroots and coefficients, in
    canonical order: height (sum of the simple coefficients), then lex."""
    order = sorted(range(len(roots)),
                   key=lambda r: (sum(coefficients[r]), roots[r]))
    # a torus has no roots
    pick = itemgetter(*order) if len(order) > 1 else tuple
    roots, coroots, coefficients, coroot_coefficients = map(
        pick, (roots, coroots, coefficients, coroot_coefficients))
    return RootDatum(rank, simple_roots, simple_coroots, roots, coroots,
                     cartan_matrix, coefficients, coroot_coefficients,
                     tuple(map(sum, coefficients)),
                     dict(zip(roots, range(len(order)))))


# ---------------------------------------------------------------------------
# named types


def _cartan_A(n):
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        c[i][i] = 2
        if i + 1 < n:
            c[i][i + 1] = c[i + 1][i] = -1
    return c


def _cartan_B(n):
    c = _cartan_A(n)
    if n >= 2:
        c[n - 2][n - 1] = -2
        c[n - 1][n - 2] = -1
    return c


def _cartan_C(n):
    c = _cartan_A(n)
    if n >= 2:
        c[n - 2][n - 1] = -1
        c[n - 1][n - 2] = -2
    return c


def _cartan_D(n):
    if n < 3:
        raise UnknownType(f"D{n} requires n >= 3")
    c = _cartan_A(n)
    c[n - 2][n - 1] = c[n - 1][n - 2] = 0
    c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return c


def _cartan_E(n):
    if n not in (6, 7, 8):
        raise UnknownType(f"E{n} is not a type")
    # Bourbaki: node 2 attaches to node 4 of the A-chain 1-3-4-5-6[-7-8]
    chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    def link(a, b):
        c[a - 1][b - 1] = c[b - 1][a - 1] = -1
    for a, b in zip(chain, chain[1:]):
        link(a, b)
    link(2, 4)
    return c


def _cartan_F(n):
    if n != 4:
        raise UnknownType(f"F{n} is not a type")
    return [[2, -1, 0, 0],
            [-1, 2, -2, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2]]


def _cartan_G(n):
    if n != 2:
        raise UnknownType(f"G{n} is not a type")
    return [[2, -1], [-3, 2]]


_CARTAN_BUILDERS = {"A": _cartan_A, "B": _cartan_B, "C": _cartan_C,
                    "D": _cartan_D, "E": _cartan_E, "F": _cartan_F,
                    "G": _cartan_G}


def parse_type(type_string: str):
    """Parse e.g. "A1", "C2.A1.T2" into (cartan blocks, torus rank)."""
    blocks = []
    torus = 0
    for part in type_string.split("."):
        part = part.strip()
        if not part or not part[0].isalpha() or not part[1:].isdigit():
            raise UnknownType(f"cannot parse type factor {part!r}")
        letter, num = part[0].upper(), int(part[1:])
        if letter == "T":
            torus += num
            continue
        if letter not in _CARTAN_BUILDERS:
            raise UnknownType(f"unknown type letter {letter!r}")
        if num < 1:
            raise UnknownType(f"rank must be positive in {part!r}")
        if letter == "B" and num == 1:
            letter = "A"  # B1 = A1
        if letter == "C" and num == 1:
            letter = "A"  # C1 = A1
        if letter == "D" and num < 3:
            raise UnknownType(f"D{num} is not supported; use A1 factors")
        blocks.append(_CARTAN_BUILDERS[letter](num))
    return blocks, torus


def _block_diagonal(blocks) -> list:
    """The Cartan matrix of the factors' blocks, as tuple rows."""
    k = sum(len(b) for b in blocks)
    out = [[0] * k for _ in range(k)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[offset + i][offset:offset + len(b)] = row
        offset += len(b)
    return [tuple(r) for r in out]


def from_type(type_string: str, isogeny: str) -> RootDatum:
    """Build a named datum: for sc the simple coroots are the standard
    basis (X = weight-lattice coordinates); for ad the simple roots are
    the standard basis (X = root lattice)."""
    if isogeny not in ("sc", "ad"):
        raise UnknownType(f"isogeny must be sc or ad, got {isogeny!r}")
    blocks, torus = parse_type(type_string)
    cartan = _block_diagonal(blocks)
    k = len(cartan)
    rank = k + torus
    unit = identity(rank)[:k]
    pad = (0,) * torus
    if isogeny == "sc":
        return new_root_datum([row + pad for row in cartan], unit, rank)
    return new_root_datum(unit, [col + pad for col in zip(*cartan)], rank)
