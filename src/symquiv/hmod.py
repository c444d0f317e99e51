"""Matrix representations of the truncated path algebra H = H_K(C, D, Omega).

A module is a vertexwise graded vector space with a nilpotent loop matrix
eps_i at each vertex (eps_i^{c_i} = 0) and one matrix per arrow (i, j, k)
mapping the component at j into the component at i, subject to
eps_i^{a} A = A eps_j^{b} where a = -c_ji/g_ij and b = -c_ij/g_ij.

Stored eps matrices are kept in Jordan form (nilpotent chains, block sizes
descending); constructors that could break this re-normalize.  For locally
free modules the blocks are rectangular of size c_i, which makes Hom spaces
and submodule enumeration pure linear algebra.

The relations are one table of signed words in the generators ("eps", v)
and ("arrow", key), chosen by the module's type: eps nilpotence and the
commutations here, plus the reversed commutations and the meshes for a
PiModule.  check_relations evaluates the table with sparse word products.
On [[top, Y], [0, bottom]] with module diagonal blocks every relation's
top-right block is linear in Y; _coupling_rows assembles that map, whose
kernel gives the arrow space and random modules (top = bottom = the bare
module), random extensions, and the cochains of Ext^1.

One builder per kind of module: E_i and 0 are bare modules (_bare_module),
He_i is spanned by normal monomials, and D(e_i H) is a transposed He_i of
H(C, D, Omega^op), the opposite algebra.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from . import cartan, linalg
from .cartan import CartanDatum, Orientation
from .errors import (
    InternalMismatchError,
    NotLocallyFreeError,
    NotNilpotentError,
    PrimeReductionError,
    ShapeMismatchError,
    SpecMismatchError,
)
from .fields import FieldSpec, RATIONALS


@dataclass(frozen=True)
class HAlgebraSpec:
    """The algebra H_K(C, D, Omega) over an exact field."""

    datum: CartanDatum
    omega: Orientation
    fieldspec: FieldSpec

    def __post_init__(self):
        self._verify_rewriting_confluence()

    def _verify_rewriting_confluence(self):
        """Local confluence of the monomial rewriting on all critical pairs.

        The only overlaps are between a loop-power rule eps_i^{c_i} -> 0 and an
        arrow rule eps_i^a alpha -> alpha eps_j^b: the cascaded rewrite of
        eps_i^{c_i} alpha must reach alpha eps_j^{c_j} = 0, i.e. a | c_i and
        (c_i/a) b = c_j, in both arrow directions.
        """
        D = self.datum.D
        for (i, j) in [(a, b) for a, b in self.datum.edges()] + \
                      [(b, a) for a, b in self.datum.edges()]:
            a, b = self.rel_powers(i, j)
            if D[i] % a != 0 or (D[i] // a) * b != D[j]:
                raise InternalMismatchError(
                    f"rewriting not confluent on the critical pair at edge ({i}, {j})")

    def field(self):
        return self.fieldspec.field()

    def arrow_keys(self):
        return cartan.arrows_of(self.datum, self.omega)

    def rel_powers(self, i, j):
        """(power on eps_i, power on eps_j) in the relation for an arrow j -> i."""
        g = self.datum.g[i][j]
        return -self.datum.C[j][i] // g, -self.datum.C[i][j] // g

    @functools.lru_cache
    def reflected(self, k) -> "HAlgebraSpec":
        """The spec with the orientation reflected at the sink or source k;
        memoized, so the confluence check runs once per distinct spec."""
        return HAlgebraSpec(
            self.datum, cartan.reflect_orientation(self.datum, self.omega, k), self.fieldspec)

    def with_field(self, fieldspec) -> "HAlgebraSpec":
        return HAlgebraSpec(self.datum, self.omega, fieldspec)


class HModule:
    """A representation of H: dims, eps matrices, arrow matrices."""

    __slots__ = ("spec", "dims", "eps", "arrows")

    def __init__(self, spec, dims, eps, arrows):
        self.spec = spec
        self.dims = tuple(dims)
        self.eps = [linalg.copy_mat(m) for m in eps]
        self.arrows = {k: linalg.copy_mat(m) for k, m in arrows.items()}

    def arrow_keys(self):
        return self.spec.arrow_keys()

    def field(self):
        return self.spec.field()

    def _relation_table(self):
        return _h_relation_table(self.spec)

    def total_dim(self):
        return sum(self.dims)

    def key(self):
        """Hashable exact fingerprint (used for memo tables)."""
        return (
            self.dims,
            tuple(tuple(tuple(r) for r in m) for m in self.eps),
            tuple(sorted((k, tuple(tuple(r) for r in m)) for k, m in self.arrows.items())),
        )

    def __repr__(self):
        return f"<{type(self).__name__} dims={self.dims}>"


# --- basic constructors -----------------------------------------------------


def jordan_nilpotent(field, blocks):
    """Nilpotent matrix with chains of the given sizes: e_t -> e_{t+1} in each block."""
    n = sum(blocks)
    m = linalg.zeros(field, n, n)
    pos = 0
    for b in blocks:
        for t in range(b - 1):
            m[pos + t + 1][pos + t] = field.one
        pos += b
    return m


def read_jordan_blocks(field, eps):
    """Block sizes if eps is exactly a chain-form nilpotent, else None."""
    n = len(eps)
    z, o = field.zero, field.one
    nxt = [None] * n
    for c in range(n):
        hits = [r for r in range(n) if eps[r][c] != z]
        if len(hits) > 1:
            return None
        if hits:
            if eps[hits[0]][c] != o or hits[0] != c + 1:
                return None
            nxt[c] = hits[0]
    blocks = []
    c = 0
    while c < n:
        size = 1
        while nxt[c + size - 1] is not None:
            size += 1
        blocks.append(size)
        c += size
    return blocks


def free_eps(field, c, r):
    """Canonical rectangular nilpotent of type c^r."""
    return jordan_nilpotent(field, [c] * r)


def _bare_module(spec, r):
    """The module of rank r with canonical eps and zero arrows."""
    field = spec.field()
    datum = spec.datum
    dims = [datum.D[v] * r[v] for v in range(datum.n)]
    eps = [free_eps(field, datum.D[v], r[v]) for v in range(datum.n)]
    arrows = {key: linalg.zeros(field, dims[key[0]], dims[key[1]]) for key in spec.arrow_keys()}
    return HModule(spec, dims, eps, arrows)


def zero_module(spec) -> HModule:
    return _bare_module(spec, (0,) * spec.datum.n)


def generalized_simple(spec, i) -> HModule:
    """E_i: rank alpha_i, concentrated at i, eps_i one nilpotent chain of length c_i."""
    return _bare_module(spec, [int(v == i) for v in range(spec.datum.n)])


def direct_sum(M, N):
    if M.spec != N.spec:
        raise SpecMismatchError("direct sum needs a common algebra spec")
    return normalize_eps(_block_module(M, N, {}))


def _block_module(top, bottom, couplings):
    """The module [[top, Y], [0, bottom]]: each generator g acts by its
    matrices on top and bottom, plus the block couplings[g] (zero when
    missing) from the bottom part at its source to the top part at its
    target."""
    field = top.field()
    dims = [a + b for a, b in zip(top.dims, bottom.dims)]

    def block(g, a, b):
        tgt, src = _ends(g)
        m = linalg.zeros(field, dims[tgt], dims[src])
        _insert_block(m, a, 0, 0)
        _insert_block(m, b, top.dims[tgt], top.dims[src])
        _insert_block(m, couplings.get(g, []), 0, top.dims[src])
        return m

    eps = [block(("eps", v), top.eps[v], bottom.eps[v]) for v in range(top.spec.datum.n)]
    arrows = {key: block(("arrow", key), top.arrows[key], bottom.arrows[key])
              for key in top.arrows}
    return type(top)(top.spec, dims, eps, arrows)


def _insert_block(target, block, r0, c0):
    for r, row in enumerate(block):
        for c, x in enumerate(row):
            target[r0 + r][c0 + c] = x


# --- the relation table: checks and linearization ---------------------------


def _ends(g):
    """(target, source) of a generator ("eps", v) or ("arrow", (i, j, copy))."""
    kind, x = g
    return (x, x) if kind == "eps" else (x[0], x[1])


def _relation_words(spec, arrow_keys):
    """Eps nilpotence at every vertex and the commutation of every arrow in
    arrow_keys, as (violation message, target, source, signed words); a word
    is a tuple of generators, multiplied left to right."""
    datum = spec.datum
    table = [(f"eps_{v + 1}^{datum.D[v]} != 0", v, v, ((1, (("eps", v),) * datum.D[v]),))
             for v in range(datum.n)]
    for key in arrow_keys:
        (i, j, _) = key
        a, b = spec.rel_powers(i, j)
        arrow = ("arrow", key)
        table.append((f"eps_{i + 1}^{a} A{key} != A{key} eps_{j + 1}^{b}", i, j,
                      ((1, (("eps", i),) * a + (arrow,)), (-1, (arrow,) + (("eps", j),) * b))))
    return table


@functools.lru_cache
def _h_relation_table(spec):
    """The relations of H: eps nilpotence and the commutation of each arrow
    of the orientation."""
    return tuple(_relation_words(spec, spec.arrow_keys()))


def _check_shapes(M):
    for v in range(M.spec.datum.n):
        if len(M.eps[v]) != M.dims[v] or any(len(r) != M.dims[v] for r in M.eps[v]):
            raise ShapeMismatchError(f"eps_{v + 1} has wrong shape")
    for key, A in M.arrows.items():
        (i, j, _) = key
        if len(A) != M.dims[i] or (M.dims[i] and any(len(r) != M.dims[j] for r in A)):
            raise ShapeMismatchError(f"arrow {key} has wrong shape")


def _word_entries(field, M, word, vertex, cache):
    """Nonzero (row, column, value) entries of the matrix of a word on M; the
    empty word is the identity at `vertex`, the target of the word.  Each
    product is its prefix's entries times the last generator's rows, and
    cache keeps every prefix for the words that share it."""
    key = (word, vertex)
    if key not in cache:
        z = field.zero
        if not word:
            cache[key] = [(r, r, field.one) for r in range(M.dims[vertex])]
        else:
            g = word[-1]
            mat = M.eps[g[1]] if g[0] == "eps" else M.arrows[g[1]]
            rows = {}
            for r, c, x in _word_entries(field, M, word[:-1], vertex, cache):
                row = rows.setdefault(r, [z] * M.dims[_ends(g)[1]])
                for q, y in enumerate(mat[c]):
                    if y != z:
                        row[q] = field.add(row[q], field.mul(x, y))
            cache[key] = [(r, q, x) for r, row in rows.items() for q, x in enumerate(row)
                          if x != z]
    return cache[key]


def check_relations(M) -> list:
    """Named violations of the relations in M's table (those of H for an
    HModule, of Pi for a PiModule); empty iff M is a module."""
    _check_shapes(M)
    field = M.field()
    cache = {}
    violations = []
    for message, tgt, src, words in M._relation_table():
        if not (M.dims[tgt] and M.dims[src]):
            continue
        total = [[field.zero] * M.dims[src] for _ in range(M.dims[tgt])]
        for sign, word in words:
            for r, c, x in _word_entries(field, M, word, tgt, cache):
                total[r][c] = field.add(total[r][c], x if sign > 0 else field.neg(x))
        if any(x != field.zero for row in total for x in row):
            violations.append(message)
    return violations


def _coupling_rows(top, bottom, unknowns):
    """(number of unknowns, rows) of the linear map sending coupling blocks Y
    to the top-right blocks of every relation of top's table on
    [[top, Y], [0, bottom]].

    Y_g (top at the target of g, bottom at its source) is unknown for the
    generators in `unknowns`, laid out in that order and row-major, and zero
    for the others.  The diagonal blocks are modules, so each relation is
    linear in Y: a word g_1 ... g_m contributes, for every position p with g_p
    unknown, (top product of g_1 ... g_{p-1}) Y_{g_p} (bottom product of
    g_{p+1} ... g_m).  Zero rows are dropped; the row space is that of the
    full top-right residual.
    """
    field = top.field()
    z, add, mul, neg = field.zero, field.add, field.mul, field.neg
    offsets = {}
    total = 0
    for g in unknowns:
        tgt, src = _ends(g)
        offsets[g] = total
        total += top.dims[tgt] * bottom.dims[src]
    rows = []
    top_cache, bottom_cache = {}, {}
    for _, tgt, src, words in top._relation_table():
        width = bottom.dims[src]
        if total == 0 or top.dims[tgt] * width == 0:
            continue
        block = [[z] * total for _ in range(top.dims[tgt] * width)]
        for sign, word in words:
            for p, g in enumerate(word):
                if g not in offsets:
                    continue
                g_src = _ends(g)[1]
                base, stride = offsets[g], bottom.dims[g_src]
                right = _word_entries(field, bottom, word[p + 1:], g_src, bottom_cache)
                for r, a, x in _word_entries(field, top, word[:p], tgt, top_cache):
                    x = x if sign > 0 else neg(x)
                    for b, c, y in right:
                        cell = block[r * width + c]
                        col = base + a * stride + b
                        cell[col] = add(cell[col], mul(x, y))
        rows.extend(row for row in block if any(x != z for x in row))
    return total, rows


def _random_couplings(top, bottom, unknowns, rng, bound):
    """Coupling blocks {g: Y_g} of a random element of the kernel of
    _coupling_rows(top, bottom, unknowns): each kernel basis vector in turn
    gets a coefficient drawn from F_p, or from [-bound, bound] over Q."""
    field = top.field()
    total, rows = _coupling_rows(top, bottom, unknowns)
    blocks = {}
    index = []
    for g in unknowns:
        tgt, src = _ends(g)
        blocks[g] = linalg.zeros(field, top.dims[tgt], bottom.dims[src])
        index.extend((g, a, b) for a in range(top.dims[tgt]) for b in range(bottom.dims[src]))
    for vec in linalg.nullspace(field, rows, total):
        coeff = field.from_int(rng.randrange(field.size())
                               if field.size() else rng.randint(-bound, bound))
        if coeff == field.zero:
            continue
        for (g, a, b), x in zip(index, vec):
            if x != field.zero:
                blocks[g][a][b] = field.add(blocks[g][a][b], field.mul(coeff, x))
    return blocks


def _free_chains(eps, c):
    """Whether eps is exactly the canonical free chain form (free_eps): chains
    of length c only, e_t -> e_(t+1) within each chain."""
    d = len(eps)
    return d % c == 0 and eps == _canonical_free_eps(c, d)


@functools.lru_cache
def _canonical_free_eps(c, d):
    """free_eps of c-chains in dimension d for every field (each field's zero
    and one are the ints 0 and 1), only compared with, never handed out."""
    return [[int(i == j + 1 and i % c != 0) for j in range(d)] for i in range(d)]


def in_chain_form(M):
    """Whether every eps_v of M is the canonical free chain form (_free_chains)."""
    return all(_free_chains(eps, c) for eps, c in zip(M.eps, M.spec.datum.D))


def chain_form(M):
    """M with every eps_v in canonical free chain form: M itself when it is
    in chain form already, else a normalized copy (normalize_eps); None when
    M is not locally free (an eps_v that is not nilpotent included), so that
    no such form exists."""
    if in_chain_form(M):
        return M
    try:
        N = normalize_eps(type(M)(M.spec, M.dims, M.eps, M.arrows))
    except NotNilpotentError:
        return None
    return N if in_chain_form(N) else None


def is_locally_free(M):
    """Rank vector if every vertex component is free over H_i, else None:
    read off the chain form (chain_form), which exists exactly then."""
    if chain_form(M) is None:
        return None
    return tuple(d // c for d, c in zip(M.dims, M.spec.datum.D))


def require_locally_free(M):
    r = is_locally_free(M)
    if r is None:
        raise NotLocallyFreeError("module is not locally free")
    return r


# --- Jordan normalization and sub/quotient constructors ---------------------


def jordan_basis(field, eps):
    """Columns of a basis putting a nilpotent eps into chain form, blocks
    descending; NotNilpotentError if eps^d is not 0 in dimension d."""
    d = len(eps)
    if d == 0:
        return []
    powers = [linalg.identity(field, d)]
    while any(x != field.zero for row in powers[-1] for x in row):
        if len(powers) > d:
            raise NotNilpotentError(f"eps is not nilpotent: eps^{d} is not 0 in dimension {d}")
        powers.append(linalg.mat_mul(field, powers[-1], eps))
    depth = len(powers) - 1  # eps^depth = 0
    kernels = []
    for t in range(depth + 1):
        if t == 0:
            kernels.append([])
        else:
            ker = linalg.nullspace(field, powers[t], d)
            kernels.append(ker)
    chains = []  # list of (top vector, length)
    # rows spanning K_{t-1} + eps * (tops of longer chains), updated per level
    for t in range(depth, 0, -1):
        span_rows = [v[:] for v in kernels[t - 1]]
        for top, length in chains:
            shifted = top
            for _ in range(length - t):
                shifted = linalg.mat_vec(field, eps, shifted)
            span_rows.append(shifted)
        span = linalg.row_space(field, span_rows) if span_rows else []
        for v in kernels[t]:
            if not linalg.in_span(field, span, v):
                chains.append((v, t))
                span = linalg.row_space(field, span + [v])
    cols = []
    for top, length in sorted(chains, key=lambda c: -c[1]):
        vec = top
        for _ in range(length):
            cols.append(vec)
            vec = linalg.mat_vec(field, eps, vec)
    basis = [[cols[j][i] for j in range(d)] for i in range(d)]
    return basis


def change_vertex_basis(M, v, basis_cols):
    """Conjugate the component at v by the given basis (columns)."""
    field = M.field()
    inv = linalg.inverse(field, basis_cols)
    if inv is None:
        raise ValueError("basis change matrix not invertible")
    M.eps[v] = linalg.mat_mul(field, inv, linalg.mat_mul(field, M.eps[v], basis_cols))
    for key in M.arrows:
        (i, j, _) = key
        if i == v:
            M.arrows[key] = linalg.mat_mul(field, inv, M.arrows[key])
        if j == v:
            M.arrows[key] = linalg.mat_mul(field, M.arrows[key], basis_cols)
    return M


def normalize_eps(M):
    """Re-basis every vertex so eps is in canonical chain form (descending blocks)."""
    field = M.field()
    for v in range(M.spec.datum.n):
        if M.dims[v] == 0:
            continue
        blocks = read_jordan_blocks(field, M.eps[v])
        if blocks is not None and blocks == sorted(blocks, reverse=True):
            continue
        change_vertex_basis(M, v, jordan_basis(field, M.eps[v]))
    return M


def eps_partition(M, v):
    """Jordan type of eps_v (block sizes descending): read off without
    arithmetic when eps_v is in chain form (read_jordan_blocks), else from
    rank drops; NotNilpotentError if eps_v^d is not 0 in dimension d."""
    field = M.field()
    d = M.dims[v]
    if d == 0:
        return ()
    blocks = read_jordan_blocks(field, M.eps[v])
    if blocks is not None:
        return tuple(sorted(blocks, reverse=True))
    ranks = [d]
    power = linalg.identity(field, d)
    while ranks[-1] > 0:
        if len(ranks) > d:
            raise NotNilpotentError(
                f"eps is not nilpotent at vertex {v}: eps^{d} has rank {ranks[-1]}")
        power = linalg.mat_mul(field, power, M.eps[v])
        ranks.append(linalg.rank(field, power))
    return _partition_from_ranks(ranks)


def _partition_from_ranks(ranks):
    """Jordan type (block sizes descending) of a nilpotent whose powers
    eps^0, eps^1, ... have the given ranks, the last one 0."""
    counts = [ranks[t - 1] - ranks[t] for t in range(1, len(ranks))]  # blocks of size >= t
    partition = []
    for t in range(len(counts), 0, -1):
        partition.extend([t] * (counts[t - 1] - (counts[t] if t < len(counts) else 0)))
    return tuple(partition)


def submodule_from_subspaces(M, subspaces):
    """Module structure on given eps- and arrow-stable subspaces (bases per vertex)."""
    field = M.field()
    n = M.spec.datum.n
    dims = [len(subspaces[v]) for v in range(n)]
    coord = []
    for v in range(n):
        basis = subspaces[v]
        if basis:
            mat = [[basis[j][i] for j in range(len(basis))] for i in range(M.dims[v])]
            coord.append(mat)
        else:
            coord.append(None)

    def coords_of(v, vec):
        if coord[v] is None:
            if any(x != field.zero for x in vec):
                raise InternalMismatchError("subspace not stable")
            return []
        sol = linalg.solve(field, coord[v], vec)
        if sol is None:
            raise InternalMismatchError("subspace not stable")
        return sol

    eps = []
    for v in range(n):
        cols = [coords_of(v, linalg.mat_vec(field, M.eps[v], b)) for b in subspaces[v]]
        eps.append([[cols[j][i] for j in range(dims[v])] for i in range(dims[v])])
    arrows = {}
    for key, A in M.arrows.items():
        (i, j, _) = key
        cols = [coords_of(i, linalg.mat_vec(field, A, b)) for b in subspaces[j]]
        arrows[key] = [[cols[c][r] for c in range(dims[j])] for r in range(dims[i])]
    return normalize_eps(type(M)(M.spec, dims, eps, arrows))


def quotient_by_subspaces(M, subspaces):
    """Quotient module by eps- and arrow-stable subspaces (bases per vertex).

    The basis of M_v / U_v is the classes of the non-pivot coordinates of the
    RREF basis of U_v.  Each RREF row r is zero at the other rows' pivots, so
    the class of w is w - sum_r w[pivot_r] r read at the non-pivot
    coordinates, and a map A into M_v goes to the quotient row by row: row c
    becomes A[c] - sum_r r[c] A[pivot_r], on the columns of the lifts."""
    field = M.field()
    p = field.size()  # the modulus over F_p, None over Q
    n = M.spec.datum.n
    quot = []  # per vertex: ((rref row, pivot) pairs, non-pivot coordinates)
    for v in range(n):
        rows = linalg.row_space(field, subspaces[v]) if subspaces[v] else []
        pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
        quot.append((list(zip(rows, pivots)),
                     [c for c in range(M.dims[v]) if c not in pivots]))

    def image(i, j, mat):
        """mat: M_j -> M_i on the quotients (the module constructor copies it)."""
        reduction, free_i = quot[i]
        free_j = quot[j][1]
        if len(free_j) < M.dims[j]:
            mat = [[row[c] for c in free_j] for row in mat]
        if not reduction:
            return mat
        out = []
        for c in free_i:
            row = mat[c]
            for r, pc in reduction:
                if r[c]:
                    row = [x - r[c] * y for x, y in zip(row, mat[pc])]
            out.append(row if p is None else [x % p for x in row])
        return out

    dims = [len(quot[v][1]) for v in range(n)]
    eps = [image(v, v, M.eps[v]) for v in range(n)]
    arrows = {key: image(key[0], key[1], A) for key, A in M.arrows.items()}
    return normalize_eps(type(M)(M.spec, dims, eps, arrows))


# --- Hom and Ext ------------------------------------------------------------


def _vertex_hom_basis(blocks_m, blocks_n):
    """Basis of H_i-linear maps between chain-form nilpotent spaces.

    Returns sparse maps as lists of (row, col) pairs: the basis map for
    (source block of size lam at position p, target block of size mu at
    position q, shift a) sends chain vector t to chain vector t + a.
    """
    out = []
    pos_m = []
    acc = 0
    for lam in blocks_m:
        pos_m.append(acc)
        acc += lam
    pos_n = []
    acc = 0
    for mu in blocks_n:
        pos_n.append(acc)
        acc += mu
    for bi, lam in enumerate(blocks_m):
        for bj, mu in enumerate(blocks_n):
            for a in range(max(0, mu - lam), mu):
                entries = [(pos_n[bj] + t + a, pos_m[bi] + t) for t in range(mu - a) if t < lam]
                out.append(entries)
    return out


def _vertex_hom_bases(M, N):
    field = M.field()
    out = []
    for v in range(M.spec.datum.n):
        if M.dims[v] == 0 or N.dims[v] == 0:
            out.append([])
            continue
        bm = read_jordan_blocks(field, M.eps[v])
        bn = read_jordan_blocks(field, N.eps[v])
        if bm is None or bn is None:
            out.append(_generic_intertwiners(field, M.eps[v], N.eps[v]))
        else:
            out.append(_vertex_hom_basis(bm, bn))
    return out


def _generic_intertwiners(field, eps_m, eps_n):
    """Fallback: nullspace of f eps_m = eps_n f, maps returned densely."""
    dm, dn = len(eps_m), len(eps_n)
    rows = []
    for p in range(dn):
        for q in range(dm):
            row = [field.zero] * (dn * dm)
            for t in range(dm):
                row[p * dm + t] = field.add(row[p * dm + t], eps_m[t][q])
            for t in range(dn):
                row[t * dm + q] = field.sub(row[t * dm + q], eps_n[p][t])
            rows.append(row)
    basis = linalg.nullspace(field, rows, dn * dm)
    out = []
    for vec in basis:
        entries = [(p, q) if vec[p * dm + q] == field.one else (p, q, vec[p * dm + q])
                   for p in range(dn) for q in range(dm) if vec[p * dm + q] != field.zero]
        out.append(entries)
    return out


def _hom_system(M, N):
    """The linear system whose kernel is Hom(M, N), as (vertex bases, offsets,
    number of unknowns, rows).

    The unknowns are the coefficients of the vertex bases of H_i-linear maps
    (f_v); each arrow (i, j) of M.arrows contributes the rows of the block
    f_i A^M - A^N f_j, assembled straight from the sparse (row, col[, val])
    entries of those basis maps.  The same rows are delta*: Hom_S(M, N) ->
    Hom_S(B (x) M, N) of the projective resolution of M, whose rank Ext^1
    needs; a Pi-module's arrows carry both directions, so for Pi-modules the
    rows are d1* of the bimodule resolution.
    """
    field = M.field()
    z = field.zero
    vertex_bases = _vertex_hom_bases(M, N)
    offsets = []
    total = 0
    for basis in vertex_bases:
        offsets.append(total)
        total += len(basis)
    rows = []
    if total == 0:
        return vertex_bases, offsets, total, rows
    for key in M.arrows:
        (i, j, _) = key
        dj = M.dims[j]
        if N.dims[i] * dj == 0:
            continue
        AM, AN = M.arrows[key], N.arrows[key]
        block = [[z] * total for _ in range(N.dims[i] * dj)]
        if M.dims[i]:  # f_i A^M: entry (p, c) of f_i meets row c of A^M
            for t, entries in enumerate(vertex_bases[i]):
                col = offsets[i] + t
                for e in entries:
                    p, c = e[0], e[1]
                    for q, x in enumerate(AM[c]):
                        if x != z:
                            y = x if len(e) == 2 else field.mul(e[2], x)
                            cell = block[p * dj + q]
                            cell[col] = field.add(cell[col], y)
        if N.dims[j]:  # A^N f_j: entry (r, q) of f_j meets column r of A^N
            for t, entries in enumerate(vertex_bases[j]):
                col = offsets[j] + t
                for e in entries:
                    r, q = e[0], e[1]
                    for p in range(N.dims[i]):
                        x = AN[p][r]
                        if x != z:
                            y = x if len(e) == 2 else field.mul(x, e[2])
                            cell = block[p * dj + q]
                            cell[col] = field.sub(cell[col], y)
        rows.extend(block)
    return vertex_bases, offsets, total, rows


def hom_basis(M, N) -> list:
    """Basis of Hom_H(M, N), each element a tuple of per-vertex matrices
    intertwining eps and all arrows: the kernel of the rows of _hom_system."""
    if M.spec != N.spec:
        raise SpecMismatchError("hom needs a common algebra spec")
    field = M.field()
    z = field.zero
    vertex_bases, offsets, total, rows = _hom_system(M, N)
    if total == 0:
        return []
    if rows:
        sols = linalg.nullspace(field, rows, total)
    else:
        sols = [[field.one if i == j else z for j in range(total)] for i in range(total)]
    out = []
    for vec in sols:
        maps = []
        for v, basis in enumerate(vertex_bases):
            m = linalg.zeros(field, N.dims[v], M.dims[v])
            for t, entries in enumerate(basis):
                coeff = vec[offsets[v] + t]
                if coeff != z:
                    for e in entries:
                        y = coeff if len(e) == 2 else field.mul(coeff, e[2])
                        m[e[0]][e[1]] = field.add(m[e[0]][e[1]], y)
            maps.append(m)
        out.append(tuple(maps))
    return out


def hom_dim(M, N) -> int:
    return len(hom_basis(M, N))


def _ext1_and_hom(M, N):
    """(dim Ext^1(M, N), dim Hom(M, N)) over the algebra of N's relation table.

    Ext^1 = ker(d2*)/im(d1*).  d1* is the Hom system (_hom_system), whose
    kernel is Hom(M, N).  ker(d2*) is the space of arrow couplings G of
    [[N, G], [0, M]] that satisfy the linearized relations: the commutation
    rows cut out the cochains, and for Pi the mesh rows are d2*.
    """
    field = M.field()
    _, _, y0_dim, d1 = _hom_system(M, N)
    total, rows = _coupling_rows(N, M, [("arrow", key) for key in sorted(M.arrows)])
    rank_d1 = linalg.rank(field, d1)
    return total - linalg.rank(field, rows) - rank_d1, y0_dim - rank_d1


def ext1_dim(M, N) -> int:
    """dim Ext^1_H(M, N) via the functorial projective resolution of M.

    Applying Hom(-, N) to 0 -> H (x) B (x) M -> H (x) M -> M -> 0 identifies
    Ext^1 with the cokernel of delta*: Hom_S(M, N) -> Hom_S(B (x) M, N).
    delta* is the Hom system and its target the arrow couplings that satisfy
    the commutations (_ext1_and_hom).  When N is also locally free the
    result is cross-checked against dim Hom - <rk M, rk N>.
    """
    if M.spec != N.spec:
        raise SpecMismatchError("ext needs a common algebra spec")
    return _checked_ext1_and_hom(M, N, require_locally_free(M), is_locally_free(N))[0]


def _checked_ext1_and_hom(M, N, rk_m, rk_n):
    """_ext1_and_hom(M, N) for M of rank rk_m; when rk_n is not None (N
    locally free of that rank), dim Ext^1 is cross-checked against
    dim Hom - <rk M, rk N>."""
    ext, homd = _ext1_and_hom(M, N)
    if rk_n is not None:
        expected = homd - cartan.euler_form(M.spec.datum, M.spec.omega, rk_m, rk_n)
        if ext != expected:
            raise InternalMismatchError(
                f"resolution Ext={ext} disagrees with Euler-form Ext={expected}")
    return ext, homd


def euler_pairing_check(M, N):
    """(dim Hom, dim Ext^1, <rk M, rk N>) for locally free M, N, both
    dimensions read off one reduction of the Hom system."""
    rm, rn = require_locally_free(M), require_locally_free(N)
    if M.spec != N.spec:
        raise SpecMismatchError("hom needs a common algebra spec")
    e, h = _checked_ext1_and_hom(M, N, rm, rn)
    return h, e, cartan.euler_form(M.spec.datum, M.spec.omega, rm, rn)


# --- randomized generation --------------------------------------------------


def arrow_solution_dimension(spec, r) -> int:
    """K-dimension of the arrow solution space at canonical eps of rank r."""
    bare = _bare_module(spec, r)
    total, rows = _coupling_rows(bare, bare, [("arrow", key) for key in spec.arrow_keys()])
    return total - linalg.rank(spec.field(), rows)


def random_locally_free(spec, r, seed) -> HModule:
    """Random locally free module of rank r: canonical eps, arrows sampled from
    the solution space of the commutation relations.  Deterministic in seed.
    Over the rationals the matrices are integral (reducible mod any prime)."""
    M = _bare_module(spec, r)
    couplings = _random_couplings(M, M, [("arrow", key) for key in spec.arrow_keys()],
                                  random.Random(seed), 4)
    M.arrows = {key: couplings[("arrow", key)] for key in spec.arrow_keys()}
    if check_relations(M):
        raise InternalMismatchError("random module violates relations")
    if is_locally_free(M) != tuple(r):
        raise InternalMismatchError("random module not locally free of rank r")
    return M


# --- isomorphism testing ----------------------------------------------------


def is_isomorphic(M, N, tries=40) -> bool:
    """Whether M and N are isomorphic, with one of three outcomes:

    - True: an invertible element of Hom(M, N) was found, which proves it;
    - False: a necessary condition failed (dims, Jordan types of eps, the
      dimensions of Hom(M, N), Hom(N, M), End M and End N), or the
      exhaustive search over every element of Hom(M, N) over F_p found no
      invertible one;
    - InternalMismatchError: inconclusive, i.e. `tries` random elements were
      not invertible and the field is Q or too large to search exhaustively.

    The common case is an isomorphism that exists, so the first random
    element is tried before the refuting invariants are computed. All random
    elements come from one _seeded_combinations stream, so the outcome does
    not depend on where the invariants are checked, nor on earlier calls.
    """
    if M.spec != N.spec:
        raise SpecMismatchError("isomorphism test needs a common spec")
    if M.dims != N.dims:
        return False
    if M.total_dim() == 0:
        return True
    hmn = hom_basis(M, N)
    t = len(hmn)
    if t == 0:
        return False
    field = M.field()
    size = field.size()
    draws = _seeded_combinations(field, M, hmn)
    if tries and next(draws) is not None:
        return True
    for v in range(M.spec.datum.n):
        if eps_partition(M, v) != eps_partition(N, v):
            return False
    if not (t == hom_dim(N, M) == hom_dim(M, M) == hom_dim(N, N)):
        return False
    for _ in range(tries - 1):
        if next(draws) is not None:
            return True
    if size is not None and size ** t <= 300000:
        for combo in itertools.product(range(size), repeat=t):
            if all(c == 0 for c in combo):
                continue
            if _invertible_combination(field, M, hmn, list(combo)) is not None:
                return True
        return False
    raise InternalMismatchError(
        f"isomorphism test inconclusive over {field!r}: {tries} random elements of a "
        f"{t}-dimensional Hom space at dims {M.dims} were singular")


def _seeded_combinations(field, M, basis):
    """Yield _invertible_combination(field, M, basis, coeffs) (the vertex
    matrices, or None) for each draw of coefficients from random.Random(0):
    randrange(p) over F_p, randint(-9, 9) over Q.  Private, so that the
    tracer does not make a span of every draw."""
    size = field.size()
    rng = random.Random(0)
    while True:
        coeffs = [field.from_int(rng.randrange(size) if size else rng.randint(-9, 9))
                  for _ in basis]
        yield _invertible_combination(field, M, basis, coeffs)


def _invertible_combination(field, M, basis, coeffs):
    """The vertex matrices of the homomorphism sum(coeffs[k] * basis[k]) out
    of M, or None at the first vertex where it is singular."""
    z = field.zero
    mats = []
    for v in range(M.spec.datum.n):
        d = M.dims[v]
        m = linalg.zeros(field, d, d)
        for coeff, f in zip(coeffs, basis):
            if coeff != z:
                for p, row in enumerate(f[v]):
                    out = m[p]
                    for q, x in enumerate(row):
                        if x != z:
                            out[q] = field.add(out[q], field.mul(coeff, x))
        if linalg.rank(field, m) != d:
            return None
        mats.append(m)
    return tuple(mats)


# --- projectives via monomial rewriting; injectives as their transposes -----


def _normalize_monomial(spec, v0, s0, steps):
    """Normal form of eps^{s_l} a_l ... a_1 eps^{s_0} e_{v0}, or None if zero."""
    datum = spec.datum
    steps = [list(s) for s in steps]
    t = len(steps)
    while t > 0:
        key, s = steps[t - 1]
        a, b = spec.rel_powers(key[0], key[1])
        if s >= a:
            steps[t - 1][1] = s - a
            if t - 1 > 0:
                steps[t - 2][1] += b
            else:
                s0 += b
            continue
        t -= 1
    for key, s in steps:
        if s >= datum.D[key[0]]:
            return None
    if s0 >= datum.D[v0]:
        return None
    return (v0, s0, tuple((key, s) for key, s in steps))


def _mono_vertex(mono):
    v0, _, steps = mono
    return steps[-1][0][0] if steps else v0


def _left_mul_eps(spec, mono):
    v0, s0, steps = mono
    if steps:
        steps = list(steps)
        steps[-1] = (steps[-1][0], steps[-1][1] + 1)
        return _normalize_monomial(spec, v0, s0, steps)
    return _normalize_monomial(spec, v0, s0 + 1, ())


def _left_mul_arrow(spec, mono, key):
    if _mono_vertex(mono) != key[1]:
        return None
    v0, s0, steps = mono
    return _normalize_monomial(spec, v0, s0, list(steps) + [(key, 0)])


def _paths_from(spec, start):
    """All arrow sequences (bottom to top) beginning at a vertex, DAG walk."""
    out = [[]]
    frontier = [(start, [])]
    while frontier:
        v, path = frontier.pop()
        for key in spec.arrow_keys():
            if key[1] == v:
                np = path + [key]
                out.append(np)
                frontier.append((key[0], np))
    return out


def _monomials_from(spec, start):
    datum = spec.datum
    monos = []
    for path in _paths_from(spec, start):
        ranges = [range(datum.D[start])]
        for key in path:
            a, _ = spec.rel_powers(key[0], key[1])
            ranges.append(range(a))
        for exps in itertools.product(*ranges):
            monos.append((start, exps[0], tuple((key, e) for key, e in zip(path, exps[1:]))))
    return monos


def _module_from_basis(spec, monos):
    """Left module on the span of the given normal monomials (must be closed)."""
    field = spec.field()
    n = spec.datum.n
    by_vertex = {v: [] for v in range(n)}
    for m in monos:
        by_vertex[_mono_vertex(m)].append(m)
    for v in by_vertex:
        by_vertex[v].sort()
    index = {m: (v, t) for v in range(n) for t, m in enumerate(by_vertex[v])}
    dims = [len(by_vertex[v]) for v in range(n)]
    eps = [linalg.zeros(field, dims[v], dims[v]) for v in range(n)]
    for v in range(n):
        for t, m in enumerate(by_vertex[v]):
            r = _left_mul_eps(spec, m)
            if r is not None:
                eps[v][index[r][1]][t] = field.one
    arrows = {}
    for key in spec.arrow_keys():
        (i, j, _) = key
        mat = linalg.zeros(field, dims[i], dims[j])
        for t, m in enumerate(by_vertex[j]):
            r = _left_mul_arrow(spec, m, key)
            if r is not None:
                mat[index[r][1]][t] = field.one
        arrows[key] = mat
    return normalize_eps(HModule(spec, dims, eps, arrows))


def projective_module(spec, i) -> HModule:
    """He_i from the monomial normal-form basis of paths out of i."""
    return _module_from_basis(spec, _monomials_from(spec, i))


def injective_module(spec, i) -> HModule:
    """D(e_i H), the transpose of e_i H: the projective at i of the opposite
    algebra H(C, D, Omega^op), whose arrows are those of Omega reversed."""
    op = HAlgebraSpec(spec.datum, Orientation(frozenset((j, i) for i, j in spec.omega.pairs)),
                      spec.fieldspec)
    P = projective_module(op, i)
    eps = [linalg.transpose(m) for m in P.eps]
    # by columns: linalg.transpose of an arrow with no rows would have no rows
    arrows = {(a, b, k): [[row[c] for row in P.arrows[(b, a, k)]] for c in range(P.dims[a])]
              for (a, b, k) in spec.arrow_keys()}
    return normalize_eps(HModule(spec, P.dims, eps, arrows))


# --- serialization ----------------------------------------------------------


def _entry_to_json(fieldspec, x):
    if fieldspec.kind == "Fp":
        return int(x)
    return str(x)


def _entry_from_json(fieldspec, x):
    if fieldspec.kind == "Fp":
        return int(x) % fieldspec.p
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def module_to_json(M) -> str:
    fs = M.spec.fieldspec
    obj = {
        "field": fs.to_json(),
        "dims": list(M.dims),
        "eps": [[[_entry_to_json(fs, x) for x in row] for row in m] for m in M.eps],
        "arrows": [
            {"target": k[0] + 1, "source": k[1] + 1, "copy": k[2],
             "matrix": [[_entry_to_json(fs, x) for x in row] for row in M.arrows[k]]}
            for k in sorted(M.arrows)
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def module_from_json(spec, text: str) -> HModule:
    obj = json.loads(text)
    fs = FieldSpec.from_json(obj["field"])
    if fs != spec.fieldspec:
        raise SpecMismatchError("field of serialized module differs from spec")
    dims = obj["dims"]
    eps = [[[_entry_from_json(fs, x) for x in row] for row in m] for m in obj["eps"]]
    arrows = {}
    for rec in obj["arrows"]:
        key = (rec["target"] - 1, rec["source"] - 1, rec["copy"])
        arrows[key] = [[_entry_from_json(fs, x) for x in row] for row in rec["matrix"]]
    return HModule(spec, dims, eps, arrows)


def reduce_mod_p(M, p) -> HModule:
    """Reduce an integral rational-model module mod p."""
    if M.spec.fieldspec != RATIONALS:
        raise SpecMismatchError("only rational integral models reduce mod p")
    from .fields import prime_field_spec
    spec_p = M.spec.with_field(prime_field_spec(p))

    def red(x):
        if type(x) is int:
            return x % p
        if x.denominator % p == 0:
            raise PrimeReductionError(f"denominator not invertible mod {p}")
        return (x.numerator * pow(x.denominator, -1, p)) % p

    eps = [[[red(x) for x in row] for row in m] for m in M.eps]
    arrows = {k: [[red(x) for x in row] for row in m] for k, m in M.arrows.items()}
    return type(M)(spec_p, M.dims, eps, arrows)
