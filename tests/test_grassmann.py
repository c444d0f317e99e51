import gc
import itertools
import math
import random
import re
import types
from fractions import Fraction

import pytest

from symquiv import cartan, cli, functors, grassmann, hmod, linalg, verify
from symquiv.errors import (InternalMismatchError, InterpolationError, NotLocallyFreeError,
                            TooLargeError)
from symquiv.fields import RATIONALS, PrimeField, prime_field_spec

B2 = cartan.validate_datum([[2, -1], [-2, 2]], [2, 1])
B2_OMEGA = cartan.validate_orientation(B2, [(0, 1)])
G2 = cartan.validate_datum([[2, -1], [-3, 2]], [3, 1])
G2_OMEGA = cartan.validate_orientation(G2, [(0, 1)])

SPEC_B2 = hmod.HAlgebraSpec(B2, B2_OMEGA, RATIONALS)
SPEC_G2 = hmod.HAlgebraSpec(G2, G2_OMEGA, RATIONALS)

CATALOG = verify.catalog_rank_le_4()
SPEC_F4 = hmod.HAlgebraSpec(CATALOG["F4"], cartan.validate_orientation(
    CATALOG["F4"], [(0, 1), (1, 2), (2, 3)]), RATIONALS)
ALL_ORIENTATIONS = [pytest.param(name, omega, id=f"{name}-{i}") for name in sorted(CATALOG)
                    for i, omega in enumerate(cartan.all_orientations(CATALOG[name]))]


def brute_count_free_subs(p, c, r, e):
    """Oracle: count e-tuples with independent images under eps^{c-1}, divided
    by |GL_e(H)|; equals the number of free rank-e submodules of H^r."""
    if e == 0:
        return 1
    num = 1
    d = c * r
    for t in range(e):
        num *= p ** (d - r) * (p ** r - p ** t)
    den = p ** ((c - 1) * e * e)
    for t in range(e):
        den *= p ** e - p ** t
    return num // den


def direct_sum_of(table, m):
    """M(m) = direct sum of root modules with multiplicities m (rational model)."""
    out = None
    for mult, module in zip(m, table.modules):
        for _ in range(mult):
            out = module if out is None else hmod.direct_sum(out, module)
    return out if out is not None else hmod.zero_module(table.modules[0].spec)


def direct_sum_pairing(engine, m, n):
    """Oracle: delta_{M(m)}(theta_n) by counting the class flags of the whole
    direct sum M(m) per prime and interpolating, with the engine's class word
    and per-prime counters."""
    betas = engine.table.betas
    datum = engine.spec.datum
    weight = [[sum(x[k] * betas[k][v] for k in range(len(betas))) for v in range(datum.n)]
              for x in (m, n)]
    if weight[0] != weight[1]:
        return Fraction(0)
    M = direct_sum_of(engine.table, m)
    word = engine.class_word(n)
    if not word:
        return Fraction(1)
    bound = 0
    rho = list(hmod.require_locally_free(M))
    for idx in word:
        bound += grassmann._grlf_degree_bound(datum, rho, betas[idx])
        rho = [a - b for a, b in zip(rho, betas[idx])]

    def count(p):
        return engine._prime_setup(p).count(hmod.reduce_mod_p(M, p), word)

    poly = grassmann.interpolate_counts(count, bound, pool=engine.pool)
    return Fraction(poly.value_at_one(), math.prod(math.factorial(x) for x in n))


def dp_pairing(engine, m, n):
    """Oracle: delta_{M(m)}(theta_n) by a dynamic programme over the summands
    of M(m) in root-index order.  Summand s takes a Kostant partition k of
    its root that fits under what is left of n and contributes
    chi(Fl_{class_word(k)}(M(beta_s))) / prod_c k_c!; the products are summed
    over the ways to use up n exactly.  Each chi is the engine's _root_chi,
    kept per engine."""
    betas = engine.table.betas
    chi = vars(engine).setdefault("oracle_chi", {})
    summands = [b for b, mult in enumerate(m) for _ in range(mult)]
    memo = {}

    def share(s, rest):
        if s == len(summands):
            return Fraction(0 if any(rest) else 1)
        if (s, rest) not in memo:
            b = summands[s]
            total = Fraction(0)
            for k in grassmann._weight_splits(betas, betas[b], rest):
                if (b, k) not in chi:
                    chi[b, k] = engine._root_chi(b, k)
                if chi[b, k]:
                    left = tuple(r - x for r, x in zip(rest, k))
                    norm = math.prod(math.factorial(x) for x in k)
                    total += Fraction(chi[b, k], norm) * share(s + 1, left)
            memo[s, rest] = total
        return memo[s, rest]

    return share(0, tuple(n))


B3 = cartan.validate_datum([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 2, 1])
C3 = cartan.validate_datum([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], [1, 1, 2])


def contains(cand, vec):
    """Oracle: whether the K-span of cand's K-basis holds the K-vector vec."""
    field = PrimeField(cand.p)
    return linalg.in_span(field, linalg.row_space(field, cand.k_basis()), vec)


def lies_inside(p, rows, cand):
    """Oracle: whether every K-basis vector of cand lies in the subspace
    killed by rows, by membership in a basis of that kernel."""
    field = PrimeField(p)
    kernel = linalg.row_space(field, linalg.nullspace(field, rows, cand.c * cand.r)) \
        if rows else linalg.identity(field, cand.c * cand.r)
    return all(linalg.in_span(field, kernel, vec) for vec in cand.k_basis())


def filtered_free_submodules(p, c, r, e, rows):
    """Oracle: every canonical candidate, filtered by containment."""
    return [cand for cand in grassmann.iter_free_submodules(p, c, r, e)
            if all(contains(cand, w) for w in rows)]


def vertex_candidates_oracle(field, M, v, e_v, chosen, budget, killed=()):
    """The enumerate-then-filter vertex step: every canonical candidate at v
    spends one unit and is kept if it contains the forced rows and lies in
    the kernel of killed."""
    c = M.spec.datum.D[v]
    rows = grassmann._forced_rows(field, M, v, chosen, grassmann._eps_powers(field, M.eps[v], c))
    for cand in grassmann.iter_free_submodules(field.p, c, M.dims[v] // c, e_v):
        budget.spend(1)
        if all(contains(cand, w) for w in rows) and lies_inside(field.p, killed, cand):
            yield cand


class RecordingBudget(grassmann._Budget):
    """A _Budget that keeps every instance, to read the units spent."""

    made = []

    def __init__(self, units):
        super().__init__(units)
        RecordingBudget.made.append(self)


def count_with_spend(vertex_step, M, e):
    """(count, units spent, candidates in order) of one Grassmannian count
    whose vertex step is vertex_step."""
    seen = []

    def recorded(*args):
        for cand in vertex_step(*args):
            seen.append((cand.pivots, cand.cols))
            yield cand

    saved = grassmann._vertex_candidates, grassmann._Budget
    grassmann._vertex_candidates, grassmann._Budget = recorded, RecordingBudget
    RecordingBudget.made = []
    try:
        count = grassmann.count_locally_free_submodules(M, e)
    finally:
        grassmann._vertex_candidates, grassmann._Budget = saved
    (query,) = RecordingBudget.made
    return count, query.units - query.left, seen


def h_span(p, c, r, vecs):
    """The eps-multiples of the K-vectors vecs of H^r (canonical free eps)."""
    return [[vec[b * c + a - t] if a >= t else 0 for b in range(r) for a in range(c)]
            for vec in vecs for t in range(c)]


def root_table(datum, pairs):
    return functors.all_root_modules(hmod.HAlgebraSpec(
        datum, cartan.validate_orientation(datum, pairs), RATIONALS))


def jordan_chain_generators(field, eps, space_basis, c):
    """Oracle: one generator per free rank-1 H-submodule of the eps-stable
    span of space_basis, read off a Jordan basis of eps on that span:
    unit coefficient on the top of one full-length chain, zero constant term
    on the earlier full-length chains."""
    if not space_basis:
        return
    p = field.p
    dim_space, amb = len(space_basis), len(space_basis[0])
    coord_mat = [[space_basis[s][t] for s in range(dim_space)] for t in range(amb)]
    eps_core = []
    for s in range(dim_space):
        sol = linalg.solve(field, coord_mat, linalg.mat_vec(field, eps, space_basis[s]))
        assert sol is not None, "space is not eps-stable"
        eps_core.append(sol)
    eps_core = [[eps_core[s][t] for s in range(dim_space)] for t in range(dim_space)]
    jordan_cols = hmod.jordan_basis(field, eps_core)
    blocks = hmod.read_jordan_blocks(
        field, linalg.mat_mul(field, linalg.inverse(field, jordan_cols),
                              linalg.mat_mul(field, eps_core, jordan_cols)))
    chain_vecs = []  # the chain vectors in ambient coordinates
    pos = 0
    for b in blocks:
        chain = []
        for t in range(b):
            col = [jordan_cols[row][pos + t] for row in range(dim_space)]
            chain.append([sum(x * space_basis[s][i] for s, x in enumerate(col)) % p
                          for i in range(amb)])
        chain_vecs.append(chain)
        pos += b
    for bstar in [bi for bi, b in enumerate(blocks) if b == c]:
        other = [bi for bi in range(len(blocks)) if bi != bstar]
        coeff_ranges = [[co for co in itertools.product(range(p), repeat=blocks[bi])
                         if not (blocks[bi] == c and bi < bstar and co[0])] for bi in other]
        for combo in itertools.product(*coeff_ranges):
            u = list(chain_vecs[bstar][0])
            for bi, co in zip(other, combo):
                for t, x in enumerate(co):
                    if x:
                        u = [(a + x * b) % p for a, b in zip(u, chain_vecs[bi][t])]
            yield u


def oracle_e_generators(M, j):
    """Oracle: the Jordan-chain generators of the E_j-submodules of M."""
    return list(jordan_chain_generators(M.field(), M.eps[j], grassmann.allowed_bottom_space(M, j),
                                        M.spec.datum.D[j]))


def soft_iso(A, B):
    """Oracle: is_isomorphic, with an inconclusive search read as 'distinct'."""
    try:
        return hmod.is_isomorphic(A, B)
    except InternalMismatchError:
        return False


def oracle_merge(pairs):
    """Oracle: the per-list merge of (quotient, count) pairs, grouped by key
    and then merged by isomorphism in first-seen order, as
    [(representative, multiplicity)]."""
    by_key = {}
    for quotient, count in pairs:
        by_key.setdefault(quotient.key(), [quotient, 0])[1] += count
    merged = []
    for quotient, count in by_key.values():
        for entry in merged:
            if entry[0].dims == quotient.dims and soft_iso(entry[0], quotient):
                entry[1] += count
                break
        else:
            merged.append([quotient, count])
    return [(rep, count) for rep, count in merged]


def per_quotient_groups(M, j):
    """Oracle: the E_j groups of M by one quotient per Jordan-chain
    generator, merged by oracle_merge."""
    field, c, n = M.field(), M.spec.datum.D[j], M.spec.datum.n
    powers = grassmann._eps_powers(field, M.eps[j], c)
    quotients = []
    for u in oracle_e_generators(M, j):
        span = [linalg.mat_vec(field, P, u) for P in powers]
        quotients.append(hmod.quotient_by_subspaces(M, [span if v == j else [] for v in range(n)]))
    return oracle_merge((quotient, 1) for quotient in quotients)


def assert_same_groups(got, expected):
    """The two group lists hold the same isomorphism classes with the same
    multiplicities, whichever quotient represents each class."""
    assert len(got) == len(expected)
    left = list(expected)
    for rep, mult in got:
        match = [k for k, (other, _) in enumerate(left)
                 if other.dims == rep.dims and hmod.is_isomorphic(rep, other)]
        assert len(match) == 1 and left[match[0]][1] == mult, (rep.dims, mult)
        del left[match[0]]


def oracle_flag_count(M, word):
    """Oracle: the E-flag recursion with one quotient per Jordan-chain
    generator and no merging; M may have any eps."""
    if not word:
        return 1
    field, j, n = M.field(), word[0], M.spec.datum.n
    powers = grassmann._eps_powers(field, M.eps[j], M.spec.datum.D[j])
    total = 0
    for u in oracle_e_generators(M, j):
        span = [linalg.mat_vec(field, P, u) for P in powers]
        total += oracle_flag_count(
            hmod.quotient_by_subspaces(M, [span if v == j else [] for v in range(n)]), word[1:])
    return total


def criterion_9_modules(spec, count):
    """The first `count` modules that criterion 9 draws for spec's datum."""
    rng = random.Random(77)
    seeds = [rng.randrange(10 ** 9) for _ in range(100)]
    offset = 0 if spec.datum == B2 else 50
    power = 1 - spec.datum.C[0][1]
    return [hmod.random_locally_free(spec, (power, 1), seed)
            for seed in seeds[offset:offset + count]]


def e_generators(M, j):
    return list(grassmann._e_letter_generators(M, j))


def replay_passes(M, j, gens, auts):
    """Oracle: the passes of Counter._orbits replayed over the automorphisms
    auts: the first maps every generator, a later one the first generator
    of every part, and the passes stop once one merges nothing or one part
    is left.  Returns the parts ({first generator: members}, in first-seen
    order) and the number of images keyed in each pass."""
    field, c = M.field(), M.spec.datum.D[j]
    order = {u: k for k, u in enumerate(gens)}
    parts = {u: [u] for u in gens}
    part_of = {u: u for u in gens}
    keyed = []
    todo = list(gens)
    for g in auts:
        keyed.append(len(todo))
        merged = False
        for u in todo:
            image = grassmann._rank1_key(field.p, c, linalg.mat_vec(field, g[j], u))
            a, b = sorted((part_of[u], part_of[image]), key=order.get)
            if a != b:
                for w in parts.pop(b):
                    part_of[w] = a
                    parts[a].append(w)
                merged = True
        if not merged or len(parts) == 1:
            break
        todo = sorted(parts, key=order.get)
    return dict(sorted(parts.items(), key=lambda item: order[item[0]])), keyed


def reachable(roots):
    """Every object reachable from roots through gc.get_referents, past
    classes, modules and functions."""
    seen, out, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


def reached_e_groups(spec, p, count):
    """Every (module, vertex) whose E-group the Serre commutator's flag
    counts reach on the first `count` criterion-9 modules of spec over F_p."""
    seen = []

    class Recording(grassmann.Counter):
        def bottom_e_groups(self, M, j):
            if (M.key(), j) not in self.group_memo:
                seen.append((M, j))
            return super().bottom_e_groups(M, j)

    combo = grassmann.serre_commutator(0, 1, 1 - spec.datum.C[0][1])
    for module in criterion_9_modules(spec, count):
        counter = Recording()
        for _, word in combo:
            counter.flag_count(hmod.reduce_mod_p(module, p), word)
    return seen


def h_act(field, eps, a, u):
    """a(eps) u for an H-element a given by its coefficients."""
    out = [field.zero] * len(u)
    vec = u
    for coeff in a:
        out = [field.add(x, field.mul(coeff, y)) for x, y in zip(out, vec)]
        vec = linalg.mat_vec(field, eps, vec)
    return out


def h_automorphism(p, c, r, rng):
    """A random H-linear automorphism of H^r (canonical eps): unitriangular
    over H, each entry above the diagonal a random H-element."""
    g = [[int(i == j) for j in range(c * r)] for i in range(c * r)]
    for b in range(r):
        for b2 in range(b + 1, r):
            h = [rng.randrange(p) for _ in range(c)]
            for a in range(c):
                for t in range(c - a):
                    g[b * c + a + t][b2 * c + a] = h[t]
    return g


def eps_partition_by_ranks(M, v):
    """Oracle: the Jordan type of eps_v from the ranks of its powers."""
    field, d = M.field(), M.dims[v]
    ranks = [d]
    power = linalg.identity(field, d)
    while ranks[-1] > 0:
        power = linalg.mat_mul(field, power, M.eps[v])
        ranks.append(linalg.rank(field, power))
    return hmod._partition_from_ranks(ranks)


def quotient_type_oracle(field, dim, c, w_rows):
    """The c + 2 dense ranks: rank(eps-bar^t) = dim(eps^t V + W) - dim W, with
    eps^t V spanned by the unit vectors of eps-degree >= t."""
    w_rank = linalg.rank(field, w_rows) if w_rows else 0
    r = dim // c
    ranks = [dim - w_rank]
    for t in range(1, c + 1):
        rows = list(w_rows)
        for b in range(r):
            for tau in range(t, c):
                vec = [field.zero] * dim
                vec[b * c + tau] = field.one
                rows.append(vec)
        ranks.append(linalg.rank(field, rows) - w_rank if rows else 0)
    return hmod._partition_from_ranks(ranks)


def lagrange_oracle(points):
    """Lagrange interpolation in Fraction arithmetic: the integer coefficients
    (ascending, trailing zeros stripped), or None if one is not integral."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        li = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(li) + 1)
            for k, c in enumerate(li):
                nxt[k] -= c * xj
                nxt[k + 1] += c
            li = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k, c in enumerate(li):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


class AscendingPBW(grassmann.PBWEngine):
    """Lowest root index at the bottom.  In this order some root modules have
    flags through other roots (M(1,2) of B2 through M(1,0), M(0,1), M(0,1)), so
    the pairing is not the identity and the 1/k! weights show."""

    def class_word(self, n):
        return tuple(idx for idx in range(len(n)) for _ in range(n[idx]))


class TestFreeSubEnumeration:
    @pytest.mark.parametrize("p,c,r,e", [
        (5, 2, 2, 1), (5, 2, 3, 1), (5, 2, 3, 2), (3, 3, 2, 1), (7, 1, 3, 2), (5, 2, 2, 2),
    ])
    def test_enumeration_matches_formula(self, p, c, r, e):
        cands = list(grassmann.iter_free_submodules(p, c, r, e))
        assert len(cands) == brute_count_free_subs(p, c, r, e)
        assert len(cands) == grassmann.count_free_submodules_of_type((c,) * r, e, p, c)
        # canonical forms are pairwise distinct as submodules
        seen = set()
        for cand in cands:
            fp = tuple(tuple(sorted(map(tuple, cand.k_basis()))))
            assert fp not in seen
            seen.add(fp)

    def test_candidates_are_eps_stable_free(self):
        field = PrimeField(5)
        for cand in grassmann.iter_free_submodules(5, 2, 2, 1):
            basis = cand.k_basis()
            assert len(basis) == 2
            for vec in basis:
                assert contains(cand, vec)

    @pytest.mark.parametrize("p,c,r,e", [
        (p, c, r, e) for p in (3, 5, 7) for c in (1, 2, 3) for r in (1, 2, 3)
        for e in range(r + 1)
        if grassmann.count_free_submodules_of_type((c,) * r, e, p, c) <= 2500])
    def test_containing_equals_filtered_enumeration(self, p, c, r, e):
        # the solved enumeration yields the filtered candidates, in their order
        rng = random.Random(1000 * p + 100 * c + 10 * r + e)
        everything = list(grassmann.iter_free_submodules(p, c, r, e))
        cases = [([], "all")]
        for _ in range(3):
            inside = rng.choice(everything).k_basis()
            gens = []
            for _ in range(rng.randint(1, 2)):
                coeffs = [rng.randrange(p) for _ in inside]
                gens.append([sum(x * vec[i] for x, vec in zip(coeffs, inside)) % p
                             for i in range(c * r)])
            cases.append((h_span(p, c, r, gens), "some"))
            gens = [[rng.randrange(p) for _ in range(c * r)] for _ in range(rng.randint(1, r))]
            cases.append((h_span(p, c, r, gens), None))
        if e < r:
            # the socle eps^(c-1) H^r meets a free rank-e submodule in e dimensions
            socle = [[int(i == b * c + c - 1) for i in range(c * r)] for b in range(r)]
            cases.append((socle, "none"))
        for rows, kind in cases:
            expected = filtered_free_submodules(p, c, r, e, rows)
            got = list(grassmann.iter_free_submodules(p, c, r, e, rows))
            assert [(x.pivots, x.cols) for x in got] == [(x.pivots, x.cols) for x in expected]
            assert kind != "all" or len(got) == len(everything)
            assert kind != "some" or got
            assert kind != "none" or not got

    @pytest.mark.parametrize("p,c,r,e", [
        (p, c, r, e) for p in (3, 5) for c in (1, 2, 3) for r in (1, 2, 3)
        for e in range(r + 1)
        if grassmann.count_free_submodules_of_type((c,) * r, e, p, c) <= 2500])
    def test_killed_by_equals_filtered_enumeration(self, p, c, r, e):
        # killed_by= yields the candidates, with and without containing= and
        # weights=, whose K-basis lies in the kernel of the rows, in order
        field = PrimeField(p)
        rng = random.Random(1000 * p + 100 * c + 10 * r + e)
        d = c * r
        everything = list(grassmann.iter_free_submodules(p, c, r, e))
        kernels = [[]]  # the rows' kernel: eps-stable or not
        for _ in range(3):
            inside = rng.choice(everything).k_basis()
            extra = h_span(p, c, r, [[rng.randrange(p) for _ in range(d)]])
            kernels.append(linalg.nullspace(field, inside + extra, d) if inside + extra else [])
            kernels.append([[rng.randrange(p) for _ in range(d)] for _ in range(rng.randint(1, 2))])
        heads = [rng.randrange(3) for _ in range(r)]
        weights = [heads[b] + t for b in range(r) for t in range(c)]  # eps homogeneous
        cases = 0
        for rows in kernels:
            for containing in ([], h_span(p, c, r, [rng.choice(everything).k_basis()[0]]
                                          if e else [[0] * d])):
                for w in (None, weights):
                    base = grassmann.iter_free_submodules(p, c, r, e, containing, w)
                    expected = [(x.pivots, x.cols) for x in base if lies_inside(p, rows, x)]
                    got = [(x.pivots, x.cols) for x in grassmann.iter_free_submodules(
                        p, c, r, e, containing, w, killed_by=rows)]
                    assert got == expected, (rows, containing, w)
                    cases += bool(got) and bool(rows)
        assert cases or e == r

    def test_rank1_generator_enumeration_counts(self):
        # the full free module H^2, c = 2: the pivot forms and the Jordan-chain
        # oracle give the same free rank-one submodules, as many as the formula
        field = PrimeField(5)
        eps = hmod.free_eps(field, 2, 2)
        gens = [tuple(x for h in cand.cols[0] for x in h)
                for cand in grassmann.iter_free_submodules(5, 2, 2, 1, killed_by=[])]
        oracle = {grassmann._rank1_key(5, 2, u)
                  for u in jordan_chain_generators(field, eps, linalg.identity(field, 4), 2)}
        assert set(gens) == oracle
        assert len(gens) == len(oracle) == grassmann.count_free_submodules_of_type((2, 2), 1, 5, 2)

    def test_rank1_generators_in_mixed_type_module(self):
        # type (2,1): chain 0 of H^2 and the socle of chain 1, the kernel of e_2^*
        field = PrimeField(5)
        eps = hmod.free_eps(field, 2, 2)
        space = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        gens = [tuple(x for h in cand.cols[0] for x in h)
                for cand in grassmann.iter_free_submodules(5, 2, 2, 1, killed_by=[[0, 0, 1, 0]])]
        oracle = {grassmann._rank1_key(5, 2, u)
                  for u in jordan_chain_generators(field, eps, space, 2)}
        assert set(gens) == oracle
        assert len(gens) == grassmann.count_free_submodules_of_type((2, 1), 1, 5, 2)


class TestGrassmannianCounts:
    def test_e1_unique_full_submodule(self):
        for p in (5, 7, 17):
            e1 = hmod.reduce_mod_p(hmod.generalized_simple(SPEC_B2, 0), p)
            assert grassmann.count_locally_free_submodules(e1, (1, 0)) == 1

    def test_spec_example_two_copies(self):
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        m = hmod.direct_sum(e1, e1)
        for p in (5, 7, 11):
            assert grassmann.count_locally_free_submodules(
                hmod.reduce_mod_p(m, p), (1, 0)) == p * p + p

    def test_zero_rank(self):
        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (1, 1), 3), 7)
        assert grassmann.count_locally_free_submodules(m, (0, 0)) == 1

    def test_full_rank(self):
        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (2, 1), 5), 7)
        assert grassmann.count_locally_free_submodules(m, (2, 1)) == 1

    def test_not_locally_free_raises_for_every_e(self):
        # the count checks its module before it reads e: a module that is not
        # locally free raises whatever e, one past the rank bound too, in
        # chain form or not; a locally free one counts 0 past the bound, and
        # a module over Q raises ValueError whatever e
        field = PrimeField(5)
        spec = SPEC_B2.with_field(prime_field_spec(5))
        m = hmod.HModule(spec, (4, 0), [hmod.jordan_nilpotent(field, [2, 1, 1]), []],
                         {k: linalg.zeros(field, 4, 0) for k in spec.arrow_keys()})
        flip = hmod.change_vertex_basis(hmod.HModule(m.spec, m.dims, m.eps, m.arrows), 0,
                                        h_automorphism(5, 1, 4, random.Random(1)))
        assert hmod.read_jordan_blocks(field, flip.eps[0]) is None
        for module in (m, flip):
            for e in [(0, 0), (1, 0), (3, 0), (0, 1)]:
                with pytest.raises(NotLocallyFreeError):
                    grassmann.count_locally_free_submodules(module, e)
        free = hmod.random_locally_free(SPEC_B2, (2, 1), 5)
        assert grassmann.count_locally_free_submodules(hmod.reduce_mod_p(free, 7), (3, 0)) == 0
        for e in [(1, 0), (3, 0)]:
            with pytest.raises(ValueError, match="prime fields"):
                grassmann.count_locally_free_submodules(free, e)

    def test_closed_form_agrees_with_full_enumeration(self):
        # force full enumeration by counting on the preprojective double quiver
        # analog: here simply compare the sink-closed-form count against a
        # brute product enumeration on a module with one arrow
        m = hmod.random_locally_free(SPEC_B2, (2, 1), 11)
        for p in (5, 7):
            mp = hmod.reduce_mod_p(m, p)
            count = grassmann.count_locally_free_submodules(mp, (1, 1))
            brute = 0
            for c2 in grassmann.iter_free_submodules(p, 1, 1, 1):
                for c1 in grassmann.iter_free_submodules(p, 2, 2, 1):
                    ok = True
                    for vec in c2.k_basis():
                        img = [sum(mp.arrows[(0, 1, 0)][r][t] * vec[t]
                                   for t in range(1)) % p for r in range(4)]
                        if not contains(c1, img):
                            ok = False
                            break
                    if ok:
                        brute += 1
            assert count == brute


class TestQuotientType:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_spans_equal_oracle(self, p):
        field = PrimeField(p)
        rng = random.Random(p)
        for c in (1, 2, 3):
            for r in (1, 2, 3):
                dim = c * r
                whole = [[int(i == j) for j in range(dim)] for i in range(dim)]
                assert grassmann.quotient_type(field, dim, c, []) == (c,) * r
                assert grassmann.quotient_type(field, dim, c, whole) == ()
                cases = [[], whole]
                for _ in range(12):
                    gens = [[rng.randrange(p) for _ in range(dim)]
                            for _ in range(rng.randint(1, r + 1))]
                    cases.append(h_span(p, c, r, gens))
                for rows in cases:
                    assert grassmann.quotient_type(field, dim, c, rows) == \
                        quotient_type_oracle(field, dim, c, rows), (p, c, r, rows)

    @pytest.mark.parametrize("datum", [B3, C3], ids=["B3", "C3"])
    def test_sink_spans_of_root_counts_equal_oracle(self, datum, monkeypatch):
        # every forced-row set a root count closes at a sink, at p = 5; the
        # forced rows are the images under every eps power, the identity first
        closed = []
        arrow_images, forced_rows = grassmann._arrow_images, grassmann._forced_rows
        quotient_type = grassmann.quotient_type

        def checked_rows(field, M, v, chosen, powers):
            rows = forced_rows(field, M, v, chosen, powers)
            assert rows == [linalg.mat_vec(field, P, img)
                            for img in arrow_images(field, M, v, chosen) for P in powers]
            return rows

        def checked_type(field, dim, c, w_rows):
            qt = quotient_type(field, dim, c, w_rows)
            assert qt == quotient_type_oracle(field, dim, c, w_rows), (dim, c, w_rows)
            closed.append(bool(w_rows))
            return qt

        monkeypatch.setattr(grassmann, "_forced_rows", checked_rows)
        monkeypatch.setattr(grassmann, "quotient_type", checked_type)
        for module in root_table(datum, [(0, 1), (1, 2)]).modules:
            rk = hmod.require_locally_free(module)
            mp = hmod.reduce_mod_p(module, 5)
            for e in itertools.product(*(range(x + 1) for x in rk)):
                grassmann.count_locally_free_submodules(mp, e)
        # B3 closes 110 non-empty spans of 120, C3 46 of 57
        assert sum(closed) > 40 and not all(closed)


class TestEulerCharacteristics:
    def test_chi_of_two_copies(self):
        engine = grassmann.EulerEngine()
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        m = hmod.direct_sum(e1, e1)
        assert engine.euler_char_grlf(m, (1, 0)) == 2

    def test_chi_bounds(self):
        engine = grassmann.EulerEngine()
        m = hmod.random_locally_free(SPEC_B2, (1, 1), 9)
        assert engine.euler_char_grlf(m, (0, 0)) == 1
        assert engine.euler_char_grlf(m, (1, 1)) == 1

    def test_f_polynomial_of_simple(self):
        engine = grassmann.EulerEngine()
        for spec in (SPEC_B2, SPEC_G2):
            for i in range(2):
                f = engine.f_polynomial(hmod.generalized_simple(spec, i))
                expected_e = tuple(1 if t == i else 0 for t in range(2))
                assert f == {(0, 0): 1, expected_e: 1}

    def test_f_polynomial_reduces_once_per_prime(self, monkeypatch):
        # every e reads one reduction per prime; a prime whose reduction fails
        # (the arrow over 5) is skipped for every e and never stored.  The G2
        # root (2, 3) fails the torus gate, so its counts are fitted
        m = functors.all_root_modules(SPEC_G2).module_of((2, 3))
        assert grassmann.coordinate_counts(m) is None
        expected = grassmann.EulerEngine().f_polynomial(m)
        scaled = hmod.HModule(m.spec, m.dims, m.eps, {
            k: [[Fraction(x, 5) for x in row] for row in A] for k, A in m.arrows.items()})
        reduce_mod_p, primes = hmod.reduce_mod_p, []

        def spy(M, p):
            primes.append(p)
            return reduce_mod_p(M, p)

        monkeypatch.setattr(hmod, "reduce_mod_p", spy)
        engine = grassmann.EulerEngine()
        assert engine.f_polynomial(scaled) == expected
        box = 3 * 4
        sampled = {p for poly in engine.transcripts.values()
                   for p, _ in poly.samples + (poly.held_out,)}
        assert len(engine.transcripts) == box and 5 not in sampled
        assert primes.count(5) == box
        assert sorted(p for p in primes if p != 5) == sorted(sampled)

    def test_g_vectors(self):
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        assert grassmann.g_vector(e1) == (-1, 2)

    def test_root_module_f_polynomial_b2(self):
        engine = grassmann.EulerEngine()
        table = functors.all_root_modules(SPEC_B2)
        f = engine.f_polynomial(table.module_of((1, 1)))
        assert f == {(0, 0): 1, (1, 0): 1, (1, 1): 1}


class TestFlags:
    def test_simple_flag(self):
        engine = grassmann.EulerEngine()
        for i in range(2):
            ei = hmod.generalized_simple(SPEC_B2, i)
            assert engine.flag_euler(ei, (i,)) == 1

    def test_two_copies_flag(self):
        engine = grassmann.EulerEngine()
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        m = hmod.direct_sum(e1, e1)
        assert engine.flag_euler(m, (0, 0)) == 2

    def test_wrong_content_is_zero(self):
        engine = grassmann.EulerEngine()
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        assert engine.flag_euler(e1, (1,)) == 0
        assert engine.theta_eval([(1, (1, 0))], e1) == 0

    def test_flag_count_per_prime_value(self):
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        m = hmod.direct_sum(e1, e1)
        for p in (5, 11):
            counter = grassmann.Counter()
            assert counter.flag_count(hmod.reduce_mod_p(m, p), (0, 0)) == p * p + p

    def test_repeated_count_reads_the_memo_first(self, monkeypatch):
        # a count in the memo is returned before the module's eps is read
        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_G2, (2, 1), 3), 5)
        counter = grassmann.Counter()
        count = counter.flag_count(m, (0, 0, 1))
        other = grassmann.Counter().flag_count(m, (0, 1, 0))
        read = []
        chain_form = hmod.chain_form
        monkeypatch.setattr(hmod, "chain_form", lambda M: read.append(M) or chain_form(M))
        assert counter.flag_count(m, (0, 0, 1)) == count and not read
        assert counter.flag_count(m, (0, 1, 0)) == other and len(read) == 1

    def test_merge_propagates_unexpected_errors(self, monkeypatch):
        # only an inconclusive isomorphism search may be read as "distinct"
        def broken(A, B, *args, **kwargs):
            raise ValueError("broken isomorphism test")

        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (2, 1), 1), 5)
        monkeypatch.setattr(hmod, "is_isomorphic", broken)
        with pytest.raises(ValueError):
            grassmann.Counter().bottom_e_groups(m, 0)

    def test_merge_reaches_isomorphism_test_across_orbits(self):
        # the module of test_merge_propagates_unexpected_errors keeps more
        # than one orbit, so its merge still calls is_isomorphic
        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (2, 1), 1), 5)
        counter = grassmann.Counter()
        assert len(counter._orbits(m, 0, e_generators(m, 0))) > 1

    def test_flag_through_root_module(self):
        # He_2 has a unique E-flag structure E_1 then E_2 and none reversed
        engine = grassmann.EulerEngine()
        he2 = hmod.projective_module(SPEC_B2, 1)
        assert engine.flag_euler(he2, (0, 1)) == 1
        assert engine.flag_euler(he2, (1, 0)) == 0

    def test_symmetrizer_independence(self):
        # chi of E-flag varieties of root modules agree for D and 2D
        engine = grassmann.EulerEngine()
        doubled = cartan.validate_datum([[2, -1], [-2, 2]], [4, 2])
        spec2 = hmod.HAlgebraSpec(doubled, B2_OMEGA, RATIONALS)
        t1 = functors.all_root_modules(SPEC_B2)
        t2 = functors.all_root_modules(spec2)
        words = {(1, 0): [(0,)], (0, 1): [(1,)],
                 (1, 1): [(0, 1), (1, 0)],
                 (1, 2): [(0, 1, 1), (1, 0, 1), (1, 1, 0)]}
        for beta, wlist in words.items():
            for w in wlist:
                chi1 = engine.flag_euler(t1.module_of(beta), w)
                chi2 = engine.flag_euler(t2.module_of(beta), w)
                assert chi1 == chi2


class TestOrbitMerge:
    @pytest.mark.parametrize("spec, p, count", [(SPEC_B2, 5, 4), (SPEC_B2, 7, 3),
                                                (SPEC_G2, 5, 2), (SPEC_G2, 7, 1)])
    def test_groups_equal_per_quotient_oracle(self, spec, p, count):
        # every E-group that the commutator's flag counts reach
        seen = []

        class Recording(grassmann.Counter):
            def bottom_e_groups(self, M, j):
                if (M.key(), j) not in self.group_memo:
                    seen.append((M, j))
                return super().bottom_e_groups(M, j)

        combo = grassmann.serre_commutator(0, 1, 1 - spec.datum.C[0][1])
        for module in criterion_9_modules(spec, count):
            counter = Recording()
            m = hmod.reduce_mod_p(module, p)
            for _, word in combo:
                counter.flag_count(m, word)
        assert len(seen) > 10
        merged = 0
        for M, j in seen:
            got = grassmann.Counter().bottom_e_groups(M, j)
            assert_same_groups(got, per_quotient_groups(M, j))
            merged += sum(mult for _, mult in got) > len(got)
        assert merged  # some orbit or class holds more than one submodule

    def test_groups_without_chain_form_eps(self):
        # a vertex basis change that is not H-linear: flag_count normalizes
        # it once and counts what it counts on the chain-form module, and
        # what the Jordan-chain oracle recursion counts on the changed one
        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_G2, (2, 1), 3), 5)
        field = m.field()
        g = linalg.identity(field, 6)
        g[0][1] = g[2][5] = g[4][3] = field.one
        changed = hmod.change_vertex_basis(hmod.HModule(m.spec, m.dims, m.eps, m.arrows), 0, g)
        assert hmod.read_jordan_blocks(field, changed.eps[0]) is None
        with pytest.raises(ValueError, match="canonical chain form"):
            grassmann.Counter().bottom_e_groups(changed, 0)
        counts = []
        for word in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            count = grassmann.Counter().flag_count(changed, word)
            assert count == grassmann.Counter().flag_count(m, word) == \
                oracle_flag_count(changed, word), word
            counts.append(count)
        assert any(counts)

    @pytest.mark.parametrize("blocks", [(2, 1, 1), (1, 2, 1), (2, 2, 1, 1)])
    def test_mixed_jordan_type_has_no_flag(self, blocks):
        # a module that is not locally free has no E-flag: flag_count reads 0
        # without enumerating, and the oracle recursion, which does find
        # rank-one generators, counts 0 too; also with eps out of chain form
        field = PrimeField(5)
        spec = SPEC_B2.with_field(prime_field_spec(5))
        m = hmod.HModule(spec, (sum(blocks), 0), [hmod.jordan_nilpotent(field, blocks), []],
                         {k: linalg.zeros(field, sum(blocks), 0) for k in spec.arrow_keys()})
        assert hmod.is_locally_free(m) is None and oracle_e_generators(m, 0)
        flip = hmod.change_vertex_basis(hmod.HModule(m.spec, m.dims, m.eps, m.arrows), 0,
                                        h_automorphism(5, 1, sum(blocks), random.Random(1)))
        assert hmod.read_jordan_blocks(field, flip.eps[0]) is None
        word = (0,) * (sum(blocks) // 2)
        for module in (m, flip):
            assert grassmann.Counter(budget=0).flag_count(module, word) == 0
            assert oracle_flag_count(module, word) == 0

    @pytest.mark.parametrize("spec, p", [(SPEC_B2, 5), (SPEC_B2, 7), (SPEC_G2, 5)])
    def test_key_is_a_unit_invariant(self, spec, p):
        # a canonical generator is its own key, and so is each unit multiple
        rng = random.Random(p)
        for module in criterion_9_modules(spec, 2):
            m = hmod.reduce_mod_p(module, p)
            field, c = m.field(), spec.datum.D[0]
            for u in e_generators(m, 0):
                unit = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(c - 1)]
                assert grassmann._rank1_key(p, c, h_act(field, m.eps[0], unit, u)) == u
                assert grassmann._rank1_key(p, c, u) == u

    @pytest.mark.parametrize("spec, p", [(SPEC_B2, 5), (SPEC_B2, 7), (SPEC_G2, 5)])
    def test_one_key_per_free_rank1_submodule(self, spec, p):
        # the E_0 generators are the Jordan-chain oracle's submodules, one
        # each, as many as the formula for the Jordan type of the allowed space
        for module in criterion_9_modules(spec, 2):
            m = hmod.reduce_mod_p(module, p)
            field, c = m.field(), spec.datum.D[0]
            core = grassmann.allowed_bottom_space(m, 0)
            ranks = [len(core)]
            vecs = core
            while ranks[-1]:
                vecs = [linalg.mat_vec(field, m.eps[0], v) for v in vecs]
                ranks.append(linalg.rank(field, vecs))
            jordan_type = hmod._partition_from_ranks(ranks)
            gens = e_generators(m, 0)
            assert len(set(gens)) == len(gens) == \
                grassmann.count_free_submodules_of_type(jordan_type, 1, p, c)
            assert set(gens) == {grassmann._rank1_key(p, c, u) for u in oracle_e_generators(m, 0)}

    @pytest.mark.parametrize("p, c, blocks", [(5, 2, [2, 1]), (3, 2, [1, 2, 2]),
                                              (3, 3, [3, 1, 3]), (5, 3, [2, 3])])
    def test_one_key_per_free_rank1_submodule_of_mixed_type(self, p, c, blocks):
        # an eps-stable subspace of H^r of Jordan type blocks (the bottom
        # blocks[b] vectors of chain b, moved by an H-linear automorphism):
        # killed_by its annihilator yields the Jordan-chain oracle's
        # submodules, as many as the formula for that type
        field = PrimeField(p)
        r = len(blocks)
        g = h_automorphism(p, c, r, random.Random(p * c))
        space = [linalg.mat_vec(field, g, [int(x == b * c + a) for x in range(c * r)])
                 for b, lam in enumerate(blocks) for a in range(c - lam, c)]
        rows = linalg.nullspace(field, space, c * r)
        gens = [tuple(x for h in cand.cols[0] for x in h)
                for cand in grassmann.iter_free_submodules(p, c, r, 1, killed_by=rows)]
        oracle = [grassmann._rank1_key(p, c, u)
                  for u in jordan_chain_generators(field, hmod.free_eps(field, c, r), space, c)]
        jordan_type = tuple(sorted(blocks, reverse=True))
        assert None not in oracle and set(gens) == set(oracle)
        assert len(gens) == len(oracle) == \
            grassmann.count_free_submodules_of_type(jordan_type, 1, p, c)

    @pytest.mark.parametrize("spec, p", [(SPEC_B2, 5), (SPEC_B2, 7), (SPEC_G2, 5)])
    def test_automorphism_images_are_candidates(self, spec, p):
        for module in criterion_9_modules(spec, 2):
            m = hmod.reduce_mod_p(module, p)
            field, n = m.field(), spec.datum.n
            gens = e_generators(m, 0)
            auts = list(grassmann._draw_automorphisms(m))  # the whole stream
            assert auts
            for g in auts:
                for v in range(n):  # an invertible module map
                    assert linalg.rank(field, g[v]) == m.dims[v]
                    eps = m.eps[v]
                    assert linalg.mat_mul(field, g[v], eps) == linalg.mat_mul(field, eps, g[v])
                for (i, j, _), A in m.arrows.items():
                    assert linalg.mat_mul(field, g[i], A) == linalg.mat_mul(field, A, g[j])
                images = {grassmann._rank1_key(p, spec.datum.D[0], linalg.mat_vec(field, g[0], u))
                          for u in gens}
                assert images == set(gens)

    @pytest.mark.parametrize("spec, p", [(SPEC_B2, 5), (SPEC_B2, 7), (SPEC_G2, 5), (SPEC_G2, 7)])
    def test_parts_lie_in_orbits(self, spec, p):
        # each part's members have quotients isomorphic to its root's, so
        # weighting the root's quotient by the part size counts exactly
        combo = grassmann.serre_commutator(0, 1, 1 - spec.datum.C[0][1])
        for module in criterion_9_modules(spec, 2):
            m = hmod.reduce_mod_p(module, p)
            for _, word in combo:
                assert grassmann.Counter().flag_count(m, word) == oracle_flag_count(m, word)
        seen = reached_e_groups(spec, p, 2)
        assert len(seen) > 10
        for M, j in seen:
            counter = grassmann.Counter()
            gens = e_generators(M, j)
            got = counter._orbits(M, j, gens)
            parts, _ = replay_passes(M, j, gens, grassmann._draw_automorphisms(M))
            assert got == [(gens.index(r), len(members)) for r, members in parts.items()]
            assert sum(size for _, size in got) == len(gens)
            for r, members in parts.items():
                quotient = grassmann._e_letter_quotient(M, j, r)
                for u in members[1:]:
                    assert hmod.is_isomorphic(grassmann._e_letter_quotient(M, j, u), quotient)

    def test_later_passes_key_only_roots(self, monkeypatch):
        # every generator is keyed in the first pass, and only the root of
        # each part in every later one; a lone generator is not keyed
        keyed = []
        key = grassmann._rank1_key
        monkeypatch.setattr(grassmann, "_rank1_key", lambda *args: keyed.append(1) or key(*args))
        total = later = 0
        for spec, p in [(SPEC_B2, 5), (SPEC_B2, 7), (SPEC_G2, 5), (SPEC_G2, 7)]:
            for M, j in reached_e_groups(spec, p, 2):
                counter = grassmann.Counter()
                gens = e_generators(M, j)
                del keyed[:]
                counter._orbits(M, j, gens)
                made = len(keyed)
                _, passes = replay_passes(M, j, gens, grassmann._draw_automorphisms(M))
                if len(gens) == 1:
                    assert made == 0
                    continue
                assert made == sum(passes), (M.dims, j)
                total += len(gens)
                later += made - len(gens)
        assert 0 < later < total

    def test_one_orbit_is_one_part(self):
        # GL_2(H) moves every free rank-one submodule of H^2: E_1 + E_1 of
        # G2 over F_5 has (5 + 1) * 5^2 generators and one part
        e1 = hmod.generalized_simple(SPEC_G2.with_field(prime_field_spec(5)), 0)
        m = hmod.direct_sum(e1, e1)
        gens = e_generators(m, 0)
        assert len(gens) == 150
        assert grassmann.Counter()._orbits(m, 0, gens) == [(0, 150)]

    @pytest.mark.parametrize("rejected", [1, grassmann.AUT_DRAWS])
    def test_rejected_draws(self, monkeypatch, rejected):
        # a singular draw is skipped: with only the first rejected the parts
        # still merge; AUT_DRAWS rejected in a row end the stream, and every
        # generator is its own part.  The counts stay exact either way
        m = hmod.reduce_mod_p(criterion_9_modules(SPEC_B2, 1)[0], 7)
        assert hmod.chain_form(m) is m
        draws = []
        invertible = hmod._invertible_combination

        def rejecting(field, M, basis, coeffs):
            if M is m:
                draws.append(coeffs)
                if len(draws) <= rejected:
                    return None
            return invertible(field, M, basis, coeffs)

        monkeypatch.setattr(hmod, "_invertible_combination", rejecting)
        gens = e_generators(m, 0)
        parts = grassmann.Counter()._orbits(m, 0, gens)
        if rejected < grassmann.AUT_DRAWS:
            assert len(parts) < len(gens)
        else:
            assert parts == [(k, 1) for k in range(len(gens))]
            assert len(draws) == grassmann.AUT_DRAWS
        for word in [(0, 0, 1), (0, 1, 0)]:
            assert grassmann.Counter().flag_count(m, word) == oracle_flag_count(m, word)

    def test_missing_image_raises(self, monkeypatch):
        # an invertible map at vertex 0 that does not commute with eps takes
        # the generator e_0 to eps e_0, which generates no free submodule
        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (2, 1), 1), 5)
        field = m.field()
        g = [row[:] for row in linalg.identity(field, 4)]
        g[0], g[1] = g[1], g[0]
        fake = (g, linalg.identity(field, 1))
        monkeypatch.setattr(grassmann, "_draw_automorphisms", lambda M: [fake])
        with pytest.raises(InternalMismatchError, match="outside the generators"):
            grassmann.Counter().bottom_e_groups(m, 0)

    def test_counter_keeps_no_automorphisms(self, monkeypatch):
        # the stream of each split is read once and dropped: after the
        # Serre counts, neither a generator nor a Hom basis is kept
        bases = []
        hom_basis = hmod.hom_basis
        monkeypatch.setattr(hmod, "hom_basis", lambda M, N: bases.append(hom_basis(M, N)) or bases[-1])
        m = hmod.reduce_mod_p(criterion_9_modules(SPEC_G2, 1)[0], 7)
        counter = grassmann.Counter()
        for _, word in grassmann.serre_commutator(0, 1, 1 - SPEC_G2.datum.C[0][1]):
            counter.flag_count(m, word)
        assert any(len(basis) > 1 for basis in bases)  # some split drew automorphisms
        kept = reachable(vars(counter).values())
        assert not [obj for obj in kept if isinstance(obj, types.GeneratorType)]
        basis_ids = {id(basis) for basis in bases} | {id(f) for basis in bases for f in basis}
        assert not [obj for obj in kept if id(obj) in basis_ids]

    @pytest.mark.parametrize("p", [5, 7])
    def test_draws_are_the_seeded_stream(self, monkeypatch, p):
        # _draw_automorphisms yields the invertible draws of
        # hmod._seeded_combinations, which replays random.Random(0).randrange(p)
        # coefficient by coefficient, until AUT_DRAWS singular draws in a row;
        # is_isomorphic(M, M) reads the same first draw
        modules = [hmod.reduce_mod_p(m, p)
                   for name in ("B2", "G2", "B3", "C3")
                   for m in functors.all_root_modules(hmod.HAlgebraSpec(
                       CATALOG[name], cartan.all_orientations(CATALOG[name])[0], RATIONALS)).modules]
        modules += [M for M, _ in reached_e_groups(SPEC_B2, p, 1)]
        calls = []
        invertible = hmod._invertible_combination
        monkeypatch.setattr(hmod, "_invertible_combination",
                            lambda *args: calls.append(1) or invertible(*args))
        checked = first_invertible = 0
        for M in modules:
            basis = hmod.hom_basis(M, M)
            if len(basis) <= 1:
                continue
            field, rng = M.field(), random.Random(0)
            draws = []
            while draws[-grassmann.AUT_DRAWS:] != [None] * grassmann.AUT_DRAWS:
                draws.append(invertible(field, M, basis, [rng.randrange(p) for _ in basis]))
            stream = hmod._seeded_combinations(field, M, basis)
            assert list(itertools.islice(stream, len(draws))) == draws
            assert list(grassmann._draw_automorphisms(M)) == [g for g in draws if g is not None]
            del calls[:]
            assert hmod.is_isomorphic(M, M)
            if draws[0] is not None:
                assert len(calls) == 1
                first_invertible += 1
            checked += 1
        assert checked > 20 and first_invertible > 10


class TestSerre:
    def test_commutator_expansion(self):
        combo = grassmann.serre_commutator(0, 1, 2)
        assert ((1, (0, 0, 1)) in combo) and ((-2, (0, 1, 0)) in combo) \
            and ((1, (1, 0, 0)) in combo)

    def test_theta_on_simple(self):
        engine = grassmann.EulerEngine()
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        assert engine.theta_eval([(1, (0,))], e1) == 1

    def test_serre_vanishing_b2_sample(self):
        engine = grassmann.EulerEngine()
        power = 1 - B2.C[0][1]
        combo = grassmann.serre_commutator(0, 1, power)
        for seed in range(5):
            m = hmod.random_locally_free(SPEC_B2, (power, 1), seed)
            assert engine.theta_eval(combo, m) == 0

    def test_query_checks_once_and_reduces_once_per_prime(self, monkeypatch):
        # theta_eval checks local freeness (takes the chain form of its input)
        # once for all of its words, and the class representative is reduced
        # once per prime for every word and query
        lf_checks, reductions = [], []
        chain_form, reduce_mod_p = hmod.chain_form, hmod.reduce_mod_p

        def checking(M):
            lf_checks.append(M)
            return chain_form(M)

        def reducing(M, p):
            reductions.append((M.key(), p))
            return reduce_mod_p(M, p)

        m = hmod.random_locally_free(SPEC_B2, (2, 1), 7)
        monkeypatch.setattr(hmod, "chain_form", checking)
        monkeypatch.setattr(hmod, "reduce_mod_p", reducing)
        engine = grassmann.EulerEngine()
        combo = grassmann.serre_commutator(0, 1, 2)
        assert engine.theta_eval(combo, m) == 0
        assert sum(M is m for M in lf_checks) == 1
        fit = engine.transcripts["flag [2, 1] [0, 0, 1]"]
        primes = {p for p, _ in fit.samples} | {fit.held_out[0]}
        assert sorted(reductions) == sorted((m.key(), p) for p in primes)
        made = len(reductions)
        assert engine.theta_eval(combo, m) == 0
        assert sum(M is m for M in lf_checks) == 2 and len(reductions) == made

    def test_class_invariant_reads_chain_form_eps(self, monkeypatch):
        # eps_partition reads the Jordan type of a chain-form eps off the
        # matrix, over Q and F_p, and equals the rank-drop oracle's; only a
        # module whose eps is not in chain form takes ranks.  class_rep's
        # cheap invariant is eps_partition
        modules = criterion_9_modules(SPEC_B2, 4) + criterion_9_modules(SPEC_G2, 4) + \
            [hmod.generalized_simple(SPEC_G2, 0), hmod.zero_module(SPEC_B2)]
        # chain form with blocks (1, 2) in basis order: not locally free
        modules.append(hmod.HModule(SPEC_B2, (3, 0), [[[0, 0, 0], [0, 0, 0], [0, 1, 0]], []],
                                    {k: [] for k in SPEC_B2.arrow_keys()}))
        modules += [hmod.reduce_mod_p(m, 7) for m in modules[:3]]
        flip = hmod.change_vertex_basis(hmod.HModule(modules[0].spec, modules[0].dims,
                                                     modules[0].eps, modules[0].arrows),
                                        0, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert hmod.read_jordan_blocks(SPEC_B2.field(), flip.eps[0]) is None
        for m in modules + [flip]:
            for v in range(m.spec.datum.n):
                assert hmod.eps_partition(m, v) == eps_partition_by_ranks(m, v)
        counter = grassmann.Counter()
        for m in modules + [flip]:
            counter.class_rep(m)
        for inv, rep in counter.class_reps:  # an invariant is computed on first need
            assert inv in (None, grassmann._class_invariant(rep))
            assert grassmann._class_invariant(rep)[0] == \
                tuple(eps_partition_by_ranks(rep, v) for v in range(rep.spec.datum.n))
        assert any(inv is not None for inv, _ in counter.class_reps)
        ranked = []
        rank = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda *args: ranked.append(where) or rank(*args))
        for k, m in enumerate(modules + [flip]):
            for v in range(m.spec.datum.n):
                where = (k, v)
                hmod.eps_partition(m, v)
        assert set(ranked) == {(len(modules), 0)}  # flip's eps_0

    def test_class_lookup_once_per_module(self, monkeypatch):
        # a conjugate of a cached module is matched to it by one isomorphism
        # test over Q, not one per word of the combination
        anchor = hmod.random_locally_free(SPEC_B2, (2, 1), 7)
        conj = hmod.HModule(anchor.spec, anchor.dims, anchor.eps, anchor.arrows)
        field = SPEC_B2.field()
        g = linalg.identity(field, 4)
        g[0][2] = g[1][3] = field.one  # H-linear: identity from chain 2 to chain 1
        hmod.change_vertex_basis(conj, 0, g)
        assert conj.eps == anchor.eps and conj.key() != anchor.key()
        engine = grassmann.EulerEngine()
        combo = grassmann.serre_commutator(0, 1, 2)
        assert engine.theta_eval(combo, anchor) == 0
        q_calls = []
        is_isomorphic = hmod.is_isomorphic

        def counting(A, B, *args, **kwargs):
            if A.spec.fieldspec == RATIONALS:
                q_calls.append((A, B))
            return is_isomorphic(A, B, *args, **kwargs)

        monkeypatch.setattr(hmod, "is_isomorphic", counting)
        assert engine.theta_eval(combo, conj) == 0
        assert len(q_calls) == 1
        rep = engine._dedup.class_rep(conj)
        assert rep is anchor
        assert engine._dedup.class_rep(conj) is rep
        assert len(q_calls) == 1


    def test_registry_refutes_by_arrow_rank(self, monkeypatch):
        # E_0 (+) E_1 and a module with a nonzero arrow, over F_7: equal dims
        # and eps Jordan types, different arrow ranks, so two classes and
        # no isomorphism search
        spec7 = SPEC_B2.with_field(prime_field_spec(7))
        split = hmod.direct_sum(*(hmod.generalized_simple(spec7, v) for v in (0, 1)))
        joined = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (1, 1), 7), 7)
        assert split.dims == joined.dims and any(any(map(any, m)) for m in joined.arrows.values())
        searches = []
        monkeypatch.setattr(hmod, "is_isomorphic", lambda *args: searches.append(args))
        counter = grassmann.Counter()
        assert counter.class_rep(split) is split and counter.class_rep(joined) is joined
        assert len(counter.class_reps) == 2 and searches == []

    def test_registry_is_shared_across_flag_queries(self):
        # the conjugate of test_class_lookup_once_per_module, mod 7, summed
        # with E_0: in a second flag_count of the same Counter, a quotient
        # that is not byte-equal to any seen in the first query maps to the
        # first query's representative, whose count is a flag_memo hit
        anchor = hmod.random_locally_free(SPEC_B2, (2, 1), 7)
        conj = hmod.HModule(anchor.spec, anchor.dims, anchor.eps, anchor.arrows)
        field = SPEC_B2.field()
        g = linalg.identity(field, 4)
        g[0][2] = g[1][3] = field.one
        hmod.change_vertex_basis(conj, 0, g)
        anchor7, conj7 = hmod.reduce_mod_p(anchor, 7), hmod.reduce_mod_p(conj, 7)
        assert conj7.key() != anchor7.key()
        e0 = hmod.generalized_simple(anchor7.spec, 0)
        query, reps, grouped = [0], [], []

        class Recording(grassmann.Counter):
            def class_rep(self, M):
                rep = super().class_rep(M)
                reps.append((query[0], M, rep))
                return rep

            def bottom_e_groups(self, M, j):
                grouped.append((query[0], M))
                return super().bottom_e_groups(M, j)

        counter = Recording()
        word = (0, 0, 1, 0)
        first = counter.flag_count(hmod.direct_sum(anchor7, e0), word)
        query[0] = 1
        second_top = hmod.direct_sum(conj7, e0)
        assert counter.flag_count(second_top, word) == first == \
            grassmann.Counter().flag_count(second_top, word)
        first_reps = {id(rep) for q, _, rep in reps if q == 0}
        first_keys = {M.key() for q, M, _ in reps if q == 0}
        shared = [(M, rep) for q, M, rep in reps
                  if q == 1 and M.key() not in first_keys and id(rep) in first_reps]
        assert shared and all(hmod.is_isomorphic(M, rep) for M, rep in shared)
        # below the top, every count of the second query is a flag_memo hit
        assert [M for q, M in grouped if q == 1] == [second_top]

    def test_class_invariant_waits_for_a_same_dims_module(self, monkeypatch):
        # class_rep computes a module's invariant only once a registered
        # module has its spec and dims, and then tests the same pairs and
        # picks the same representatives as a registry that computes every
        # invariant up front
        modules = [grassmann._e_letter_quotient(M, j, u)
                   for spec, p in [(SPEC_B2, 7), (SPEC_G2, 5)]
                   for M, j in reached_e_groups(spec, p, 2) for u in e_generators(M, j)]
        modules.append(hmod.zero_module(modules[0].spec))
        tried, read = [], []
        is_isomorphic, invariant = hmod.is_isomorphic, grassmann._class_invariant

        def trying(A, B):
            tried.append((id(A), id(B)))
            return is_isomorphic(A, B)

        monkeypatch.setattr(hmod, "is_isomorphic", trying)
        eager, registry, memo = [], [], {}
        for M in modules:
            key = (M.spec, M.key())
            if key not in memo:
                inv = (M.spec, M.dims, invariant(M))
                for inv2, rep in registry:
                    if inv2 == inv and soft_iso(M, rep):
                        break
                else:
                    registry.append((inv, M))
                    rep = M
                memo[key] = rep
            eager.append(memo[key])
        eager_tried = tried[:]
        del tried[:]
        monkeypatch.setattr(grassmann, "_class_invariant",
                            lambda M: read.append(id(M)) or invariant(M))
        counter = grassmann.Counter()
        assert [counter.class_rep(M) for M in modules] == eager
        assert tried == eager_tried and len(tried) > 10
        # the first module of each key is read once if another key has its
        # spec and dims, and never otherwise
        first = {}
        for M in modules:
            first.setdefault((M.spec, M.key()), M)
        shapes = [(M.spec, M.dims) for M in first.values()]
        shared = sorted(id(M) for M in first.values() if shapes.count((M.spec, M.dims)) > 1)
        assert sorted(read) == shared and 0 < len(shared) < len(first)


class TestPBW:
    def test_diagonal_unit(self):
        table = functors.all_root_modules(SPEC_B2)
        engine = grassmann.PBWEngine(table)
        r = len(table.betas)
        for k in range(r):
            m = tuple(1 if t == k else 0 for t in range(r))
            assert engine.pairing(m, m) == 1

    def test_off_diagonal_zero_weight_match(self):
        table = functors.all_root_modules(SPEC_B2)
        engine = grassmann.PBWEngine(table)
        # beta_2 = beta_1 + beta_4
        m = (0, 1, 0, 0)
        n = (1, 0, 0, 1)
        assert engine.pairing(m, n) == 0
        assert engine.pairing(n, m) == 0

    def test_double_e1(self):
        table = functors.all_root_modules(SPEC_B2)
        engine = grassmann.PBWEngine(table)
        m = (2, 0, 0, 0)
        assert engine.pairing(m, m) == 1

    def test_grading_shortcut(self):
        table = functors.all_root_modules(SPEC_B2)
        engine = grassmann.PBWEngine(table)
        assert engine.pairing((1, 0, 0, 0), (0, 1, 0, 0)) == 0

    def test_g2_unit_diagonal_and_mixed_pairs(self):
        table = functors.all_root_modules(SPEC_G2)
        engine = grassmann.PBWEngine(table)
        r = len(table.betas)
        for k in range(r):
            m = tuple(1 if t == k else 0 for t in range(r))
            assert engine.pairing(m, m) == 1
        # a decomposable weight: beta-list starts (1,0),(1,1),...; find the
        # index of (1,1) and pair it against (1,0) + (0,1)
        k11 = table.betas.index((1, 1))
        k10 = table.betas.index((1, 0))
        k01 = table.betas.index((0, 1))
        single = tuple(1 if t == k11 else 0 for t in range(r))
        split = tuple((1 if t in (k10, k01) else 0) for t in range(r))
        assert engine.pairing(single, split) == 0
        assert engine.pairing(split, single) == 0
        assert engine.pairing(split, split) == 1

    @pytest.mark.parametrize("spec,bound,engine_cls", [
        (SPEC_B2, (2, 2), grassmann.PBWEngine),
        (SPEC_G2, (2, 1), grassmann.PBWEngine),
        (SPEC_B2, (1, 2), AscendingPBW),
    ], ids=["B2-2,2", "G2-2,1", "B2-1,2-ascending"])
    def test_localized_pairing_matches_direct_sum_oracle(self, spec, bound, engine_cls):
        table = functors.all_root_modules(spec)
        engine, oracle = engine_cls(table), engine_cls(table)
        vectors = verify.pbw_multiplicity_vectors(table, bound)
        for m, wm in vectors:
            for n, wn in vectors:
                if wm == wn:
                    assert engine.pairing(m, n) == direct_sum_pairing(oracle, m, n), (m, n)

    @pytest.mark.parametrize("spec,bound,engine_cls", [
        (SPEC_B2, (4, 4), grassmann.PBWEngine),
        (SPEC_G2, (2, 1), grassmann.PBWEngine),
        (SPEC_F4, (1, 2, 2, 1), grassmann.PBWEngine),
        (SPEC_B2, (3, 3), AscendingPBW),
    ], ids=["B2-4,4", "G2-2,1", "F4-1,2,2,1", "B2-3,3-ascending"])
    def test_rows_match_dp_oracle(self, spec, bound, engine_cls):
        table = functors.all_root_modules(spec)
        engine, oracle = engine_cls(table), engine_cls(table)
        vectors = verify.pbw_multiplicity_vectors(table, bound)
        off_identity = 0
        for m, n, value in verify.pbw_pairing_matrix(engine, vectors):
            assert value == dp_pairing(oracle, m, n), (m, n)
            off_identity += value != (m == n)
        # ascending class words give a pairing matrix that is not the
        # identity, so a wrong coefficient or 1/k! would show
        assert (off_identity > 0) == (engine_cls is AscendingPBW)

    @staticmethod
    def recorded_class_groups(monkeypatch, run):
        """[(counter, module, class, groups)] of every class group that
        _sub_groups computes while run() counts."""
        seen = []

        class Recording(grassmann.ClassFlagCounter):
            def _sub_groups(self, M, cls_idx):
                fresh = (M.key(), cls_idx) not in self.group_memo
                got = super()._sub_groups(M, cls_idx)
                if fresh:
                    seen.append((self, M, cls_idx, got))
                return got

        monkeypatch.setattr(grassmann, "ClassFlagCounter", Recording)
        run()
        return seen

    @staticmethod
    def assert_groups_match_per_list_oracle(seen):
        """Each recorded group list, merged through its counter's registry,
        against the per-list merge of the same quotients."""
        oracles = {}
        for counter, M, cls_idx, got in seen:
            if counter not in oracles:
                oracles[counter] = type(counter)(counter.classes)
            quotients = oracles[counter]._class_quotients(M, cls_idx)
            assert_same_groups(got, oracle_merge((quotient, 1) for quotient in quotients))

    @pytest.mark.parametrize("spec,bound", [(SPEC_B2, (4, 4)), (SPEC_G2, (2, 1))],
                             ids=["B2-4,4", "G2-2,1"])
    def test_class_groups_equal_per_list_oracle(self, spec, bound, monkeypatch):
        # every class group that the pairing rows reach; each holds at most
        # one quotient, so this checks that the registry, shared across the
        # rows, never maps a quotient to a class it is not in
        table = functors.all_root_modules(spec)

        def rows():
            engine = grassmann.PBWEngine(table)
            vectors = verify.pbw_multiplicity_vectors(table, bound)
            for _ in verify.pbw_pairing_matrix(engine, vectors):
                pass

        seen = self.recorded_class_groups(monkeypatch, rows)
        assert len(seen) > 10 and any(got for *_, got in seen)
        self.assert_groups_match_per_list_oracle(seen)

    def test_class_groups_merge_within_a_list(self, monkeypatch):
        # M(beta) (+) M(beta) over F_5: its submodules of class beta are the
        # points of the projective line over the local ring R = End(M(beta)),
        # 5^(d-1) * 6 of them for dim R = d, and every quotient is M(beta)
        table = functors.all_root_modules(SPEC_B2)
        mods = [hmod.reduce_mod_p(m, 5) for m in table.modules]
        counts = []

        def count():
            counter = grassmann.ClassFlagCounter(mods)
            for b, m in enumerate(mods):
                counts.append(counter.count(hmod.direct_sum(m, m), (b, b)))

        seen = self.recorded_class_groups(monkeypatch, count)
        ends = [hmod.hom_dim(m, m) for m in mods]
        assert counts == [5 ** (d - 1) * 6 for d in ends] and max(ends) > 1
        assert sorted(got[0][1] for *_, got in seen if len(got) == 1 and got[0][1] > 1) == \
            sorted(counts)
        self.assert_groups_match_per_list_oracle(seen)

    @pytest.mark.parametrize("name,omega", ALL_ORIENTATIONS)
    def test_identity_at_all_weights(self, name, omega):
        # the row of e_b is S_b, and every row is a product of the S_b, so
        # the pairing matrix is the identity at every weight if and only if
        # S_b = x^{e_b} for every root b
        table = functors.all_root_modules(hmod.HAlgebraSpec(CATALOG[name], omega, RATIONALS))
        engine = grassmann.PBWEngine(table)
        r = len(table.betas)
        for b, beta in enumerate(table.betas):
            e_b = tuple(int(c == b) for c in range(r))
            for n in grassmann._weight_splits(table.betas, beta, [max(beta)] * r):
                assert engine.pairing(e_b, n) == (n == e_b), (b, n)


class TestFiltrationOrder:
    def test_nofilt_example(self):
        table = functors.all_root_modules(SPEC_B2)
        engine = grassmann.PBWEngine(table)
        m_beta2 = table.module_of((1, 1))
        increasing = [(0, 1), (3, 1)]  # M(beta_1) at the bottom, then M(beta_4)
        decreasing = [(3, 1), (0, 1)]
        up = engine.filtration_exists(m_beta2, increasing, primes=(5, 7, 11))
        down = engine.filtration_exists(m_beta2, decreasing, primes=(5, 7, 11))
        assert all(up.values())
        assert not any(down.values())

    def test_trivial_prescription(self):
        table = functors.all_root_modules(SPEC_B2)
        engine = grassmann.PBWEngine(table)
        m = table.module_of((1, 2))
        idx = table.betas.index((1, 2))
        res = engine.filtration_exists(m, [(idx, 1)], primes=(5, 7))
        assert all(res.values())

    @staticmethod
    def engines(table, p, budget=grassmann.DEFAULT_BUDGET):
        """Two ClassFlagCounters over F_p with separate memos, and the
        root modules reduced mod p."""
        mods = [hmod.reduce_mod_p(m, p) for m in table.modules]
        return [grassmann.ClassFlagCounter(mods, budget) for _ in range(2)], mods

    @pytest.mark.parametrize("datum,omega", [(verify.B2, verify.OM_B2), (verify.G2, verify.OM_G2),
                                             (verify.B3, verify.OM_B3)], ids=["B2", "G2", "B3"])
    def test_exists_equals_count_oracle(self, datum, omega):
        # every nofilt-check prescription, in both orders: the first-flag
        # search answers what the merged count says
        table = functors.all_root_modules(hmod.HAlgebraSpec(datum, omega, RATIONALS))
        r = len(table.betas)
        for p in (5, 7):
            (counter, searcher), mods = self.engines(table, p)
            answers = set()
            for k in range(r):
                for m in cli._decompositions(table.betas, table.betas[k], k):
                    word = tuple(j for j in range(r) for _ in range(m[j]))
                    for w in (word, word[::-1]):
                        found = searcher.exists(mods[k], w)
                        assert found == (counter.count(mods[k], w) > 0), (k, w, p)
                        answers.add(found)
            assert answers == {True, False}

    def test_exists_equals_count_on_direct_sums(self):
        # the criterion-11 pair and the direct sums of
        # test_class_flag_budget_is_per_query, in both orders
        table = functors.all_root_modules(SPEC_B2)
        cases = [(table.module_of((1, 1)), (0, 3)),
                 (direct_sum_of(table, (1, 1, 0, 0)), (1, 0)),
                 (direct_sum_of(table, (1, 0, 1, 0)), (2, 0))]
        for p in (5, 7):
            (counter, searcher), _ = self.engines(table, p)
            for rational, word in cases:
                module = hmod.reduce_mod_p(rational, p)
                for w in (word, word[::-1]):
                    assert searcher.exists(module, w) == (counter.count(module, w) > 0)

    def test_yes_stops_at_first_flag(self):
        # M(1,2,2) of B3 over F_5, bottom M(1,1,1) then M(0,1,1): count spends
        # 194 units on its 5 flags, the search 39 up to its first one
        table = functors.all_root_modules(hmod.HAlgebraSpec(verify.B3, verify.OM_B3, RATIONALS))
        (counter, searcher), mods = self.engines(table, 5, budget=100)
        module = mods[table.betas.index((1, 2, 2))]
        word = (table.betas.index((1, 1, 1)), table.betas.index((0, 1, 1)))
        assert searcher.exists(module, word) is True
        with pytest.raises(TooLargeError):
            counter.count(module, word)

    def test_abandoned_walk_is_not_memoized(self):
        # M(1,2,2) of B3 over F_5, word M(1,0,0), M(0,1,0), M(0,1,2): at 36
        # units the search completes one dead end and runs out two levels
        # down; the root and the node it ran out in must not be stored as
        # "no", so the same engine answers "yes" once the budget allows
        table = functors.all_root_modules(hmod.HAlgebraSpec(verify.B3, verify.OM_B3, RATIONALS))
        (searcher, _), mods = self.engines(table, 5, budget=36)
        module = mods[table.betas.index((1, 2, 2))]
        word = tuple(table.betas.index(b) for b in ((1, 0, 0), (0, 1, 0), (0, 1, 2)))
        with pytest.raises(TooLargeError):
            searcher.exists(module, word)
        assert list(searcher.exists_memo.values()) == [False]
        searcher.budget = grassmann.DEFAULT_BUDGET
        assert searcher.exists(module, word) is True
        assert searcher.exists_memo[(module.key(), word)] is True


def unimodular_conjugate(M, rng):
    """M after an integral change of basis of determinant 1 at every vertex
    (unit lower times unit upper triangular) that moves some eps out of
    chain form: the integral model reduces mod every prime."""
    field = M.field()
    while True:
        out = hmod.HModule(M.spec, M.dims, M.eps, M.arrows)
        for v, d in enumerate(M.dims):
            lower = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(d)]
                     for i in range(d)]
            upper = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(d)]
                     for i in range(d)]
            hmod.change_vertex_basis(out, v, linalg.mat_mul(field, lower, upper))
        if not hmod.in_chain_form(out):
            return out


class TestNormalForm:
    """Every counting engine normalizes its input at entry: a module whose
    eps is out of chain form gets the answers of its chain form."""

    @pytest.mark.parametrize("datum, pairs, beta", [(B3, [(0, 1), (1, 2)], (1, 2, 2)),
                                                    (G2, [(0, 1)], (2, 3))])
    def test_non_chain_conjugate_answers_as_the_root_module(self, datum, pairs, beta):
        # every nofilt-check decomposition of beta, in both orders, at F_5
        table = root_table(datum, pairs)
        k = table.betas.index(beta)
        m = table.modules[k]
        conj = unimodular_conjugate(m, random.Random(3))
        assert hmod.is_isomorphic(hmod.reduce_mod_p(conj, 5), hmod.reduce_mod_p(m, 5))
        classes = [hmod.reduce_mod_p(x, 5) for x in table.modules]
        counter = grassmann.ClassFlagCounter(classes)
        pbw = grassmann.PBWEngine(table)
        m5, conj5 = hmod.reduce_mod_p(m, 5), hmod.reduce_mod_p(conj, 5)
        words = 0
        for mult in cli._decompositions(table.betas, beta, k):
            increasing = [(j, x) for j, x in enumerate(mult) if x]
            for prescription in (increasing, increasing[::-1]):
                word = tuple(j for j, x in prescription for _ in range(x))
                count = grassmann.ClassFlagCounter(classes).count(m5, word)
                assert counter.count(conj5, word) == count, word
                assert grassmann.ClassFlagCounter(classes).exists(conj5, word) == (count > 0)
                assert pbw.filtration_exists(conj, prescription, primes=(5,)) == \
                    pbw.filtration_exists(m, prescription, primes=(5,)) == {5: count > 0}
                words += 1
        assert words >= 10
        normal, plain = grassmann.EulerEngine(), grassmann.EulerEngine()
        assert normal.f_polynomial(conj) == plain.f_polynomial(m)
        e_words = sorted(set(itertools.permutations([v for v, x in enumerate(beta)
                                                     for _ in range(x)])))
        values = [plain.theta_eval([(1, word)], m) for word in e_words]
        assert [normal.theta_eval([(1, word)], conj) for word in e_words] == values
        assert any(values)

    def test_repeated_theta_eval_normalizes_once(self, monkeypatch):
        # the flag memo is keyed by chain-form reductions, so a repeated
        # query on a non-chain module normalizes only its input
        m = unimodular_conjugate(hmod.random_locally_free(SPEC_B2, (2, 1), 7), random.Random(1))
        engine = grassmann.EulerEngine()
        combo = grassmann.serre_commutator(0, 1, 2)
        assert engine.theta_eval(combo, m) == 0
        normalized = []
        normalize_eps = hmod.normalize_eps
        monkeypatch.setattr(hmod, "normalize_eps",
                            lambda M: normalized.append(M) or normalize_eps(M))
        for calls in (1, 2):
            assert engine.theta_eval(combo, m) == 0
            assert len(normalized) == calls


class TestVertexBudget:
    @pytest.mark.parametrize("datum", [B3, C3], ids=["B3", "C3"])
    def test_spend_and_stream_equal_filtering_oracle(self, datum):
        # every root module, every e, p = 5 and 7: the same count, the same
        # units spent and the same candidates in the same order
        table = root_table(datum, [(0, 1), (1, 2)])
        checked = 0
        for module in table.modules:
            rk = hmod.require_locally_free(module)
            for p in (5, 7):
                mp = hmod.reduce_mod_p(module, p)
                for e in itertools.product(*(range(x + 1) for x in rk)):
                    solved = count_with_spend(grassmann._vertex_candidates, mp, e)
                    oracle = count_with_spend(vertex_candidates_oracle, mp, e)
                    assert solved == oracle, (rk, p, e)
                    checked += solved[1] > 0
        assert checked > 100

    def test_budget_boundary(self):
        # a budget equal to the spend succeeds and one unit less raises,
        # naming the vertex, its rank, e_v, the prime and the candidate count
        module = root_table(B3, [(0, 1), (1, 2)]).module_of((1, 2, 2))
        mp = hmod.reduce_mod_p(module, 5)
        e = (1, 1, 1)
        count, spend, _ = count_with_spend(grassmann._vertex_candidates, mp, e)
        assert count > 0 and spend > 1
        assert grassmann.count_locally_free_submodules(mp, e, budget=spend) == count
        with pytest.raises(TooLargeError) as info:
            grassmann.count_locally_free_submodules(mp, e, budget=spend - 1)
        assert re.fullmatch(
            rf"enumeration budget of {spend - 1} exhausted by the \d+ free rank-\d "
            r"candidates at vertex \d \(rank \d\) over F_5", str(info.value)), str(info.value)


class TestBudgets:
    def test_submodule_budget_is_loud(self):
        from symquiv.errors import TooLargeError
        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (2, 1), 1), 7)
        with pytest.raises(TooLargeError):
            grassmann.count_locally_free_submodules(m, (1, 1), budget=0)

    def test_flag_budget_is_loud(self):
        from symquiv.errors import TooLargeError
        m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (2, 1), 1), 7)
        counter = grassmann.Counter(budget=1)
        with pytest.raises(TooLargeError):
            counter.flag_count(m, (0, 0, 1))

    def test_flag_budget_is_per_query(self):
        # each module needs 32 generators for the word (0, 1, 0); a budget that
        # lasted as long as the counter would run out on the second query
        counter = grassmann.Counter(budget=32)
        for seed in (1, 2):
            m = hmod.reduce_mod_p(hmod.random_locally_free(SPEC_B2, (2, 1), seed), 5)
            assert counter.flag_count(m, (0, 1, 0)) == 1

    def test_class_flag_budget_is_per_query(self):
        # 32 candidates per query at p = 5: M(beta_2) + M(beta_1) filtered
        # bottom-first by M(beta_2), M(beta_1), and likewise for beta_3
        table = functors.all_root_modules(SPEC_B2)
        engine = grassmann.PBWEngine(table, budget=32)
        for m, prescription in (((1, 1, 0, 0), [(1, 1), (0, 1)]),
                                ((1, 0, 1, 0), [(2, 1), (0, 1)])):
            module = direct_sum_of(table, m)
            assert engine.filtration_exists(module, prescription, primes=(5,)) == {5: True}

    def test_wrong_weight_is_zero_before_enumeration(self):
        # both engines cut a word whose factors do not add up to the module's
        # rank at query entry, so a budget of one candidate is never touched
        spec5 = SPEC_B2.with_field(prime_field_spec(5))
        table = functors.all_root_modules(spec5)
        engine = grassmann.ClassFlagCounter(table.modules, budget=1)
        m = table.module_of((1, 1))
        assert engine.count(m, (table.betas.index((1, 0)),)) == 0
        assert grassmann.Counter(budget=1).flag_count(m, (0,)) == 0


class TestInterpolation:
    def test_rejects_non_polynomial(self):
        calls = {"n": 0}

        def weird(p):
            calls["n"] += 1
            return 2 ** p  # not polynomial in p

        with pytest.raises(InterpolationError):
            grassmann.interpolate_counts(weird, 3)

    def test_held_out_prime_recorded(self):
        poly = grassmann.interpolate_counts(lambda p: p * p + p, 2)
        assert poly.value_at_one() == 2
        assert poly.held_out[0] not in [s[0] for s in poly.samples]
        assert poly.coefficients == (0, 1, 1)

    def test_integer_fit_equals_fraction_oracle(self):
        rng = random.Random(7)
        cases = [[(5, 12)], [(5, 0)], [(5, 3), (7, 3), (11, 3)]]
        # q^2 + q over five primes: the zero leading coefficients are stripped
        cases.append([(p, p * p + p) for p in (5, 7, 11, 13, 17)])
        # (q^2 + q) / 2 takes integer values but is not an integer polynomial
        cases.append([(p, (p * p + p) // 2) for p in (5, 7, 11)])
        for _ in range(300):
            xs = rng.sample(grassmann.PRIME_POOL, rng.randint(1, 8))
            if rng.random() < 0.5:
                poly = [rng.randint(-40, 40) for _ in range(rng.randint(1, len(xs)))]
                cases.append([(x, linalg.poly_eval(poly, x)) for x in xs])
            else:
                cases.append([(x, rng.randint(-10 ** 6, 10 ** 6)) for x in xs])
        results = [linalg.lagrange_interpolate(points) for points in cases]
        assert results == [lagrange_oracle(points) for points in cases]
        assert results[:5] == [[12], [0], [3], [0, 1, 1], None]
        assert any(r is None for r in results[5:]) and sum(r is not None for r in results) > 150
