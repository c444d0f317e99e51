"""Brute-force oracles for the counting engines.

These tests recount small varieties by enumerating *all* subspace tuples of
the relevant dimensions over a tiny prime field, with no canonical forms, no
closed formulas and no grouping, and compare against the production paths.
"""

import itertools

from symquiv import cartan, grassmann, hmod, linalg, pimod
from symquiv.fields import PrimeField, prime_field_spec

B2 = cartan.validate_datum([[2, -1], [-2, 2]], [2, 1])
B2_OMEGA = cartan.validate_orientation(B2, [(0, 1)])


def all_subspaces(field, dim, k):
    """Every k-dimensional subspace of F^dim as an RREF row basis."""
    if k == 0:
        yield []
        return
    p = field.p
    seen = set()
    for vecs in itertools.product(itertools.product(range(p), repeat=dim), repeat=k):
        rows = [list(v) for v in vecs]
        basis = linalg.row_space(field, rows)
        if len(basis) != k:
            continue
        key = tuple(tuple(r) for r in basis)
        if key in seen:
            continue
        seen.add(key)
        yield [list(r) for r in basis]


def is_stable(field, mat, sub_src, sub_tgt_rref):
    for vec in sub_src:
        img = linalg.mat_vec(field, mat, vec)
        if not linalg.in_span(field, sub_tgt_rref, img):
            return False
    return True


def is_free_restriction(field, eps, basis, c):
    """The span of basis is a free module over K[eps]/(eps^c)."""
    if not basis:
        return True
    if len(basis) % c != 0:
        return False
    r = len(basis) // c
    span = linalg.row_space(field, basis)
    for vec in basis:
        if not linalg.in_span(field, span, linalg.mat_vec(field, eps, vec)):
            return False  # not even eps-stable
    power = linalg.identity(field, len(eps))
    for t in range(1, c + 1):
        power = linalg.mat_mul(field, eps, power)
        imgs = [linalg.mat_vec(field, power, b) for b in basis]
        if linalg.rank(field, imgs) != (c - t) * r:
            return False
    return True


def brute_count_submodules(M, e):
    """Naive count: all subspace tuples, then stability and freeness."""
    field = M.field()
    datum = M.spec.datum
    n = datum.n
    spaces = []
    for v in range(n):
        spaces.append(list(all_subspaces(field, M.dims[v], datum.D[v] * e[v])))
    total = 0
    for combo in itertools.product(*spaces):
        ok = True
        for v in range(n):
            if not is_free_restriction(field, M.eps[v], combo[v], datum.D[v]):
                ok = False
                break
        if not ok:
            continue
        rrefs = [linalg.row_space(field, combo[v]) if combo[v] else [] for v in range(n)]
        for key, A in M.arrows.items():
            (i, j, _) = key
            if M.dims[j] == 0:
                continue
            if combo[j] and not is_stable(field, A, combo[j], rrefs[i]):
                ok = False
                break
            if combo[j] and not combo[i] and any(
                    any(x != field.zero for x in linalg.mat_vec(field, A, vec))
                    for vec in combo[j]):
                ok = False
                break
        if ok:
            total += 1
    return total


class TestGrassmannianBruteForce:
    def test_h_module_all_ranks(self):
        spec = hmod.HAlgebraSpec(B2, B2_OMEGA, prime_field_spec(3))
        m = hmod.random_locally_free(spec, (1, 1), 5)
        for e in itertools.product(range(2), repeat=2):
            fast = grassmann.count_locally_free_submodules(m, e)
            slow = brute_count_submodules(m, e)
            assert fast == slow, f"e={e}: fast {fast} != brute {slow}"

    def test_pi_module_double_quiver(self):
        # a rank (1,1) module with both arrow directions nonzero
        spec = hmod.HAlgebraSpec(B2, B2_OMEGA, prime_field_spec(3))
        field = spec.field()
        m = pimod.PiModule(spec, (2, 1),
                           [hmod.free_eps(field, 2, 1), [[0]]],
                           {(0, 1, 0): [[0], [1]], (1, 0, 0): [[1, 0]]})
        assert pimod.check_pi_relations(m) == []
        for e in itertools.product(range(2), repeat=2):
            fast = grassmann.count_locally_free_submodules(m, e)
            slow = brute_count_submodules(m, e)
            assert fast == slow, f"e={e}: fast {fast} != brute {slow}"

    def test_rank_two_vertex(self):
        spec = hmod.HAlgebraSpec(B2, B2_OMEGA, prime_field_spec(2))
        m = hmod.random_locally_free(spec, (2, 1), 9)
        for e in [(1, 0), (1, 1), (2, 1)]:
            fast = grassmann.count_locally_free_submodules(m, e)
            slow = brute_count_submodules(m, e)
            assert fast == slow, f"e={e}: fast {fast} != brute {slow}"


def brute_flag_count(M, word):
    """Naive flag recursion: enumerate all submodules isomorphic to the
    generalized simple of the first letter by raw subspace enumeration."""
    field = M.field()
    datum = M.spec.datum
    if not word:
        return 1 if M.total_dim() == 0 else 0
    j = word[0]
    c = datum.D[j]
    total = 0
    n = datum.n
    for sub in all_subspaces(field, M.dims[j], c):
        if not is_free_restriction(field, M.eps[j], sub, c):
            continue
        rref = linalg.row_space(field, sub)
        ok = True
        for key, A in M.arrows.items():
            (i, src, _) = key
            if src == j and M.dims[i] >= 0:
                for vec in sub:
                    img = linalg.mat_vec(field, A, vec)
                    if any(x != field.zero for x in img):
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            continue
        subspaces = [sub if v == j else [] for v in range(n)]
        quotient = hmod.quotient_by_subspaces(M, subspaces)
        total += brute_flag_count(quotient, word[1:])
    return total


class TestFlagBruteForce:
    def test_h_flags(self):
        # the E-letter engine and the class engine with classes (E_1, E_2)
        # run the same flag recursion; both must match the brute force
        spec = hmod.HAlgebraSpec(B2, B2_OMEGA, prime_field_spec(3))
        m = hmod.random_locally_free(spec, (2, 1), 3)
        counter = grassmann.Counter()
        simples = [hmod.generalized_simple(spec, i) for i in range(2)]
        class_counter = grassmann.ClassFlagCounter(simples)
        for word in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            fast = counter.flag_count(m, word)
            by_class = class_counter.count(m, word)
            slow = brute_flag_count(m, word)
            assert fast == by_class == slow, \
                f"word={word}: fast {fast}, by class {by_class}, brute {slow}"

    def test_pi_flags(self):
        spec = hmod.HAlgebraSpec(B2, B2_OMEGA, prime_field_spec(3))
        m = pimod.random_E_filtered(spec, (0, 1, 0), 11)
        counter = grassmann.Counter()
        for word in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            fast = counter.flag_count(m, word)
            slow = brute_flag_count(m, word)
            assert fast == slow, f"word={word}: fast {fast} != brute {slow}"


class TestPiExtAgainstFormulaG2:
    def test_g2_simples(self):
        G2 = cartan.validate_datum([[2, -1], [-3, 2]], [3, 1])
        om = cartan.validate_orientation(G2, [(0, 1)])
        spec = hmod.HAlgebraSpec(G2, om, prime_field_spec(5))
        e1 = pimod.pi_simple(spec, 0)
        e2 = pimod.pi_simple(spec, 1)
        # 0 + 0 - (alpha_1, alpha_2) = 3; endomorphism ring kills self-extensions
        assert pimod.ext1_pi(e1, e2) == 3
        assert pimod.ext1_pi(e2, e1) == 3
        assert pimod.ext1_pi(e1, e1) == 0
        assert pimod.ext1_pi(e2, e2) == 0
