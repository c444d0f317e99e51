import itertools
import random
from fractions import Fraction

import pytest

from symquiv import cartan, functors, hmod, linalg, pimod, verify
from symquiv.errors import InternalMismatchError, NotNilpotentError, SpecMismatchError
from symquiv.fields import RATIONALS, prime_field_spec

B2 = cartan.validate_datum([[2, -1], [-2, 2]], [2, 1])
B2_OMEGA = cartan.validate_orientation(B2, [(0, 1)])
G2 = cartan.validate_datum([[2, -1], [-3, 2]], [3, 1])
G2_OMEGA = cartan.validate_orientation(G2, [(0, 1)])
B2_DOUBLED = cartan.validate_datum([[2, -1], [-2, 2]], [4, 2])


def spec_b2(fieldspec=RATIONALS):
    return hmod.HAlgebraSpec(B2, B2_OMEGA, fieldspec)


def spec_g2(fieldspec=RATIONALS):
    return hmod.HAlgebraSpec(G2, G2_OMEGA, fieldspec)


def h_linear_conjugate(M, rng):
    """M after a random unimodular H-linear change of basis at every vertex
    (eps stays canonical): an isomorphic module, integral if M is."""
    field = M.field()
    out = hmod.HModule(M.spec, M.dims, M.eps, M.arrows)
    for v in range(M.spec.datum.n):
        c, d = M.spec.datum.D[v], M.dims[v]
        g = linalg.identity(field, d)
        # block upper triangular, each block a polynomial in the chain shift,
        # unipotent on the diagonal: commutes with eps and has determinant 1
        for bi in range(d // c):
            for bj in range(bi, d // c):
                for shift in range(1 if bi == bj else 0, c):
                    coeff = field.from_int(rng.randint(-2, 2))
                    for a in range(c - shift):
                        r, col = bi * c + a + shift, bj * c + a
                        g[r][col] = field.add(g[r][col], coeff)
        if d:
            hmod.change_vertex_basis(out, v, g)
    return out


def generic_conjugate(M, rng):
    """M after a random invertible change of basis at every vertex that need
    not commute with eps, so eps leaves chain form."""
    field = M.field()
    out = hmod.HModule(M.spec, M.dims, M.eps, M.arrows)
    for v in range(M.spec.datum.n):
        d = M.dims[v]
        if d == 0:
            continue
        cols = None
        while cols is None or linalg.inverse(field, cols) is None:
            cols = [[field.from_int(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        hmod.change_vertex_basis(out, v, cols)
    return out


def brute_force_isomorphic(M, N):
    """Whether some coefficient vector over F_p makes the combination of the
    Hom(M, N) basis invertible at every vertex; every vector is tried."""
    field = M.field()
    basis = hmod.hom_basis(M, N)
    for coeffs in itertools.product(field.elements(), repeat=len(basis)):
        maps = [linalg.zeros(field, N.dims[v], M.dims[v]) for v in range(len(M.dims))]
        for coeff, f in zip(coeffs, basis):
            maps = [linalg.mat_add(field, m, [[field.mul(coeff, x) for x in row] for row in fv])
                    for m, fv in zip(maps, f)]
        if all(linalg.inverse(field, m) is not None for m in maps if m):
            return True
    return False


def projected_quotient_oracle(M, subspaces):
    """M / U reduced one column at a time: each column of a structure matrix
    is reduced against the RREF basis of U with field.sub and field.mul and
    read at the non-pivot coordinates."""
    field = M.field()
    n = M.spec.datum.n
    proj = []
    for v in range(n):
        rows = linalg.row_space(field, subspaces[v]) if subspaces[v] else []
        pivots = [next(c for c, x in enumerate(row) if x != field.zero) for row in rows]
        proj.append((rows, pivots, [c for c in range(M.dims[v]) if c not in pivots]))

    def project(v, vec):
        rows, pivots, free = proj[v]
        for row, pc in zip(rows, pivots):
            f = vec[pc]
            vec = [field.sub(x, field.mul(f, y)) for x, y in zip(vec, row)]
        return [vec[c] for c in free]

    def image(i, j, mat):
        cols = [project(i, [row[c] for row in mat]) for c in proj[j][2]]
        return [[col[r] for col in cols] for r in range(len(proj[i][2]))]

    eps = [image(v, v, M.eps[v]) for v in range(n)]
    arrows = {key: image(key[0], key[1], A) for key, A in M.arrows.items()}
    dims = [len(proj[v][2]) for v in range(n)]
    return hmod.normalize_eps(hmod.HModule(M.spec, dims, eps, arrows))


def dense_hom_dim(M, N):
    """dim Hom(M, N) from a dense system with no vertex bases: every entry of
    every f_v is an unknown, and the equations are f_v eps^M_v = eps^N_v f_v
    at every vertex and f_i A^M = A^N f_j for every arrow (i, j)."""
    field = M.field()
    n = len(M.dims)

    def difference(a, b, c, d, rows, inner_ab, inner_cd, cols):
        """Entries of a b - c d, multiplied out entry by entry."""
        out = []
        for r in range(rows):
            for q in range(cols):
                x = field.zero
                for k in range(inner_ab):
                    x = field.add(x, field.mul(a[r][k], b[k][q]))
                for k in range(inner_cd):
                    x = field.sub(x, field.mul(c[r][k], d[k][q]))
                out.append(x)
        return out

    unknowns = [(v, p, q) for v in range(n) for p in range(N.dims[v]) for q in range(M.dims[v])]
    columns = []
    for (v, p, q) in unknowns:
        f = [linalg.zeros(field, N.dims[w], M.dims[w]) for w in range(n)]
        f[v][p][q] = field.one
        col = []
        for w in range(n):
            col += difference(f[w], M.eps[w], N.eps[w], f[w],
                              N.dims[w], M.dims[w], N.dims[w], M.dims[w])
        for key in sorted(M.arrows):
            (i, j, _) = key
            col += difference(f[i], M.arrows[key], N.arrows[key], f[j],
                              N.dims[i], M.dims[i], N.dims[j], M.dims[j])
        columns.append(col)
    if not columns or not columns[0]:
        return len(unknowns)
    return len(unknowns) - linalg.rank(field, columns)


class TestGeneralizedSimple:
    def test_e1_shape(self):
        e1 = hmod.generalized_simple(spec_b2(), 0)
        assert e1.dims == (2, 0)
        assert e1.eps[0] == [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]

    def test_e2_shape(self):
        e2 = hmod.generalized_simple(spec_b2(), 1)
        assert e2.dims == (0, 1)
        assert e2.eps[1] == [[Fraction(0)]]

    def test_total_dim_is_weight(self):
        for spec in (spec_b2(), spec_g2()):
            for i in range(2):
                ei = hmod.generalized_simple(spec, i)
                assert ei.total_dim() == spec.datum.D[i]
                assert hmod.is_locally_free(ei) == tuple(
                    1 if t == i else 0 for t in range(2))


class TestRelations:
    def test_simples_pass(self):
        for i in range(2):
            assert hmod.check_relations(hmod.generalized_simple(spec_b2(), i)) == []

    def test_identity_eps_fails(self):
        e1 = hmod.generalized_simple(spec_b2(), 0)
        e1.eps[0] = linalg.identity(e1.field(), 2)
        violations = hmod.check_relations(e1)
        assert violations and "eps_1^2" in violations[0]

    def test_random_modules_pass(self):
        for seed in range(5):
            m = hmod.random_locally_free(spec_b2(), (2, 1), seed)
            assert hmod.check_relations(m) == []

    def test_doubled_symmetrizer_relation_nontrivial(self):
        # with D=(4,2) the commutation eps_1^2 A = A eps_2 genuinely constrains
        spec = hmod.HAlgebraSpec(B2_DOUBLED, B2_OMEGA, RATIONALS)
        m = hmod.random_locally_free(spec, (1, 1), 3)
        assert hmod.check_relations(m) == []
        assert hmod.arrow_solution_dimension(spec, (1, 1)) == 4


class TestLocallyFree:
    def test_simple(self):
        assert hmod.is_locally_free(hmod.generalized_simple(spec_b2(), 0)) == (1, 0)

    def test_one_dim_at_heavy_vertex(self):
        spec = spec_b2()
        field = spec.field()
        m = hmod.HModule(spec, (1, 0), [[[field.zero]], []],
                         {k: linalg.zeros(field, 1 if k[0] == 0 else 0, 0)
                          for k in spec.arrow_keys()})
        assert hmod.is_locally_free(m) is None

    def test_direct_sum_adds_ranks(self):
        e1 = hmod.generalized_simple(spec_b2(), 0)
        s = hmod.direct_sum(e1, e1)
        assert hmod.is_locally_free(s) == (2, 0)

    def test_direct_sum_dims_and_zero_summand(self):
        spec = spec_b2()
        e1 = hmod.generalized_simple(spec, 0)
        e2 = hmod.generalized_simple(spec, 1)
        assert hmod.direct_sum(e1, e2).dims == (2, 1)
        m = hmod.random_locally_free(spec, (1, 1), 6)
        assert hmod.is_isomorphic(hmod.direct_sum(m, hmod.zero_module(spec)), m)

    def test_jordan_detector_vs_brute_force(self):
        # brute force: a nilpotent is "free of rank d/c" iff some basis makes it
        # the canonical rectangular form; compare against random conjugates
        rng = random.Random(1)
        spec = spec_b2()
        field = spec.field()
        for _ in range(10):
            m = hmod.random_locally_free(spec, (2, 1), rng.randrange(100))
            cols = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            while linalg.inverse(field, cols) is None:
                cols = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            hmod.change_vertex_basis(m, 0, cols)
            assert hmod.is_locally_free(m) == (2, 1)
            # independent decomposition oracle: a Jordan basis must realize the
            # rectangular block type exactly
            basis = hmod.jordan_basis(field, m.eps[0])
            inv = linalg.inverse(field, basis)
            conj = linalg.mat_mul(field, inv, linalg.mat_mul(field, m.eps[0], basis))
            assert hmod.read_jordan_blocks(field, conj) == [2, 2]

    def test_locally_free_rejects_mixed_jordan_type(self):
        spec = spec_b2()
        field = spec.field()
        # eps of type (2,1,1) at vertex 1 has dim 4 but is not free over H_1
        eps0 = hmod.jordan_nilpotent(field, [2, 1, 1])
        m = hmod.HModule(spec, (4, 0), [eps0, []],
                         {k: linalg.zeros(field, 4 if k[0] == 0 else 0,
                                          4 if k[1] == 0 else 0)
                          for k in spec.arrow_keys()})
        assert hmod.check_relations(m) == []
        assert hmod.is_locally_free(m) is None
        assert hmod.eps_partition(m, 0) == (2, 1, 1)

    @staticmethod
    def rank_path(M):
        """Oracle: the rank vector by the ranks of the eps powers at every
        vertex, with no chain-form reading."""
        field, datum = M.field(), M.spec.datum
        ranks = []
        for v, c in enumerate(datum.D):
            d = M.dims[v]
            if d % c:
                return None
            power = linalg.identity(field, d)
            for t in range(1, c + 1):
                power = linalg.mat_mul(field, power, M.eps[v])
                if linalg.rank(field, power) != (c - t) * (d // c):
                    return None
            ranks.append(d // c)
        return tuple(ranks)

    def test_chain_form_reading_equals_rank_path(self, monkeypatch):
        # random locally free modules over Q and F_5, in chain form and
        # conjugated out of it, and chain-form modules of mixed Jordan type
        # (not free), also conjugated: the same answer as the rank path
        rng = random.Random(5)
        modules = []
        for spec, r in ((spec_b2(), (2, 1)), (spec_b2(), (1, 2)), (spec_g2(), (2, 3)),
                        (spec_g2(), (1, 1)), (hmod.HAlgebraSpec(B3, B3_OMEGA, RATIONALS), (1, 2, 2))):
            for seed in range(3):
                m = hmod.random_locally_free(spec, r, seed)
                modules.append((m, r))
                modules.append((hmod.reduce_mod_p(m, 5), r))
        for blocks in ([2, 1, 1], [3, 1], [1, 1], [2, 2, 1, 1]):
            for fieldspec in (RATIONALS, prime_field_spec(5)):
                spec = spec_b2(fieldspec)
                field, d = spec.field(), sum(blocks)
                m = hmod.HModule(spec, (d, 0), [hmod.jordan_nilpotent(field, blocks), []],
                                 {k: linalg.zeros(field, d if k[0] == 0 else 0, d if k[1] == 0 else 0)
                                  for k in spec.arrow_keys()})
                modules.append((m, None))
        ranks_taken = []
        rank = linalg.rank

        def counted_rank(field, a):
            ranks_taken.append(1)
            return rank(field, a)

        monkeypatch.setattr(linalg, "rank", counted_rank)
        for m, expected in modules:
            ranks_taken.clear()
            assert hmod.is_locally_free(m) == expected
            # a free chain-form module is read off its eps, with no rank
            assert not ranks_taken or expected is None
            assert self.rank_path(m) == expected
            conjugate = generic_conjugate(m, rng)
            moved = [eps for eps in conjugate.eps if any(any(row) for row in eps)]
            assert not moved or any(hmod.read_jordan_blocks(conjugate.field(), eps) is None
                                    for eps in moved)
            assert hmod.is_locally_free(conjugate) == self.rank_path(conjugate) == expected

    def test_chain_form(self):
        # a module already in canonical chain form is returned as it is; one
        # conjugated out of it comes back as a chain-form copy with the same
        # Jordan types, the input untouched; a module that is not locally
        # free has no chain form, whether its eps is in chain form or not
        rng = random.Random(7)
        for spec, r in ((spec_b2(), (2, 1)), (spec_g2(prime_field_spec(5)), (2, 1))):
            m = hmod.random_locally_free(spec, r, 3)
            assert hmod.in_chain_form(m) and hmod.chain_form(m) is m
            conjugate = generic_conjugate(m, rng)
            assert not hmod.in_chain_form(conjugate)
            before = conjugate.key()
            normal = hmod.chain_form(conjugate)
            assert conjugate.key() == before and hmod.in_chain_form(normal)
            assert normal.dims == m.dims and hmod.is_locally_free(normal) == r
            assert hmod.is_isomorphic(normal, m)
        for blocks in ([2, 1, 1], [1, 1]):
            spec = spec_b2()
            field, d = spec.field(), sum(blocks)
            mixed = hmod.HModule(spec, (d, 0), [hmod.jordan_nilpotent(field, blocks), []],
                                 {k: linalg.zeros(field, d if k[0] == 0 else 0, d if k[1] == 0 else 0)
                                  for k in spec.arrow_keys()})
            assert not hmod.in_chain_form(mixed)
            assert hmod.chain_form(mixed) is None
            assert hmod.chain_form(generic_conjugate(mixed, rng)) is None

    def test_non_nilpotent_eps_raises(self):
        # eps_0 = 1 + (a nilpotent): no power of it vanishes, and both
        # Jordan routines used to loop for ever on it
        spec = spec_b2(prime_field_spec(5))
        field = spec.field()
        eps0 = [[1, 1], [0, 1]]
        m = hmod.HModule(spec, (2, 0), [eps0, []],
                         {k: linalg.zeros(field, 2 if k[0] == 0 else 0, 2 if k[1] == 0 else 0)
                          for k in spec.arrow_keys()})
        with pytest.raises(NotNilpotentError, match="not nilpotent"):
            hmod.jordan_basis(field, eps0)
        with pytest.raises(NotNilpotentError, match="not nilpotent"):
            hmod.eps_partition(m, 0)
        with pytest.raises(NotNilpotentError, match="not nilpotent"):
            hmod.normalize_eps(m)
        # a module with such an eps has no chain form: it is not locally free
        assert hmod.chain_form(m) is None and hmod.is_locally_free(m) is None
        # nilpotent of full index d: stops exactly at eps^d = 0
        assert hmod.eps_partition(hmod.generalized_simple(spec, 0), 0) == (2,)


class TestRandomLocallyFree:
    def test_zero_rank(self):
        m = hmod.random_locally_free(spec_b2(), (0, 0), 0)
        assert m.total_dim() == 0

    def test_solution_space_dimension_b2(self):
        # dim H(r) at r=(1,1): sum c_i r_i^2 - (r,r)/2 = 3 - 1 = 2
        assert hmod.arrow_solution_dimension(spec_b2(), (1, 1)) == 2

    def test_seed_determinism(self):
        a = hmod.random_locally_free(spec_b2(), (2, 2), 42)
        b = hmod.random_locally_free(spec_b2(), (2, 2), 42)
        assert a.key() == b.key()

    def test_dimension_formula_small_ranks(self):
        for datum, omega in ((B2, B2_OMEGA), (G2, G2_OMEGA)):
            spec = hmod.HAlgebraSpec(datum, omega, RATIONALS)
            for r1 in range(3):
                for r2 in range(3):
                    r = (r1, r2)
                    measured = hmod.arrow_solution_dimension(spec, r)
                    expected = sum(datum.D[i] * r[i] ** 2 for i in range(2)) - \
                        cartan.symmetric_form(datum, r, r) // 2
                    assert measured == expected


class TestHom:
    def test_end_e1_is_h1(self):
        e1 = hmod.generalized_simple(spec_b2(), 0)
        assert hmod.hom_dim(e1, e1) == 2

    def test_disjoint_support(self):
        e1 = hmod.generalized_simple(spec_b2(), 0)
        e2 = hmod.generalized_simple(spec_b2(), 1)
        assert hmod.hom_dim(e1, e2) == 0

    def test_hom_e1_to_root_module_11(self):
        # the rank (1,1) module with primitive arrow vector is He_2
        he2 = hmod.projective_module(spec_b2(), 1)
        e1 = hmod.generalized_simple(spec_b2(), 0)
        assert hmod.hom_dim(e1, he2) == 2  # equals <beta_1, beta_2>

    def test_basis_elements_intertwine(self):
        rng = random.Random(9)
        spec = spec_b2()
        for _ in range(5):
            m = hmod.random_locally_free(spec, (1, 1), rng.randrange(10 ** 6))
            n = hmod.random_locally_free(spec, (2, 1), rng.randrange(10 ** 6))
            hb = hmod.hom_basis(m, n)
            field = spec.field()
            for f in hb:
                for v in range(2):
                    lhs = linalg.mat_mul(field, f[v], m.eps[v])
                    rhs = linalg.mat_mul(field, n.eps[v], f[v])
                    assert lhs == rhs
                for key in m.arrows:
                    (i, j, _) = key
                    lhs = linalg.mat_mul(field, f[i], m.arrows[key])
                    rhs = linalg.mat_mul(field, n.arrows[key], f[j])
                    assert lhs == rhs

    def test_sparse_assembly_against_dense_oracles(self):
        # the sparse Hom system against a dense system over every matrix entry
        # and mat_mul checks of every basis tuple: over Q and F_7, on canonical
        # eps and on eps moved out of chain form (sparse entries with values),
        # with the arrow in both directions, and on Pi-modules, whose arrows
        # run both ways at once
        rng = random.Random(4)
        pairs = []
        for fieldspec in (RATIONALS, prime_field_spec(7)):
            for datum, edge in ((B2, (0, 1)), (B2, (1, 0)), (G2, (0, 1)), (G2, (1, 0))):
                omega = cartan.validate_orientation(datum, [edge])
                spec = hmod.HAlgebraSpec(datum, omega, fieldspec)
                for _ in range(3):
                    rm = (rng.randint(0, 2), rng.randint(1, 2))
                    rn = (rng.randint(0, 2), rng.randint(1, 2))
                    m = hmod.random_locally_free(spec, rm, rng.randrange(10 ** 6))
                    n = hmod.random_locally_free(spec, rn, rng.randrange(10 ** 6))
                    euler = cartan.euler_form(datum, omega, rm, rn)
                    pairs.append((m, n, euler))
                    pairs.append((generic_conjugate(m, rng), generic_conjugate(n, rng), euler))
        for datum, omega, seqs in ((B2, B2_OMEGA, [(0, 1), (1, 0), (0, 1, 0)]),
                                   (G2, G2_OMEGA, [(0, 1), (1, 0), (1, 0, 1)])):
            spec = hmod.HAlgebraSpec(datum, omega, prime_field_spec(7))
            for _ in range(2):
                m = pimod.random_E_filtered(spec, rng.choice(seqs), rng.randrange(10 ** 6))
                n = pimod.random_E_filtered(spec, rng.choice(seqs), rng.randrange(10 ** 6))
                pairs.append((m, n, None))
                pairs.append((generic_conjugate(m, rng), generic_conjugate(n, rng), None))
        reversed_arrows = 0
        for mm, nn, euler in pairs:
            field = mm.field()
            hb = hmod.hom_basis(mm, nn)
            for f in hb:
                for v in range(2):
                    if mm.dims[v] and nn.dims[v]:
                        assert (linalg.mat_mul(field, f[v], mm.eps[v])
                                == linalg.mat_mul(field, nn.eps[v], f[v]))
                for key in mm.arrows:
                    (i, j, _) = key
                    if nn.dims[i] and mm.dims[j]:
                        assert (linalg.mat_mul(field, f[i], mm.arrows[key])
                                == linalg.mat_mul(field, nn.arrows[key], f[j]))
            flat = [[x for fv in f for row in fv for x in row] for f in hb]
            assert linalg.rank(field, flat) == len(hb)
            assert dense_hom_dim(mm, nn) == len(hb)
            if euler is None:
                reversed_arrows += any(x != field.zero for key in mm.arrows
                                       if key not in mm.spec.arrow_keys()
                                       for row in mm.arrows[key] for x in row)
            else:
                assert len(hb) - hmod.ext1_dim(mm, nn) == euler
        assert len(pairs) == 56
        assert reversed_arrows >= 4

    def test_field_independence_of_dims(self):
        for p in (5, 7, 11):
            spec_q = spec_b2()
            spec_p = spec_b2(prime_field_spec(p))
            mq = hmod.random_locally_free(spec_q, (1, 1), 17)
            nq = hmod.random_locally_free(spec_q, (2, 1), 23)
            mp = hmod.reduce_mod_p(mq, p)
            np_ = hmod.reduce_mod_p(nq, p)
            assert mp.spec == spec_p
            assert hmod.hom_dim(mq, nq) == hmod.hom_dim(mp, np_)


class TestExt:
    def test_simples_rigid(self):
        for spec in (spec_b2(), spec_g2()):
            for i in range(2):
                ei = hmod.generalized_simple(spec, i)
                assert hmod.ext1_dim(ei, ei) == 0

    def test_projectives_have_no_ext(self):
        spec = spec_b2()
        for i in range(2):
            p = hmod.projective_module(spec, i)
            for seed in range(3):
                n = hmod.random_locally_free(spec, (1, 2), seed)
                assert hmod.ext1_dim(p, n) == 0

    def test_euler_form_identity_random(self):
        rng = random.Random(31)
        for datum, omega in ((B2, B2_OMEGA), (G2, G2_OMEGA)):
            spec = hmod.HAlgebraSpec(datum, omega, prime_field_spec(7))
            for _ in range(20):
                rm = (rng.randint(0, 2), rng.randint(0, 2))
                rn = (rng.randint(0, 2), rng.randint(0, 2))
                m = hmod.random_locally_free(spec, rm, rng.randrange(10 ** 6))
                n = hmod.random_locally_free(spec, rn, rng.randrange(10 ** 6))
                h, e, euler = hmod.euler_pairing_check(m, n)
                assert h - e == euler

    def test_one_hom_reduction_per_pair(self, monkeypatch):
        # euler_pairing_check (and homext_table through it) reads dim Hom
        # and dim Ext^1 off one Hom system per ordered pair, and agrees with
        # hom_dim and ext1_dim read separately
        rng = random.Random(5)
        spec = spec_g2(prime_field_spec(7))
        pairs = [tuple(hmod.random_locally_free(spec, (rng.randint(0, 2), rng.randint(0, 2)),
                                                rng.randrange(10 ** 6)) for _ in range(2))
                 for _ in range(10)]
        table = functors.all_root_modules(spec_b2())
        expected = [(hmod.hom_dim(m, n), hmod.ext1_dim(m, n)) for m, n in pairs]
        built = []
        system = hmod._hom_system
        monkeypatch.setattr(hmod, "_hom_system", lambda M, N: built.append(1) or system(M, N))
        for (m, n), dims in zip(pairs, expected):
            del built[:]
            assert hmod.euler_pairing_check(m, n)[:2] == dims
            assert len(built) == 1
        del built[:]
        functors.homext_table(table)
        assert len(built) == len(table.modules) ** 2


class TestIso:
    def test_self(self):
        m = hmod.random_locally_free(spec_b2(), (1, 1), 5)
        assert hmod.is_isomorphic(m, m)

    def test_dims_differ(self):
        e1 = hmod.generalized_simple(spec_b2(), 0)
        assert not hmod.is_isomorphic(e1, hmod.direct_sum(e1, e1))

    def test_rigid_rank_determines_class(self):
        # two generic (rigid) samples of rank (1,1) are isomorphic
        spec = spec_b2(prime_field_spec(7))
        pairs = []
        for seed in range(8):
            m = hmod.random_locally_free(spec, (1, 1), seed)
            if hmod.ext1_dim(m, m) == 0:
                pairs.append(m)
        assert len(pairs) >= 2
        for m in pairs[1:]:
            assert hmod.is_isomorphic(pairs[0], m)

    def test_distinguishes_split_from_nonsplit(self):
        spec = spec_b2(prime_field_spec(7))
        field = spec.field()
        e1 = hmod.generalized_simple(spec, 0)
        e2 = hmod.generalized_simple(spec, 1)
        split = hmod.direct_sum(e1, e2)
        nonsplit = hmod.HModule(spec, (2, 1), [hmod.free_eps(field, 2, 1), [[0]]],
                                {(0, 1, 0): [[1], [0]]})
        assert hmod.check_relations(nonsplit) == []
        assert not hmod.is_isomorphic(split, nonsplit)


    def test_inconclusive_over_q_is_unknown(self):
        # no random element tried: over Q that is "unknown", not "distinct";
        # over F_5 the exhaustive search proves the isomorphism
        m = hmod.random_locally_free(spec_b2(), (2, 1), 7)
        n = h_linear_conjugate(m, random.Random(3))
        assert n.key() != m.key()
        with pytest.raises(InternalMismatchError):
            hmod.is_isomorphic(m, n, tries=0)
        assert hmod.is_isomorphic(hmod.reduce_mod_p(m, 5), hmod.reduce_mod_p(n, 5), tries=0)

    def test_prove_first_against_brute_force(self):
        rng = random.Random(11)
        outcomes = set()
        for p, ranks in ((3, ((1, 1), (2, 1), (1, 2), (2, 2))), (5, ((1, 1), (1, 2), (2, 2)))):
            spec = spec_b2(prime_field_spec(p))
            for r in ranks:
                for seed in range(3):
                    m = hmod.random_locally_free(spec, r, seed)
                    for n in (h_linear_conjugate(m, rng),
                              hmod.random_locally_free(spec, r, 100 + seed)):
                        expected = brute_force_isomorphic(m, n)
                        assert hmod.is_isomorphic(m, n) == expected, (p, r, seed)
                        outcomes.add(expected)
        assert outcomes == {True, False}

    def test_proved_isomorphism_needs_one_hom_basis(self, monkeypatch):
        # the first random element of Hom(m, n) is invertible for this pair,
        # so no refuting invariant (hom_dim) is computed
        spec = spec_b2(prime_field_spec(5))
        m = hmod.random_locally_free(spec, (2, 1), 3)
        n = h_linear_conjugate(m, random.Random(5))
        calls = []
        hom_basis = hmod.hom_basis

        def counting(A, B):
            calls.append((A, B))
            return hom_basis(A, B)

        monkeypatch.setattr(hmod, "hom_basis", counting)
        assert hmod.is_isomorphic(m, n)
        assert calls == [(m, n)]


class TestProjectiveInjective:
    def test_he1_is_e1(self):
        spec = spec_b2()
        p = hmod.projective_module(spec, 0)
        assert hmod.is_isomorphic(p, hmod.generalized_simple(spec, 0))

    def test_he2_rank(self):
        p = hmod.projective_module(spec_b2(), 1)
        assert hmod.is_locally_free(p) == (1, 1)
        assert p.total_dim() == 3

    def test_projective_ranks_follow_coxeter_betas(self):
        for datum, omega in ((B2, B2_OMEGA), (G2, G2_OMEGA)):
            spec = hmod.HAlgebraSpec(datum, omega, RATIONALS)
            cox, _ = cartan.admissible_words(datum, omega)
            betas, gammas = cartan.beta_gamma_sequences(datum, cox)
            for k, i in enumerate(cox):
                p = hmod.projective_module(spec, i)
                assert hmod.check_relations(p) == []
                assert hmod.is_locally_free(p) == betas[k]
                inj = hmod.injective_module(spec, i)
                assert hmod.check_relations(inj) == []
                assert hmod.is_locally_free(inj) == gammas[k]

    def test_projective_and_injective_represent_the_vertex_component(self):
        # Hom(He_i, M) = e_i M and Hom(M, D(e_i H)) = D(e_i M), so both have
        # dimension dim M_i: every catalog datum in every orientation over
        # F_5, at every vertex, for three random modules, P_i and I_i
        rng = random.Random(11)
        checked = 0
        for datum in verify.catalog_rank_le_4().values():
            for omega in cartan.all_orientations(datum):
                spec = hmod.HAlgebraSpec(datum, omega, prime_field_spec(5))
                for i in range(datum.n):
                    p, inj = hmod.projective_module(spec, i), hmod.injective_module(spec, i)
                    randoms = [hmod.random_locally_free(
                        spec, tuple(rng.randint(0, 2) for _ in range(datum.n)),
                        rng.randrange(10 ** 6)) for _ in range(3)]
                    for M in randoms + [p, inj]:
                        assert hmod.hom_dim(p, M) == M.dims[i] == hmod.hom_dim(M, inj)
                        checked += 1
        assert checked == 1045


class TestSubQuotient:
    def test_quotient_of_projective_by_socle_part(self):
        spec = spec_b2()
        he2 = hmod.projective_module(spec, 1)
        # vertex-1 component is free rank 1; quotient by it leaves E_2
        field = spec.field()
        subspaces = [[[field.one, field.zero], [field.zero, field.one]], []]
        q = hmod.quotient_by_subspaces(he2, subspaces)
        assert hmod.is_isomorphic(q, hmod.generalized_simple(spec, 1))

    def test_submodule_structure(self):
        spec = spec_b2()
        he2 = hmod.projective_module(spec, 1)
        field = spec.field()
        subspaces = [[[field.one, field.zero], [field.zero, field.one]], []]
        s = hmod.submodule_from_subspaces(he2, subspaces)
        assert hmod.is_isomorphic(s, hmod.generalized_simple(spec, 0))

    @pytest.mark.parametrize("fieldspec", [RATIONALS, prime_field_spec(5)], ids=["Q", "F5"])
    def test_quotient_equals_projection_oracle(self, fieldspec):
        # U = image of a random map P_i -> M, a submodule in no special
        # position; eps of M is out of chain form half the time
        rng = random.Random(7)
        spec = spec_b2(fieldspec)
        field = spec.field()
        for seed in range(6):
            M = hmod.random_locally_free(spec, (2, 2), seed)
            if seed % 2:
                M = generic_conjugate(M, rng)
            for i in range(2):
                basis = hmod.hom_basis(hmod.projective_module(spec, i), M)
                coeffs = [field.from_int(rng.randint(-3, 3)) for _ in basis]
                subspaces = []
                for v in range(2):
                    f = linalg.zeros(field, M.dims[v], len(basis[0][v][0]) if basis[0][v] else 0)
                    for c, g in zip(coeffs, basis):
                        f = linalg.mat_add(field, f, [[field.mul(c, x) for x in row] for row in g[v]])
                    subspaces.append(linalg.transpose(f))
                assert hmod.quotient_by_subspaces(M, subspaces).key() == \
                    projected_quotient_oracle(M, subspaces).key()


class TestSerialization:
    def test_roundtrip_rational(self):
        m = hmod.random_locally_free(spec_b2(), (2, 1), 99)
        text = hmod.module_to_json(m)
        back = hmod.module_from_json(m.spec, text)
        assert back.key() == m.key()

    def test_roundtrip_prime(self):
        spec = spec_b2(prime_field_spec(11))
        m = hmod.random_locally_free(spec, (1, 2), 4)
        assert hmod.module_from_json(spec, hmod.module_to_json(m)).key() == m.key()

    def test_field_mismatch(self):
        m = hmod.random_locally_free(spec_b2(), (1, 1), 1)
        with pytest.raises(SpecMismatchError):
            hmod.module_from_json(spec_b2(prime_field_spec(5)), hmod.module_to_json(m))


# --- differential tests against the dense per-arrow relation systems --------

B3 = cartan.validate_datum([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 2, 1])
B3_OMEGA = cartan.validate_orientation(B3, [(0, 1), (1, 2)])
LINEARIZED_SPECS = [(B2, B2_OMEGA), (G2, G2_OMEGA), (B3, B3_OMEGA), (B2_DOUBLED, B2_OMEGA)]


def _relation_space_dim(field, eps_i, eps_j, a, b):
    """dim of {G : eps_i^a G = G eps_j^b}, the coefficient space of one arrow,
    and a basis of it, from a dense system with one row per entry."""
    di, dj = len(eps_i), len(eps_j)
    if di == 0 or dj == 0:
        return 0, []
    left = linalg.mat_pow(field, eps_i, a)
    right = linalg.mat_pow(field, eps_j, b)
    rows = []
    for p in range(di):
        for q in range(dj):
            row = [field.zero] * (di * dj)
            for t in range(di):
                if left[p][t] != field.zero:
                    row[t * dj + q] = field.add(row[t * dj + q], left[p][t])
            for t in range(dj):
                if right[t][q] != field.zero:
                    row[p * dj + t] = field.sub(row[p * dj + t], right[t][q])
            rows.append(row)
    basis = linalg.nullspace(field, rows, di * dj)
    return len(basis), basis


def _random_locally_free_oracle(spec, r, seed):
    """Canonical eps and, arrow by arrow, a random combination of the dense
    basis of that arrow's coefficient space."""
    rng = random.Random(seed)
    field = spec.field()
    datum = spec.datum
    dims = [datum.D[v] * r[v] for v in range(datum.n)]
    eps = [hmod.free_eps(field, datum.D[v], r[v]) for v in range(datum.n)]
    arrows = {}
    for key in spec.arrow_keys():
        (i, j, _) = key
        _, basis = _relation_space_dim(field, eps[i], eps[j], *spec.rel_powers(i, j))
        mat = linalg.zeros(field, dims[i], dims[j])
        for vec in basis:
            coeff = field.from_int(rng.randrange(field.size())
                                   if field.size() else rng.randint(-4, 4))
            if coeff == field.zero:
                continue
            for p in range(dims[i]):
                for q in range(dims[j]):
                    x = vec[p * dims[j] + q]
                    if x != field.zero:
                        mat[p][q] = field.add(mat[p][q], field.mul(coeff, x))
        arrows[key] = mat
    return hmod.HModule(spec, dims, eps, arrows)


def _arrow_solution_dimension_oracle(spec, r):
    field = spec.field()
    total = 0
    for (i, j, _) in spec.arrow_keys():
        ei = hmod.free_eps(field, spec.datum.D[i], r[i])
        ej = hmod.free_eps(field, spec.datum.D[j], r[j])
        total += _relation_space_dim(field, ei, ej, *spec.rel_powers(i, j))[0]
    return total


def _ext1_dim_oracle(M, N):
    """dim Y1 - rank delta*, with Y1 summed arrow by arrow from dense systems."""
    field = M.field()
    y1 = sum(_relation_space_dim(field, N.eps[i], M.eps[j], *M.spec.rel_powers(i, j))[0]
             for (i, j, _) in M.arrows)
    return y1 - linalg.rank(field, hmod._hom_system(M, N)[3])


def _dense_violations(M):
    """The relations of H evaluated with dense matrix powers."""
    field = M.field()
    datum = M.spec.datum
    out = []
    for v in range(datum.n):
        if M.dims[v] and any(x != field.zero for row in
                             linalg.mat_pow(field, M.eps[v], datum.D[v]) for x in row):
            out.append(f"eps_{v + 1}^{datum.D[v]} != 0")
    for key, A in M.arrows.items():
        (i, j, _) = key
        if M.dims[i] and M.dims[j]:
            a, b = M.spec.rel_powers(i, j)
            if (linalg.mat_mul(field, linalg.mat_pow(field, M.eps[i], a), A)
                    != linalg.mat_mul(field, A, linalg.mat_pow(field, M.eps[j], b))):
                out.append(f"eps_{i + 1}^{a} A{key} != A{key} eps_{j + 1}^{b}")
    return out


def _ranks(n, bound):
    return [r for r in itertools.product(range(bound + 1), repeat=n) if sum(r) <= bound]


class TestLinearizedRelations:
    @pytest.mark.parametrize("fieldspec", [RATIONALS, prime_field_spec(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("datum, omega", LINEARIZED_SPECS, ids=["B2", "G2", "B3", "B2-42"])
    def test_random_modules_and_arrow_spaces_match_dense(self, datum, omega, fieldspec):
        spec = hmod.HAlgebraSpec(datum, omega, fieldspec)
        for r in _ranks(datum.n, 3 if datum.n == 2 else 2):
            assert hmod.arrow_solution_dimension(spec, r) == \
                _arrow_solution_dimension_oracle(spec, r), r
            for seed in range(3):
                assert hmod.random_locally_free(spec, r, seed).key() == \
                    _random_locally_free_oracle(spec, r, seed).key(), (r, seed)

    @pytest.mark.parametrize("datum, omega", LINEARIZED_SPECS[:3], ids=["B2", "G2", "B3"])
    def test_ext1_on_root_tables_matches_dense(self, datum, omega):
        mods = functors.all_root_modules(hmod.HAlgebraSpec(datum, omega, RATIONALS)).modules
        for m in mods:
            for n in mods:
                assert hmod.ext1_dim(m, n) == _ext1_dim_oracle(m, n)

    def test_ext1_on_random_pairs_matches_dense(self):
        rng = random.Random(8)
        for datum, omega in LINEARIZED_SPECS:
            spec = hmod.HAlgebraSpec(datum, omega, prime_field_spec(7))
            for _ in range(6):
                m, n = (hmod.random_locally_free(spec, rng.choice(_ranks(datum.n, 2)),
                                                 rng.randrange(10 ** 6)) for _ in range(2))
                assert hmod.ext1_dim(m, n) == _ext1_dim_oracle(m, n)

    def test_corrupted_modules_report_dense_violations(self):
        rng = random.Random(4)
        kinds = set()
        for datum, omega in LINEARIZED_SPECS:
            spec = hmod.HAlgebraSpec(datum, omega, prime_field_spec(7))
            for _ in range(8):
                m = hmod.random_locally_free(spec, rng.choice([(1,) * datum.n, (2,) * datum.n]),
                                             rng.randrange(10 ** 6))
                mats = [e for e in m.eps if e] + [a for a in m.arrows.values() if a and a[0]]
                for _ in range(rng.randint(1, 2)):
                    mat = rng.choice(mats)
                    r, c = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
                    mat[r][c] = (mat[r][c] + rng.randint(1, 6)) % 7
                violations = hmod.check_relations(m)
                assert set(violations) == set(_dense_violations(m))
                kinds.update("commutation" if " A(" in v else "nilpotence" for v in violations)
        assert kinds == {"commutation", "nilpotence"}


class TestFieldSpec:
    def test_field_is_cached_per_prime(self):
        spec = prime_field_spec(7)
        assert spec.field() is spec.field()
        assert prime_field_spec(7).field() is spec.field()
        assert spec_b2(spec).field() is spec.field()
        assert RATIONALS.field() is RATIONALS.field()
        assert prime_field_spec(11).field() is not spec.field()

    def test_equality_and_hash_unchanged(self):
        from symquiv.fields import FieldSpec
        assert prime_field_spec(7) == FieldSpec("Fp", 7)
        assert hash(prime_field_spec(7)) == hash(FieldSpec("Fp", 7))
        assert prime_field_spec(7) != prime_field_spec(11) != RATIONALS


class TestReflectedSpec:
    @pytest.mark.parametrize("fieldspec", [RATIONALS, prime_field_spec(7)], ids=["Q", "F7"])
    def test_reflected_is_memoized_and_involutive(self, fieldspec):
        # every sink or source k of every catalog datum, in every orientation
        from symquiv import verify
        seen = 0
        for datum in verify.catalog_rank_le_4().values():
            for omega in cartan.all_orientations(datum):
                spec = hmod.HAlgebraSpec(datum, omega, fieldspec)
                equal = hmod.HAlgebraSpec(datum, omega, fieldspec)
                for k in set(cartan.sinks(datum, omega)) | set(cartan.sources(datum, omega)):
                    assert spec.reflected(k) is spec.reflected(k) is equal.reflected(k)
                    assert spec.reflected(k).reflected(k) == spec
                    seen += 1
        assert seen > 100
