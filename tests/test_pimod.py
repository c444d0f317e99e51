import itertools
import random

import pytest

from symquiv import cartan, grassmann, hmod, linalg, pimod, verify
from symquiv.errors import TooLargeError, UndefinedValueError
from symquiv.fields import RATIONALS, prime_field_spec
from test_hmod import _relation_space_dim

B2 = cartan.validate_datum([[2, -1], [-2, 2]], [2, 1])
B2_OMEGA = cartan.validate_orientation(B2, [(0, 1)])
SPEC_B2 = hmod.HAlgebraSpec(B2, B2_OMEGA, RATIONALS)
SPEC_B2_F7 = hmod.HAlgebraSpec(B2, B2_OMEGA, prime_field_spec(7))


def make_pi_b2(v_coeffs, w_coeffs, fieldspec=RATIONALS):
    """Rank (1,1) Pi-module over B2: arrow vector v in H_1, functional w."""
    spec = hmod.HAlgebraSpec(B2, B2_OMEGA, fieldspec)
    field = spec.field()
    eps1 = hmod.free_eps(field, 2, 1)
    fwd = [[field.from_int(v_coeffs[0])], [field.from_int(v_coeffs[1])]]
    bwd = [[field.from_int(w_coeffs[0]), field.from_int(w_coeffs[1])]]
    return pimod.PiModule(spec, (2, 1), [eps1, [[field.zero]]],
                          {(0, 1, 0): fwd, (1, 0, 0): bwd})


class TestMesh:
    def test_from_h_module_satisfies_mesh(self):
        for seed in range(5):
            m = hmod.random_locally_free(SPEC_B2, (2, 1), seed)
            p = pimod.from_h_module(m)
            assert pimod.check_pi_relations(p) == []

    def test_round_trip_restriction(self):
        # restricting the Pi-module back to the orientation's arrows gives m
        m = hmod.random_locally_free(SPEC_B2, (1, 2), 3)
        p = pimod.from_h_module(m)
        arrows = {k: p.arrows[k] for k in SPEC_B2.arrow_keys()}
        assert hmod.HModule(SPEC_B2, p.dims, p.eps, arrows).key() == m.key()

    def test_mesh_conditions_b2_rank11(self):
        # conditions derived from the potential: G F = 0 at vertex 2 and
        # F G eps + eps F G = 0 at vertex 1
        ok = make_pi_b2((0, 1), (1, 0))  # v = eps, w = constant-coefficient form
        assert pimod.check_pi_relations(ok) == []
        bad = make_pi_b2((1, 0), (1, 0))  # w(v) != 0
        violations = pimod.check_pi_relations(bad)
        assert any("mesh" in v for v in violations)

    def test_h_check_on_pi_module_reports_mesh(self):
        # the module type picks the table, so the H entry point checks the
        # meshes of a PiModule too
        bad = make_pi_b2((1, 0), (1, 0))
        assert hmod.check_relations(bad) == ["mesh relation fails at vertex 1",
                                             "mesh relation fails at vertex 2"]
        assert hmod.check_relations(bad) == pimod.check_pi_relations(bad)
        assert hmod.check_relations(make_pi_b2((0, 1), (1, 0))) == []

    def test_simples_are_pi_modules(self):
        for i in range(2):
            assert pimod.check_pi_relations(pimod.pi_simple(SPEC_B2, i)) == []


class TestFacSub:
    def test_simple_module(self):
        e1 = pimod.pi_simple(SPEC_B2, 0)
        fac, sub = pimod.fac_sub(e1, 0)
        assert fac == (2,) and sub == (2,)
        fac2, sub2 = pimod.fac_sub(e1, 1)
        assert fac2 == () and sub2 == ()

    def test_one_dim_space_no_arrows(self):
        # H_1/(eps) at vertex 1: Jordan type of the zero map on a line
        spec = SPEC_B2
        field = spec.field()
        m = pimod.PiModule(spec, (1, 0), [[[field.zero]], []],
                           {(0, 1, 0): [[]], (1, 0, 0): []})
        fac, sub = pimod.fac_sub(m, 0)
        assert fac == (1,) and sub == (1,)

    def test_h_module_fac_at_sink(self):
        # golden value: for the Pi-avatar of He_2, the in-map at vertex 1 is
        # onto the free rank-1 component, so fac_1 is empty and sub_1 = (2)
        he2 = pimod.from_h_module(hmod.projective_module(SPEC_B2, 1))
        fac, sub = pimod.fac_sub(he2, 0)
        assert fac == ()
        assert sub == (2,)

    def test_dimension_bookkeeping(self):
        rng = random.Random(2)
        for seed in range(4):
            m = pimod.random_E_filtered(SPEC_B2_F7, (0, 1, 0), seed)
            field = m.field()
            for k in range(2):
                fac, sub = pimod.fac_sub(m, k)
                im = pimod.in_image_space(m, k)
                ker = pimod.sub_space(m, k)
                assert sum(fac) + len(im) == m.dims[k]
                # dim sub_k + rank(out map) = d_k
                rows = grassmann._out_arrow_stack(m, k)
                out_rank = linalg.rank(field, rows) if rows else 0
                assert len(ker) == m.dims[k] - out_rank


class TestEFiltered:
    def test_simple_is_filtered(self):
        flag, witness = pimod.is_E_filtered(pimod.pi_simple(SPEC_B2_F7, 0))
        assert flag and witness == [0]

    def test_h_locally_free_is_filtered(self):
        for seed in range(5):
            m = hmod.random_locally_free(SPEC_B2_F7, (1, 1), seed)
            flag, witness = pimod.is_E_filtered(pimod.from_h_module(m))
            assert flag
            counts = [witness.count(0), witness.count(1)]
            assert counts == [1, 1]

    def test_non_e_filtered_fixture(self):
        # locally free mesh solution with v = eps and constant functional:
        # no free rank-1 bottom at vertex 1 (kernel core is eps H), none at 2
        fixture = make_pi_b2((0, 1), (1, 0), prime_field_spec(7))
        assert pimod.check_pi_relations(fixture) == []
        assert hmod.is_locally_free(fixture) == (1, 1)
        flag, witness = pimod.is_E_filtered(fixture)
        assert not flag and witness is None

    def test_search_runs_over_prime_fields(self):
        # the search is exhaustive, so over F_7 "no" is certified; over Q it
        # is refused rather than sampled
        with pytest.raises(ValueError, match="runs over prime fields"):
            pimod.is_E_filtered(make_pi_b2((0, 1), (1, 0), RATIONALS))
        assert pimod.is_E_filtered(make_pi_b2((0, 1), (1, 0), prime_field_spec(7))) == (False, None)

    @pytest.mark.parametrize("copies", [2, 3])
    def test_search_takes_one_generator_per_level(self, monkeypatch, copies):
        # E_1^copies over F_5 has p^(copies-1) [copies]_p free rank-one
        # submodules at vertex 1, but every quotient is E_1^(copies-1), so
        # the first generator at each level completes the flag
        spec = hmod.HAlgebraSpec(B2, B2_OMEGA, prime_field_spec(5))
        m = hmod.generalized_simple(spec, 0)
        for _ in range(copies - 1):
            m = hmod.direct_sum(m, hmod.generalized_simple(spec, 0))
        taken, spaces = [], []
        generators, sub_space = grassmann._e_letter_generators, pimod.sub_space

        def counted(M, j):
            taken.append(0)
            for u in generators(M, j):
                taken[-1] += 1
                yield u

        monkeypatch.setattr(grassmann, "_e_letter_generators", counted)
        monkeypatch.setattr(pimod, "sub_space", lambda M, k: spaces.append(k) or sub_space(M, k))
        flag, witness = pimod.is_E_filtered(pimod.from_h_module(m))
        assert flag and witness == [0] * copies
        assert taken == [1] * copies and not spaces

    def test_not_locally_free_has_no_flag(self):
        # an E-filtered module is locally free: certified "no", over Q as well
        for fieldspec in (RATIONALS, prime_field_spec(7)):
            spec = hmod.HAlgebraSpec(B2, B2_OMEGA, fieldspec)
            field = spec.field()
            m = pimod.PiModule(spec, (2, 0), [linalg.zeros(field, 2, 2), []],
                               {k: linalg.zeros(field, 2 if k[0] == 0 else 0, 0 if k[0] == 0 else 2)
                                for k in pimod.double_arrow_keys(spec)})
            assert hmod.is_locally_free(m) is None
            assert pimod.is_E_filtered(m) == (False, None)

    def test_random_generator_output_is_filtered(self):
        rng = random.Random(5)
        for seq in [(0, 1), (1, 0, 0), (0, 1, 0)]:
            m = pimod.random_E_filtered(SPEC_B2_F7, seq, rng.randrange(10 ** 6))
            flag, _ = pimod.is_E_filtered(m)
            assert flag

    def test_zero_cocycle_gives_direct_sum(self):
        m = pimod.random_E_filtered(SPEC_B2_F7, (0,), 0)
        assert hmod.is_isomorphic(m, pimod.pi_simple(SPEC_B2_F7, 0))

    def test_budget_exhaustion_is_loud(self):
        m = pimod.random_E_filtered(SPEC_B2_F7, (0, 1, 0), 2)
        with pytest.raises(TooLargeError, match=r"at vertex 0 of a module of dims \(4, 1\)$"):
            pimod.is_E_filtered(m, budget=0)

    def test_budget_boundary_is_exact(self, monkeypatch):
        m = pimod.random_E_filtered(SPEC_B2_F7, (0, 1, 0), 2)
        budgets = []

        class Recorded(grassmann._Budget):
            def __init__(self, units):
                super().__init__(units)
                budgets.append(self)

        monkeypatch.setattr(grassmann, "_Budget", Recorded)
        expected = pimod.is_E_filtered(m)
        monkeypatch.undo()
        spent = budgets[0].units - budgets[0].left
        assert expected[0] and spent >= 2
        assert pimod.is_E_filtered(m, budget=spent) == expected
        with pytest.raises(TooLargeError, match=rf"^enumeration budget of {spent - 1} exhausted "
                                                r"by the E-filtration candidates at vertex \d "
                                                r"of a module of dims \(\d+, \d+\)$"):
            pimod.is_E_filtered(m, budget=spent - 1)

    def test_search_agrees_with_flag_counts(self):
        # differential test against Counter.flag_count: M is E-filtered iff
        # some ordering of the letters of its rank has a flag, and the
        # witness is such an ordering
        f7 = prime_field_spec(7)
        rng = random.Random(11)
        modules = [make_pi_b2((0, 1), (1, 0), f7), make_pi_b2((0, 3), (5, 0), f7)]
        modules += [hmod.direct_sum(modules[0], pimod.pi_simple(SPEC_B2_F7, i)) for i in range(2)]
        for spec in (SPEC_B2_F7, hmod.HAlgebraSpec(verify.G2, verify.OM_G2, f7)):
            for seq in [(0, 1), (1, 0), (0, 1, 0), (1, 0, 0), (0,), (1,)]:
                modules += [pimod.random_E_filtered(spec, seq, rng.randrange(10 ** 6))
                            for _ in range(4)]
        outcomes = []
        for m in modules:
            rank = hmod.is_locally_free(m)
            letters = [v for v, r in enumerate(rank) for _ in range(r)]
            flag, witness = pimod.is_E_filtered(m)
            assert flag == any(grassmann.Counter().flag_count(m, word) > 0
                               for word in set(itertools.permutations(letters)))
            if flag:
                assert grassmann.Counter().flag_count(m, witness) > 0
            outcomes.append(flag)
        assert outcomes.count(False) == 4


class TestCrystal:
    def test_simples_and_zero(self):
        assert pimod.is_crystal_module(pimod.pi_zero_module(SPEC_B2))
        for i in range(2):
            ei = pimod.pi_simple(SPEC_B2, i)
            assert pimod.is_crystal_module(ei)
            assert pimod.phi(ei, i) == 1
            assert pimod.phi(ei, 1 - i) == 0

    def test_non_free_sub_is_undefined(self):
        fixture = make_pi_b2((0, 1), (1, 0), prime_field_spec(7))
        with pytest.raises(UndefinedValueError):
            pimod.phi(fixture, 0)
        assert not pimod.is_crystal_module(fixture)

    def test_crystal_instances_exist_at_serre_rank(self):
        # rank (2,1) = (1 - c_12) alpha_1 + alpha_2 in B2
        found = 0
        for seed in range(40):
            for seq in [(0, 1, 0), (0, 0, 1), (1, 0, 0)]:
                m = pimod.random_E_filtered(SPEC_B2_F7, seq, seed)
                if hmod.is_locally_free(m) == (2, 1) and pimod.is_crystal_module(m):
                    found += 1
            if found >= 5:
                break
        assert found >= 5

    def test_g2_crystal_modules_kill_serre_commutator(self):
        # criterion 12 on G2: crystal modules of rank (2,1) = (1 - c_12)
        # alpha_1 + alpha_2 kill the commutator, an E-filtered one does not
        spec = hmod.HAlgebraSpec(verify.G2, verify.OM_G2, RATIONALS)
        combo = grassmann.serre_commutator(0, 1, 2)
        engine = grassmann.EulerEngine()
        rng = random.Random(5)
        found = 0
        for _ in range(60):
            m = pimod.random_E_filtered(spec, rng.choice(verify.CRYSTAL_SEQS),
                                        rng.randrange(10 ** 9))
            if hmod.is_locally_free(m) == (2, 1) and pimod.is_crystal_module(m):
                assert engine.theta_eval(combo, m) == 0
                found += 1
                if found == 3:
                    break
        assert found == 3
        witness = pimod.random_E_filtered(spec, (0, 1, 0), 7)
        assert not pimod.is_crystal_module(witness)
        assert pimod.is_E_filtered(hmod.reduce_mod_p(witness, 7))[0]
        assert engine.theta_eval(combo, witness) == -2

    def test_crystal_implies_e_filtered(self):
        for seed in range(6):
            m = pimod.random_E_filtered(SPEC_B2_F7, (0, 1, 0), seed)
            if pimod.is_crystal_module(m):
                flag, _ = pimod.is_E_filtered(m)
                assert flag


class TestPiHom:
    def test_ext_simple_rigid_over_pi(self):
        # Ext^1_Pi(E_1, E_1) = 2*2 - (alpha_1, alpha_1) = 0 in B2
        e1 = pimod.pi_simple(SPEC_B2, 0)
        assert pimod.ext1_pi(e1, e1) == 0

    def test_ext_between_simples(self):
        # 0 + 0 - (alpha_1, alpha_2) = 2
        e1 = pimod.pi_simple(SPEC_B2, 0)
        e2 = pimod.pi_simple(SPEC_B2, 1)
        assert pimod.ext1_pi(e1, e2) == 2
        assert pimod.ext1_pi(e2, e1) == 2

    def test_symmetry_on_random_pairs(self):
        rng = random.Random(11)
        seqs = [(0, 1), (1, 0), (0, 1, 0), (1, 0, 0), (0,), (1,)]
        for _ in range(10):
            a = pimod.random_E_filtered(SPEC_B2_F7, rng.choice(seqs), rng.randrange(10 ** 6))
            b = pimod.random_E_filtered(SPEC_B2_F7, rng.choice(seqs), rng.randrange(10 ** 6))
            assert pimod.ext1_pi(a, b) == pimod.ext1_pi(b, a)

    def test_cb_formula_embedded_check(self):
        # ext1_pi internally cross-checks against the symmetrized Hom formula;
        # run it on a sample of pairs so the check executes
        rng = random.Random(13)
        for _ in range(6):
            a = pimod.random_E_filtered(SPEC_B2_F7, (0, 1), rng.randrange(10 ** 6))
            b = pimod.random_E_filtered(SPEC_B2_F7, (1, 0), rng.randrange(10 ** 6))
            pimod.ext1_pi(a, b)


class TestMeshPreservation:
    def test_direct_sum_preserves_relations(self):
        a = pimod.random_E_filtered(SPEC_B2_F7, (0, 1), 3)
        b = pimod.random_E_filtered(SPEC_B2_F7, (1, 0), 4)
        assert pimod.check_pi_relations(hmod.direct_sum(a, b)) == []


# --- differential tests against the per-unknown residual and dense d2* ------

SPEC_G2_F7 = hmod.HAlgebraSpec(verify.G2, verify.OM_G2, prime_field_spec(7))
SPEC_B3_F7 = hmod.HAlgebraSpec(verify.B3, verify.OM_B3, prime_field_spec(7))
SEQUENCES = {
    SPEC_B2_F7: [(0, 1), (1, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)],
    SPEC_G2_F7: [(0, 1), (1, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)],
    # the middle vertex of B3 has mesh terms of both signs; (1, 0, 2, 1)
    # extends E_2 below a module whose middle vertex maps to both neighbours,
    # so its extension system mixes them
    SPEC_B3_F7: [(0, 1, 2), (1, 0, 2), (2, 1, 0, 1), (1, 2, 1), (1, 0, 2, 1)],
}


def _mesh_oracle(M, k):
    """The mesh sum at k, term by term as dense products, signed +1 for the
    arrows of the orientation out of k and -1 for the others."""
    field = M.field()
    datum = M.spec.datum
    total = linalg.zeros(field, M.dims[k], M.dims[k])
    for j in datum.neighbors(k):
        if M.dims[j] == 0:
            continue
        a = M.spec.rel_powers(k, j)[0]
        for cp in range(datum.g[k][j]):
            for s in range(a):
                term = linalg.mat_mul(field, linalg.mat_pow(field, M.eps[k], s),
                                      linalg.mat_mul(field, M.arrows[(k, j, cp)],
                                                     M.arrows[(j, k, cp)]))
                term = linalg.mat_mul(field, term, linalg.mat_pow(field, M.eps[k], a - 1 - s))
                if (k, j) not in M.spec.omega.pairs:
                    term = linalg.mat_neg(field, term)
                total = linalg.mat_add(field, total, term)
    return total


def _residual_oracle(M):
    """Every relation of M evaluated densely, flattened."""
    field = M.field()
    out = []
    for v in range(M.spec.datum.n):
        if M.dims[v]:
            power = linalg.mat_pow(field, M.eps[v], M.spec.datum.D[v])
            out.extend(x for row in power for x in row)
    for key, mat in sorted(M.arrows.items()):
        (i, j, _) = key
        if M.dims[i] and M.dims[j]:
            a, b = M.spec.rel_powers(i, j)
            lhs = linalg.mat_mul(field, linalg.mat_pow(field, M.eps[i], a), mat)
            rhs = linalg.mat_mul(field, mat, linalg.mat_pow(field, M.eps[j], b))
            out.extend(field.sub(x, y) for r1, r2 in zip(lhs, rhs) for x, y in zip(r1, r2))
    for v in range(M.spec.datum.n):
        if M.dims[v]:
            out.extend(x for row in _mesh_oracle(M, v) for x in row)
    return out


def _extension_system_oracle(A, B):
    """(unknown index, rows): the residual of the coupled module rebuilt
    once per unit coupling, one column per unknown."""
    field = A.field()
    slots = [(("eps", v), A.dims[v], B.dims[v]) for v in range(A.spec.datum.n)]
    slots += [(("arrow", key), A.dims[key[0]], B.dims[key[1]]) for key in A.arrows]
    index = [(name, a, b) for (name, r, c) in slots for a in range(r) for b in range(c)]
    columns = []
    for (name, a, b) in index:
        coup = {g: linalg.zeros(field, r, c) for (g, r, c) in slots}
        coup[name][a][b] = field.one
        columns.append(_residual_oracle(hmod._block_module(A, B, coup)))
    rows = [list(row) for row in zip(*columns)]
    return index, rows


def _random_E_filtered_oracle(spec, seq, seed):
    rng = random.Random(seed)
    field = spec.field()
    current = pimod.pi_simple(spec, seq[-1])
    for i in reversed(seq[:-1]):
        A = pimod.pi_simple(spec, i)
        index, rows = _extension_system_oracle(A, current)
        coup = {("eps", v): linalg.zeros(field, A.dims[v], current.dims[v])
                for v in range(spec.datum.n)}
        coup.update({("arrow", key): linalg.zeros(field, A.dims[key[0]], current.dims[key[1]])
                     for key in A.arrows})
        for vec in linalg.nullspace(field, rows, len(index)):
            coeff = field.from_int(rng.randrange(field.size()))
            if coeff != field.zero:
                for (name, a, b), x in zip(index, vec):
                    coup[name][a][b] = field.add(coup[name][a][b], field.mul(coeff, x))
        current = hmod._block_module(A, current, coup)
    return hmod.normalize_eps(current)


def _ext1_oracle(M, N):
    """ker(d2*)/im(d1*) with d2* assembled densely: one image per basis
    vector G of Y1 = {G : eps^a G = G eps^b per arrow}, the mesh sum
    sgn eps^s (A^N_in G_out + G_in A^M_out) eps^t at every vertex."""
    field = M.field()
    n = M.spec.datum.n
    keys = sorted(M.arrows)
    y1 = []
    for key in keys:
        (i, j, _) = key
        a, b = M.spec.rel_powers(i, j)
        for vec in _relation_space_dim(field, N.eps[i], M.eps[j], a, b)[1]:
            psi = {k: linalg.zeros(field, N.dims[k[0]], M.dims[k[1]]) for k in keys}
            psi[key] = [vec[p * M.dims[j]:(p + 1) * M.dims[j]] for p in range(N.dims[i])]
            y1.append(psi)
    d2 = []
    for psi in y1:
        image = []
        for v in range(n):
            if not (N.dims[v] and M.dims[v]):
                continue
            res = linalg.zeros(field, N.dims[v], M.dims[v])
            for sgn, key_in, key_out, s, t in pimod.mesh_terms(M.spec, v):
                j = key_in[1]
                left = linalg.mat_pow(field, N.eps[v], s)
                right = linalg.mat_pow(field, M.eps[v], t)
                middles = []
                if N.dims[j]:
                    middles.append(linalg.mat_mul(field, N.arrows[key_in], psi[key_out]))
                if M.dims[j]:
                    middles.append(linalg.mat_mul(field, psi[key_in], M.arrows[key_out]))
                for middle in middles:
                    term = linalg.mat_mul(field, left, linalg.mat_mul(field, middle, right))
                    if sgn < 0:
                        term = linalg.mat_neg(field, term)
                    res = linalg.mat_add(field, res, term)
            image.extend(x for row in res for x in row)
        d2.append(image)
    d1 = hmod._hom_system(M, N)[3]
    rank_d2 = linalg.rank(field, d2) if d2 and d2[0] else 0
    return len(y1) - rank_d2 - (linalg.rank(field, d1) if d1 else 0)


def _sample_pairs(spec, count, seed):
    rng = random.Random(seed)
    seqs = SEQUENCES[spec]
    return [(pimod.random_E_filtered(spec, rng.choice(seqs), rng.randrange(10 ** 6)),
             pimod.random_E_filtered(spec, rng.choice(seqs), rng.randrange(10 ** 6)))
            for _ in range(count)]


class TestLinearizedRelations:
    @pytest.mark.parametrize("spec", list(SEQUENCES), ids=["B2", "G2", "B3"])
    def test_extension_system_has_oracle_row_space(self, spec):
        field = spec.field()
        for seed, seq in enumerate(SEQUENCES[spec]):
            bottom = pimod.random_E_filtered(spec, seq, seed)
            for i in range(spec.datum.n):
                top = pimod.pi_simple(spec, i)
                unknowns = [("eps", v) for v in range(spec.datum.n)]
                unknowns += [("arrow", key) for key in top.arrows]
                index, oracle_rows = _extension_system_oracle(top, bottom)
                total, rows = hmod._coupling_rows(top, bottom, unknowns)
                assert total == len(index)
                assert linalg.row_space(field, rows) == linalg.row_space(field, oracle_rows)

    @pytest.mark.parametrize("spec", list(SEQUENCES), ids=["B2", "G2", "B3"])
    def test_generated_modules_are_byte_identical(self, spec):
        for seed in range(3):
            for seq in SEQUENCES[spec]:
                expected = _random_E_filtered_oracle(spec, seq, seed)
                assert pimod.random_E_filtered(spec, seq, seed).key() == expected.key()

    @pytest.mark.parametrize("spec", [SPEC_B2_F7, SPEC_G2_F7], ids=["B2", "G2"])
    def test_ext1_matches_dense_d2(self, spec):
        for a, b in _sample_pairs(spec, 6, 17):
            assert pimod.ext1_pi(a, b) == _ext1_oracle(a, b)
            assert pimod.ext1_pi(b, a) == _ext1_oracle(b, a)


class TestPiHomG2:
    def test_symmetry_and_formula(self):
        for a, b in _sample_pairs(SPEC_G2_F7, 8, 23):
            rk_a, rk_b = hmod.is_locally_free(a), hmod.is_locally_free(b)
            assert rk_a is not None and rk_b is not None  # the embedded check runs
            ext = pimod.ext1_pi(a, b)
            assert ext == pimod.ext1_pi(b, a)
            assert ext == hmod.hom_dim(a, b) + hmod.hom_dim(b, a) - cartan.symmetric_form(
                SPEC_G2_F7.datum, rk_a, rk_b)
