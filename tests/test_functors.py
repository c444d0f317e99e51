import hashlib
import json
import pathlib

import pytest

from symquiv import cartan, functors, hmod, linalg, verify
from symquiv.errors import InternalMismatchError, NotSinkOrSourceError
from symquiv.fields import RATIONALS

B2 = cartan.validate_datum([[2, -1], [-2, 2]], [2, 1])
B2_OMEGA = cartan.validate_orientation(B2, [(0, 1)])
G2 = cartan.validate_datum([[2, -1], [-3, 2]], [3, 1])
G2_OMEGA = cartan.validate_orientation(G2, [(0, 1)])
B3 = cartan.validate_datum([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 2, 1])
B3_OMEGA = cartan.validate_orientation(B3, [(0, 1), (1, 2)])

SPEC_B2 = hmod.HAlgebraSpec(B2, B2_OMEGA, RATIONALS)
SPEC_G2 = hmod.HAlgebraSpec(G2, G2_OMEGA, RATIONALS)
SPEC_B3 = hmod.HAlgebraSpec(B3, B3_OMEGA, RATIONALS)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _identity_eps_at_vertex_1(spec):
    """dims (0, 1) with eps_1 = 1: not nilpotent, so no H-module."""
    field = spec.field()
    return hmod.HModule(spec, (0, 1), [[], [[field.one]]],
                        {k: linalg.zeros(field, 1 if k[0] == 1 else 0, 1 if k[1] == 1 else 0)
                         for k in spec.arrow_keys()})


class TestReflectPlus:
    def test_kills_simple_at_sink(self):
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        out = functors.reflect_plus(0, e1)
        assert out.total_dim() == 0

    def test_rank_reflection_on_he2(self):
        he2 = hmod.projective_module(SPEC_B2, 1)  # rank (1,1)
        out = functors.reflect_plus(0, he2)
        assert hmod.is_locally_free(out) == (0, 1)  # s_1(1,1)

    def test_untouched_vertex(self):
        e2 = hmod.generalized_simple(SPEC_B2, 1)
        out = functors.reflect_plus(0, e2)
        assert hmod.is_locally_free(out) == (1, 1)  # s_1(alpha_2)

    def test_non_adjacent_simple_is_fixed(self):
        # reflecting at vertex 1 of B3 leaves E_3 (vertex index 2) untouched
        e3 = hmod.generalized_simple(SPEC_B3, 2)
        out = functors.reflect_plus(0, e3)
        assert hmod.is_locally_free(out) == (0, 0, 1)
        assert out.dims == e3.dims

    def test_not_sink_raises(self):
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        with pytest.raises(NotSinkOrSourceError):
            functors.reflect_plus(1, e1)

    def test_non_nilpotent_eps_raises(self):
        # the untouched vertex keeps eps_1 = 1; reflecting used to hang in
        # normalize_eps on it
        with pytest.raises(InternalMismatchError, match="violates relations"):
            functors.reflect_plus(0, _identity_eps_at_vertex_1(SPEC_B2))

    def test_rank_reflection_random(self):
        # rank (1,2): s_1(1,2) = (1,2), and generic samples have no E_1 summand
        hits = 0
        for seed in range(8):
            m = hmod.random_locally_free(SPEC_B2, (1, 2), seed)
            e1 = hmod.generalized_simple(SPEC_B2, 0)
            if hmod.hom_dim(m, e1) != 0:
                continue  # may contain an E_1 summand; the lemma does not apply
            out = functors.reflect_plus(0, m)
            rk = hmod.is_locally_free(out)
            if rk is not None:
                assert rk == cartan.reflect_root(B2, 0, (1, 2))
                hits += 1
        assert hits >= 3


class TestReflectMinus:
    def test_kills_simple_at_source(self):
        spec_refl = SPEC_B2.reflected(0)
        e1 = hmod.generalized_simple(spec_refl, 0)
        assert functors.reflect_minus(0, e1).total_dim() == 0

    def test_e2_becomes_root_module(self):
        spec_refl = SPEC_B2.reflected(0)
        e2 = hmod.generalized_simple(spec_refl, 1)
        out = functors.reflect_minus(0, e2)
        assert out.spec.omega.pairs == B2_OMEGA.pairs
        assert hmod.is_locally_free(out) == (1, 1)
        assert hmod.is_isomorphic(out, hmod.projective_module(SPEC_B2, 1))

    def test_non_nilpotent_eps_raises(self):
        with pytest.raises(InternalMismatchError, match="violates relations"):
            functors.reflect_minus(0, _identity_eps_at_vertex_1(SPEC_B2.reflected(0)))

    def test_round_trip(self):
        spec_refl = SPEC_B2.reflected(0)
        e2 = hmod.generalized_simple(spec_refl, 1)
        back = functors.reflect_plus(0, functors.reflect_minus(0, e2))
        assert hmod.is_isomorphic(back, e2)

    def test_round_trip_random_without_ek(self):
        hits = 0
        for seed in range(6):
            m = hmod.random_locally_free(SPEC_B2, (1, 2), seed)
            if hmod.hom_dim(m, hmod.generalized_simple(SPEC_B2, 0)) != 0:
                continue
            back = functors.reflect_minus(0, functors.reflect_plus(0, m))
            assert hmod.is_isomorphic(back, m)
            hits += 1
        assert hits >= 3


class TestTwist:
    def test_involution(self):
        m = hmod.random_locally_free(SPEC_B2, (2, 1), 12)
        assert functors.twist(functors.twist(m)).key() == m.key()

    def test_fixes_simples(self):
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        assert functors.twist(e1).key() == e1.key()

    def test_hom_preserved(self):
        m = hmod.random_locally_free(SPEC_B2, (1, 1), 3)
        n = hmod.random_locally_free(SPEC_B2, (2, 1), 4)
        assert hmod.hom_dim(m, n) == hmod.hom_dim(functors.twist(m), functors.twist(n))


class TestRootModules:
    def test_b2_table(self):
        table = functors.all_root_modules(SPEC_B2)
        assert table.betas == [(1, 0), (1, 1), (1, 2), (0, 1)]
        for beta, m in zip(table.betas, table.modules):
            assert hmod.is_locally_free(m) == beta
            assert functors.is_rigid(m)
            assert functors.is_indecomposable(m)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not hmod.is_isomorphic(table.modules[i], table.modules[j])

    def test_first_module_is_simple(self):
        table = functors.all_root_modules(SPEC_B2)
        assert hmod.is_isomorphic(
            table.modules[0], hmod.generalized_simple(SPEC_B2, table.word[0]))

    def test_g2_table(self):
        table = functors.all_root_modules(SPEC_G2)
        assert sorted(table.betas) == cartan.positive_roots(G2)
        assert len(table.modules) == 6
        for m in table.modules:
            assert functors.is_rigid(m)


class TestHomExtTable:
    def test_b2_values(self):
        table = functors.all_root_modules(SPEC_B2)
        t = functors.homext_table(table)  # raises on mismatch
        assert t[0][1] == (2, 0)   # <beta_1, beta_2> = 2
        assert t[1][0] == (0, 0)   # <beta_2, beta_1> = 0
        for k in range(4):
            pairing = cartan.euler_form(B2, B2_OMEGA, table.betas[k], table.betas[k])
            assert t[k][k] == (pairing, 0)

    def test_g2_consistent(self):
        functors.homext_table(functors.all_root_modules(SPEC_G2))


class TestTau:
    def test_projectives_die(self):
        for spec in (SPEC_B2, SPEC_G2):
            for i in range(2):
                assert functors.tau(hmod.projective_module(spec, i)).total_dim() == 0

    def test_rank_action_b2(self):
        table = functors.all_root_modules(SPEC_B2)
        fd = cartan.forms(B2, B2_OMEGA)
        projective_ranks = {hmod.is_locally_free(hmod.projective_module(SPEC_B2, i))
                            for i in range(2)}
        for beta, m in zip(table.betas, table.modules):
            t = functors.tau(m)
            if beta in projective_ranks:
                assert t.total_dim() == 0
            else:
                expected = tuple(linalg.int_mat_vec([list(r) for r in fd.coxeter_mat],
                                                    list(beta)))
                assert hmod.is_locally_free(t) == expected

    def test_beta3_example(self):
        # coxeter_mat * (1,2) = (1,0)
        table = functors.all_root_modules(SPEC_B2)
        m = table.module_of((1, 2))
        assert hmod.is_locally_free(functors.tau(m)) == (1, 0)

    def test_tau_minus_round_trip(self):
        table = functors.all_root_modules(SPEC_B2)
        projective_ranks = {hmod.is_locally_free(hmod.projective_module(SPEC_B2, i))
                            for i in range(2)}
        for beta, m in zip(table.betas, table.modules):
            if beta in projective_ranks:
                continue
            back = functors.tau_minus(functors.tau(m))
            assert hmod.is_isomorphic(back, m)

    def test_rigidity_preserved_under_reflection(self):
        table = functors.all_root_modules(SPEC_B2)
        e1 = hmod.generalized_simple(SPEC_B2, 0)
        for beta, m in zip(table.betas, table.modules):
            if hmod.is_isomorphic(m, e1):
                continue
            out = functors.reflect_plus(0, m)
            assert hmod.is_locally_free(out) is not None
            assert functors.is_rigid(out)
            # Hom-vanishing into the sink simple for rigid modules without E_k summand
            assert hmod.hom_dim(m, e1) == 0

    def test_rigidity_preserved_on_random_rigid_samples(self):
        import random
        from symquiv.fields import prime_field_spec
        rng = random.Random(23)
        spec = hmod.HAlgebraSpec(B2, B2_OMEGA, prime_field_spec(7))
        e1 = hmod.generalized_simple(spec, 0)
        checked = 0
        while checked < 50:
            rank = (rng.randint(0, 2), rng.randint(1, 2))
            m = hmod.random_locally_free(spec, rank, rng.randrange(10 ** 9))
            if not functors.is_rigid(m) or hmod.hom_dim(m, e1) != 0:
                continue  # needs a rigid module with no sink-simple summand
            out = functors.reflect_plus(0, m)
            assert hmod.is_locally_free(out) is not None
            assert functors.is_rigid(out)
            checked += 1


class TestB3:
    def test_table_ranks(self):
        table = functors.all_root_modules(SPEC_B3)
        assert sorted(table.betas) == cartan.positive_roots(B3)
        for beta, m in zip(table.betas, table.modules):
            assert hmod.is_locally_free(m) == beta

    def test_projective_injective_ranks(self):
        cox, _ = cartan.admissible_words(B3, B3_OMEGA)
        betas, gammas = cartan.beta_gamma_sequences(B3, cox)
        for k, i in enumerate(cox):
            assert hmod.is_locally_free(hmod.projective_module(SPEC_B3, i)) == betas[k]
            assert hmod.is_locally_free(hmod.injective_module(SPEC_B3, i)) == gammas[k]


def _exact_text(key):
    """key() as text, each scalar by its value (an int and an equal Fraction
    print alike)."""
    if isinstance(key, tuple):
        return "(" + ",".join(_exact_text(x) for x in key) + ")"
    return str(key)


def root_module_digests():
    """{"<datum> [<orientation>]": sha256 of the key() of every root module M
    and of tau M and tau^- M} over every datum of catalog_rank_le_4() in every
    orientation, over Q."""
    out = {}
    for name, datum in verify.catalog_rank_le_4().items():
        for omega in cartan.all_orientations(datum):
            spec = hmod.HAlgebraSpec(datum, omega, RATIONALS)
            digest = hashlib.sha256()
            for m in functors.all_root_modules(spec).modules:
                for out_module in (m, functors.tau(m), functors.tau_minus(m)):
                    digest.update(_exact_text(out_module.key()).encode() + b"\n")
            label = ",".join(f"{i}-{j}" for i, j in sorted(omega.pairs))
            out[f"{name} [{label}]"] = digest.hexdigest()
    return out


def test_reflection_outputs_match_golden_digests():
    golden = json.loads((GOLDEN / "root_modules_rank_le_4.json").read_text())
    assert root_module_digests() == golden
