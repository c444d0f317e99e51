import random

import pytest

from symquiv import cartan, functors, hmod, verify
from symquiv.errors import (
    NotCartanError,
    NotDynkinError,
    NotOrientationError,
    NotReducedError,
    NotSinkOrSourceError,
    NotSymmetrizerError,
)
from symquiv.fields import RATIONALS

# Standard test data.  B2/G2/B3 use the minimal symmetrizers.
B2 = cartan.validate_datum([[2, -1], [-2, 2]], [2, 1])
G2 = cartan.validate_datum([[2, -1], [-3, 2]], [3, 1])
A1 = cartan.validate_datum([[2]], [1])
A2 = cartan.validate_datum([[2, -1], [-1, 2]], [1, 1])
A3 = cartan.validate_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1])
B3 = cartan.validate_datum([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 2, 1])
AFF_A1 = cartan.validate_datum([[2, -2], [-2, 2]], [1, 1])

B2_OMEGA = cartan.validate_orientation(B2, [(0, 1)])
G2_OMEGA = cartan.validate_orientation(G2, [(0, 1)])


def brute_positive_roots(datum, bound=40):
    """Independent oracle: closure of the simple roots under reflections."""
    roots = set()
    frontier = set()
    for i in range(datum.n):
        a = tuple(1 if t == i else 0 for t in range(datum.n))
        roots.add(a)
        frontier.add(a)
    while frontier:
        nxt = set()
        for v in frontier:
            for i in range(datum.n):
                w = cartan.reflect_root(datum, i, v)
                if w not in roots and sum(abs(x) for x in w) <= bound:
                    roots.add(w)
                    nxt.add(w)
        frontier = nxt
    return sorted(v for v in roots if all(x >= 0 for x in v))


class TestValidateDatum:
    def test_b2_valid_with_g_table(self):
        assert B2.g[0][1] == 1 and B2.g[1][0] == 1

    def test_bad_symmetrizer_rejected(self):
        with pytest.raises(NotSymmetrizerError):
            cartan.validate_datum([[2, -1], [-2, 2]], [1, 1])

    def test_g2_weights(self):
        # 3 * (-1) == 1 * (-3)
        d = cartan.validate_datum([[2, -1], [-3, 2]], [3, 1])
        assert d.g[0][1] == 1

    def test_diagonal_must_be_two(self):
        with pytest.raises(NotCartanError):
            cartan.validate_datum([[1]], [1])

    def test_positive_offdiagonal_rejected(self):
        with pytest.raises(NotCartanError):
            cartan.validate_datum([[2, 1], [1, 2]], [1, 1])

    def test_zero_edge_has_zero_gcd(self):
        assert A3.g[0][2] == 0


class TestReflections:
    def test_b2_s1_alpha2(self):
        assert cartan.reflect_root(B2, 0, (0, 1)) == (1, 1)

    def test_si_alphai(self):
        for datum in (B2, G2, A3):
            for i in range(datum.n):
                a = tuple(1 if t == i else 0 for t in range(datum.n))
                assert cartan.reflect_root(datum, i, a) == tuple(-x for x in a)

    def test_b2_s2_fixes_11(self):
        assert cartan.reflect_root(B2, 1, (1, 1)) == (1, 1)

    def test_involution_random(self):
        rng = random.Random(7)
        for datum in (B2, G2, A3, B3):
            for _ in range(50):
                v = tuple(rng.randint(-5, 5) for _ in range(datum.n))
                i = rng.randrange(datum.n)
                assert cartan.reflect_root(datum, i, cartan.reflect_root(datum, i, v)) == v

    def test_symmetric_form_invariance(self):
        rng = random.Random(11)
        for datum in (B2, G2, B3):
            for _ in range(40):
                a = tuple(rng.randint(-4, 4) for _ in range(datum.n))
                b = tuple(rng.randint(-4, 4) for _ in range(datum.n))
                i = rng.randrange(datum.n)
                sa = cartan.reflect_root(datum, i, a)
                sb = cartan.reflect_root(datum, i, b)
                assert cartan.symmetric_form(datum, a, b) == cartan.symmetric_form(datum, sa, sb)


class TestOrbits:
    def test_b2_alpha1_orbit(self):
        # alpha_1 is long in B2: its orbit is the four long roots.  The short
        # roots +-(0,1), +-(1,1) form the orbit of alpha_2.
        orbit, truncated = cartan.weyl_orbit(B2, (1, 0), 10)
        assert not truncated
        assert orbit == {(1, 0), (1, 2), (-1, 0), (-1, -2)}
        orbit2, _ = cartan.weyl_orbit(B2, (0, 1), 10)
        assert orbit2 == {(0, 1), (1, 1), (0, -1), (-1, -1)}

    def test_a1_orbit(self):
        orbit, truncated = cartan.weyl_orbit(A1, (1,))
        assert orbit == {(1,), (-1,)} and not truncated

    def test_g2_root_count(self):
        roots = set()
        for i in range(2):
            a = tuple(1 if t == i else 0 for t in range(2))
            roots |= cartan.weyl_orbit(G2, a)[0]
        assert len(roots) == 12

    def test_affine_orbit_truncates(self):
        _, truncated = cartan.weyl_orbit(AFF_A1, (1, 0), 9)
        assert truncated


class TestDynkin:
    def test_b2(self):
        assert cartan.is_dynkin(B2)

    def test_affine_a1(self):
        assert not cartan.is_dynkin(AFF_A1)

    def test_rank_one(self):
        assert cartan.is_dynkin(A1)


class TestPositiveRoots:
    @pytest.mark.parametrize(
        "datum,expected",
        [
            (B2, [(0, 1), (1, 0), (1, 1), (1, 2)]),
            (G2, [(0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3)]),
            (A1, [(1,)]),
        ],
    )
    def test_frozen_lists(self, datum, expected):
        assert cartan.positive_roots(datum) == sorted(expected)

    @pytest.mark.parametrize(
        "datum,count", [(A2, 3), (B2, 4), (A3, 6), (G2, 6), (B3, 9)]
    )
    def test_classical_counts(self, datum, count):
        roots = cartan.positive_roots(datum)
        assert len(roots) == count
        assert roots == brute_positive_roots(datum)

    def test_not_dynkin_raises(self):
        with pytest.raises(NotDynkinError):
            cartan.positive_roots(AFF_A1)


class TestOrientations:
    def test_b2_flip_at_sink(self):
        assert cartan.reflect_orientation(B2, B2_OMEGA, 0).pairs == frozenset({(1, 0)})

    def test_b2_flip_at_source(self):
        assert cartan.reflect_orientation(B2, B2_OMEGA, 1).pairs == frozenset({(1, 0)})

    def test_a3_middle_vertex_rejected(self):
        omega = cartan.validate_orientation(A3, [(0, 1), (1, 2)])
        with pytest.raises(NotSinkOrSourceError):
            cartan.reflect_orientation(A3, omega, 1)

    def test_double_flip_is_identity(self):
        for datum in (B2, B3):
            for omega in cartan.all_orientations(datum):
                for v in cartan.sinks(datum, omega):
                    again = cartan.reflect_orientation(
                        datum, cartan.reflect_orientation(datum, omega, v), v)
                    assert again.pairs == omega.pairs

    def test_both_directions_rejected(self):
        with pytest.raises(NotOrientationError):
            cartan.validate_orientation(B2, [(0, 1), (1, 0)])


class TestAdmissibleWords:
    def test_b2(self):
        cox, w0 = cartan.admissible_words(B2, B2_OMEGA)
        assert cox == (0, 1)
        assert w0 == (0, 1, 0, 1)
        betas, _ = cartan.beta_gamma_sequences(B2, w0)
        assert betas == [(1, 0), (1, 1), (1, 2), (0, 1)]

    def test_a1(self):
        omega = cartan.validate_orientation(A1, [])
        assert cartan.admissible_words(A1, omega) == ((0,), (0,))

    def test_g2_w0_length(self):
        _, w0 = cartan.admissible_words(G2, G2_OMEGA)
        assert len(w0) == 6
        betas, _ = cartan.beta_gamma_sequences(G2, w0)
        assert sorted(betas) == cartan.positive_roots(G2)

    def test_every_orientation_gives_w0(self):
        for datum in (A2, B2, A3, B3, G2):
            pos = set(cartan.positive_roots(datum))
            for omega in cartan.all_orientations(datum):
                _, w0 = cartan.admissible_words(datum, omega)
                betas, _ = cartan.beta_gamma_sequences(datum, w0)
                assert set(betas) == pos


class TestBetaGamma:
    def test_single_letter(self):
        betas, gammas = cartan.beta_gamma_sequences(B2, (0,))
        assert betas == [(1, 0)] and gammas == [(1, 0)]

    def test_not_reduced(self):
        with pytest.raises(NotReducedError):
            cartan.beta_gamma_sequences(B2, (0, 0))


class TestForms:
    def test_b2_frozen_matrices(self):
        fd = cartan.forms(B2, B2_OMEGA)
        assert fd.gram_sym == ((4, -2), (-2, 2))
        assert fd.gram_euler == ((2, 0), (-2, 1))
        assert fd.R == ((1, 0), (-2, 1))
        assert fd.coxeter_mat == ((-1, 1), (-2, 1))

    def test_rank_one(self):
        for k in (1, 2, 5):
            d = cartan.validate_datum([[2]], [k])
            fd = cartan.forms(d, cartan.validate_orientation(d, []))
            assert fd.gram_euler == ((k,),)
            assert fd.R == ((1,),)
            assert fd.coxeter_mat == ((-1,),)

    def test_symmetrization_identity(self):
        rng = random.Random(3)
        for datum, omega in ((B2, B2_OMEGA), (G2, G2_OMEGA)):
            for _ in range(30):
                a = tuple(rng.randint(-4, 4) for _ in range(datum.n))
                b = tuple(rng.randint(-4, 4) for _ in range(datum.n))
                lhs = cartan.euler_form(datum, omega, a, b) + cartan.euler_form(datum, omega, b, a)
                assert lhs == cartan.symmetric_form(datum, a, b)

    def test_reflection_invariance_of_euler_form(self):
        # over every Dynkin datum of rank <= 4, every orientation, random vectors
        from symquiv.verify import catalog_rank_le_4
        rng = random.Random(5)
        for datum in catalog_rank_le_4().values():
            for omega in cartan.all_orientations(datum):
                for i in set(cartan.sinks(datum, omega)) | set(cartan.sources(datum, omega)):
                    somega = cartan.reflect_orientation(datum, omega, i)
                    for _ in range(6):
                        a = tuple(rng.randint(-3, 3) for _ in range(datum.n))
                        b = tuple(rng.randint(-3, 3) for _ in range(datum.n))
                        sa = cartan.reflect_root(datum, i, a)
                        sb = cartan.reflect_root(datum, i, b)
                        assert cartan.euler_form(datum, omega, a, b) == \
                            cartan.euler_form(datum, somega, sa, sb)

    def test_coxeter_identity_rank_le_4(self):
        data = [A1, A2, A3, B2, B3, G2,
                cartan.validate_datum(
                    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
                    [1, 1, 1, 1]),
                cartan.validate_datum(
                    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
                    [2, 2, 2, 1])]
        for base in data:
            for mult in (1, 2):
                datum = cartan.validate_datum(
                    [list(r) for r in base.C], [mult * d for d in base.D])
                for omega in cartan.all_orientations(datum):
                    cartan.forms(datum, omega)  # internal cross-check raises on failure


class TestKostant:
    """Kostant partition counts: the PBW multiplicity vectors of one weight
    are the ways to write it as a sum of positive roots."""

    @staticmethod
    def kostant_count(datum, r):
        omega = cartan.all_orientations(datum)[0]
        table = functors.all_root_modules(hmod.HAlgebraSpec(datum, omega, RATIONALS))
        vectors = verify.pbw_multiplicity_vectors(table, r)
        return sum(1 for _, weight in vectors if weight == tuple(r))

    def test_b2_11(self):
        assert self.kostant_count(B2, (1, 1)) == 2

    def test_zero(self):
        for datum in (B2, G2, A3):
            assert self.kostant_count(datum, tuple([0] * datum.n)) == 1

    def test_b2_12(self):
        assert self.kostant_count(B2, (1, 2)) == 3

    def test_matches_enumeration_oracle(self):
        pos = cartan.positive_roots(B3)

        def brute(r):
            def rec(rem, idx):
                if all(x == 0 for x in rem):
                    return 1
                if idx == len(pos):
                    return 0
                best = 0
                cur = list(rem)
                while all(x >= 0 for x in cur):
                    best += rec(tuple(cur), idx + 1)
                    cur = [a - b for a, b in zip(cur, pos[idx])]
                return best
            return rec(r, 0)

        for r in [(1, 1, 1), (2, 1, 0), (1, 2, 2)]:
            assert self.kostant_count(B3, r) == brute(r)


class TestJson:
    def test_one_based_pairs(self):
        text = '{"C": [[2, -1], [-2, 2]], "D": [2, 1], "Omega": [[1, 2]]}'
        datum, omega = cartan.datum_from_json(text)
        assert datum == B2 and omega.pairs == B2_OMEGA.pairs
