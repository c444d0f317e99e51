import pytest

from symquiv import cartan, cluster, functors, grassmann, hmod, linalg, verify
from symquiv.errors import InternalMismatchError
from symquiv.fields import RATIONALS

A1 = cartan.validate_datum([[2]], [1])
A2 = cartan.validate_datum([[2, -1], [-1, 2]], [1, 1])
A3 = cartan.validate_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1])
B2 = cartan.validate_datum([[2, -1], [-2, 2]], [2, 1])
B3 = cartan.validate_datum([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 2, 1])
G2 = cartan.validate_datum([[2, -1], [-3, 2]], [3, 1])

OM_A1 = cartan.validate_orientation(A1, [])
OM_A2 = cartan.validate_orientation(A2, [(0, 1)])
OM_A3 = cartan.validate_orientation(A3, [(0, 1), (1, 2)])
OM_B2 = cartan.validate_orientation(B2, [(0, 1)])
OM_B3 = cartan.validate_orientation(B3, [(0, 1), (1, 2)])
OM_G2 = cartan.validate_orientation(G2, [(0, 1)])


class TestInitialSeed:
    def test_b2_magnitudes(self):
        seed = cluster.initial_seed(B2, OM_B2)
        assert abs(seed.B[0][1]) == 1 and abs(seed.B[1][0]) == 2
        assert seed.B[0][1] * seed.B[1][0] < 0

    def test_a1(self):
        assert cluster.initial_seed(A1, OM_A1).B == ((0,),)

    def test_g2_product(self):
        seed = cluster.initial_seed(G2, OM_G2)
        assert abs(seed.B[0][1] * seed.B[1][0]) == 3

    def test_skew_symmetrizability(self):
        for datum, omega in ((B2, OM_B2), (G2, OM_G2), (B3, OM_B3)):
            seed = cluster.initial_seed(datum, omega)
            n = datum.n
            for i in range(n):
                for j in range(n):
                    assert datum.D[i] * seed.B[i][j] == -datum.D[j] * seed.B[j][i]


class TestMutation:
    def test_involution(self):
        for datum, omega in ((A2, OM_A2), (B2, OM_B2), (G2, OM_G2)):
            seed = cluster.initial_seed(datum, omega)
            for k in range(datum.n):
                assert cluster.mutate(cluster.mutate(seed, k), k) == seed

    def test_a1_first_mutation(self):
        seed = cluster.mutate(cluster.initial_seed(A1, OM_A1), 0)
        assert dict(seed.F[0]) == {(0,): 1, (1,): 1}
        assert seed.g_vector(0) == (-1,)

    def test_f_constant_term_one(self):
        seed = cluster.initial_seed(B2, OM_B2)
        for ks in [(0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1, 0)]:
            s = seed
            for k in ks:
                s = cluster.mutate(s, k)
            for c in range(2):
                assert dict(s.F[c]).get((0, 0)) == 1

    def test_g_matrix_unimodular(self):
        seed = cluster.initial_seed(B2, OM_B2)
        for ks in [(0, 1), (1, 0, 1)]:
            s = seed
            for k in ks:
                s = cluster.mutate(s, k)
            assert abs(linalg.int_det([list(r) for r in s.G])) == 1

    def test_skew_preserved(self):
        s = cluster.initial_seed(B3, OM_B3)
        for k in (0, 1, 2, 1, 0):
            s = cluster.mutate(s, k)
            for i in range(3):
                for j in range(3):
                    assert B3.D[i] * s.B[i][j] == -B3.D[j] * s.B[j][i]


def closure_variables(seed):
    """All (F-polynomial, g-vector) pairs over the mutation closure of the
    seed, by breadth-first search over seeds: the oracle for the walk."""
    n = seed.n
    variables = {(seed.F[k], seed.g_vector(k)) for k in range(n)}
    visited = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for s in frontier:
            for k in range(n):
                t = cluster.mutate(s, k)
                if t in visited:
                    continue
                visited.add(t)
                variables.update((t.F[c], t.g_vector(c)) for c in range(n))
                nxt.append(t)
        frontier = nxt
    return variables


CATALOG = verify.catalog_rank_le_4()
# every orientation of the small data, one orientation of each rank-4 datum:
# the closure of a rank-4 seed takes up to about a second
DIFFERENTIAL = [(name, omega) for name in ("A2", "A3", "B2", "B3", "C3", "G2")
                for omega in cartan.all_orientations(CATALOG[name])]
DIFFERENTIAL += [(name, cartan.all_orientations(CATALOG[name])[0])
                 for name in ("A4", "B4", "C4", "D4", "F4")]


class TestEnumeration:
    @pytest.mark.parametrize("datum,omega,count", [
        (A1, OM_A1, 2), (A2, OM_A2, 5), (B2, OM_B2, 6), (G2, OM_G2, 8),
        (A3, OM_A3, 9), (B3, OM_B3, 12),
    ])
    def test_variable_counts(self, datum, omega, count):
        # n initial variables plus one per positive root
        variables = cluster.coxeter_walk(datum, omega)
        assert len(variables) == count
        npos = len(cartan.positive_roots(datum))
        assert count == datum.n + npos

    def test_non_initial_count(self):
        variables = cluster.coxeter_walk(B2, OM_B2)
        one = cluster.poly_canon(cluster.poly_one(2))
        non_initial = [v for v in variables if v[0] != one]
        assert len(non_initial) == 4

    @pytest.mark.parametrize("name,omega", DIFFERENTIAL,
                             ids=[f"{name}-{sorted(om.pairs)}" for name, om in DIFFERENTIAL])
    def test_walk_equals_mutation_closure(self, name, omega):
        datum = CATALOG[name]
        assert cluster.coxeter_walk(datum, omega) == \
            closure_variables(cluster.initial_seed(datum, omega))

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_walk_count_in_every_orientation(self, name):
        datum = CATALOG[name]
        target = len(cartan.positive_roots(datum)) + datum.n
        for omega in cartan.all_orientations(datum):
            assert len(cluster.coxeter_walk(datum, omega)) == target

    def test_short_walk_is_a_broken_invariant(self, monkeypatch):
        # a word that mutates at one vertex only flips between two seeds
        monkeypatch.setattr(cartan, "coxeter_word", lambda datum, omega: (0,))
        with pytest.raises(InternalMismatchError, match="expected"):
            cluster.coxeter_walk(B2, OM_B2)


class TestMatchReport:
    def test_b2_full_match(self):
        spec = hmod.HAlgebraSpec(B2, OM_B2, RATIONALS)
        table = functors.all_root_modules(spec)
        engine = grassmann.EulerEngine()
        module_side = []
        for beta, m in zip(table.betas, table.modules):
            module_side.append((beta, engine.f_polynomial(m), grassmann.g_vector(m)))
        report = cluster.match_report(B2, OM_B2, module_side)
        assert report["missed"] == []
        assert len(report["matched"]) == 4

    def test_b2_reversed_orientation_full_match(self):
        om = cartan.validate_orientation(B2, [(1, 0)])
        spec = hmod.HAlgebraSpec(B2, om, RATIONALS)
        table = functors.all_root_modules(spec)
        engine = grassmann.EulerEngine()
        module_side = [(beta, engine.f_polynomial(m), grassmann.g_vector(m))
                       for beta, m in zip(table.betas, table.modules)]
        report = cluster.match_report(B2, om, module_side)
        assert report["missed"] == []
