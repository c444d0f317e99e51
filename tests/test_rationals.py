"""Integral rationals stay Python ints (fields.RationalField): the element
types the engines produce over Q, their agreement with Fraction-valued
modules in every fingerprint, and the one-word root-module table
(functors.all_root_modules) against root_module."""

from fractions import Fraction

import pytest

from symquiv import cartan, functors, grassmann, hmod, linalg, verify
from symquiv.fields import QQ, RATIONALS, FieldSpec

CATALOG = verify.catalog_rank_le_4()
# label -> (datum, orientation pairs)
DATA = {
    "B2": ("B2", [(0, 1)]),
    "G2": ("G2", [(0, 1)]),
    "B3": ("B3", [(0, 1), (1, 2)]),
    "C4": ("C4", [(0, 1), (1, 2), (2, 3)]),
    "F4": ("F4", [(0, 1), (1, 2), (2, 3)]),
}


def _spec(label):
    name, pairs = DATA[label]
    datum = CATALOG[name]
    return hmod.HAlgebraSpec(datum, cartan.validate_orientation(datum, pairs), RATIONALS)


def _entries(M):
    for m in list(M.eps) + [M.arrows[k] for k in sorted(M.arrows)]:
        for row in m:
            yield from row


def _with_entries(M, convert):
    return hmod.HModule(M.spec, M.dims, [[[convert(x) for x in row] for row in m] for m in M.eps],
                        {k: [[convert(x) for x in row] for row in m] for k, m in M.arrows.items()})


class TestRationalField:
    def test_units_and_constants_are_ints(self):
        assert type(QQ.zero) is int and type(QQ.one) is int
        assert type(QQ.from_int(-3)) is int
        for unit in (1, -1, Fraction(1), Fraction(-1)):
            inv = QQ.inv(unit)
            assert type(inv) is int and inv == unit

    def test_inverse_is_int_exactly_when_integral(self):
        assert QQ.inv(2) == Fraction(1, 2)
        assert QQ.inv(-2) == Fraction(-1, 2)
        assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
        assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
        assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)

    def test_rref_of_integral_rows(self):
        m, pivots = linalg.rref(QQ, [[2, 4, 1], [1, 3, 0]])
        assert pivots == [0, 1]
        assert m == [[1, 0, Fraction(3, 2)], [0, 1, Fraction(-1, 2)]]

    def test_int_inverse_of_integer_rows(self):
        assert linalg.int_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
        assert linalg.int_inverse([[2, 0], [0, 1]]) is None
        assert linalg.int_inverse([[1, 2], [2, 4]]) is None


class TestIntegralEntries:
    @pytest.mark.parametrize("label", sorted(DATA))
    def test_root_module_tables_are_ints(self, label):
        table = functors.all_root_modules(_spec(label))
        types = {type(x) for M in table.modules for x in _entries(M)}
        assert types == {int}

    @pytest.mark.parametrize("label, rank", [("B2", (2, 1)), ("G2", (1, 2)), ("B3", (1, 1, 2))])
    def test_random_locally_free_is_ints(self, label, rank):
        for seed in range(3):
            M = hmod.random_locally_free(_spec(label), rank, seed)
            assert {type(x) for x in _entries(M)} == {int}

    def test_json_reads_integral_entries_as_ints(self):
        M = functors.all_root_modules(_spec("B3")).modules[-1]
        back = hmod.module_from_json(M.spec, hmod.module_to_json(M))
        assert {type(x) for x in _entries(back)} == {int}
        assert hmod._entry_from_json(RATIONALS, "-1/2") == Fraction(-1, 2)
        assert hmod._entry_from_json(FieldSpec("Fp", 5), -1) == 4


class TestFractionAndIntAgree:
    @pytest.mark.parametrize("label", ["B2", "B3"])
    def test_same_json_key_hash_and_reductions(self, label):
        for M in functors.all_root_modules(_spec(label)).modules:
            F = _with_entries(M, Fraction)
            assert {type(x) for x in _entries(F)} == {Fraction}
            assert hmod.module_to_json(F) == hmod.module_to_json(M)
            assert F.key() == M.key() and hash(F.key()) == hash(M.key())
            for p in (5, 7):
                assert hmod.reduce_mod_p(F, p).key() == hmod.reduce_mod_p(M, p).key()

    def test_module_with_twos(self):
        M = hmod.random_locally_free(_spec("B2"), (2, 1), 3)
        twos = _with_entries(M, lambda x: 2 if x else x)
        ftwos = _with_entries(M, lambda x: Fraction(2) if x else x)
        assert 2 in set(_entries(twos)) and Fraction(2) in set(_entries(ftwos))
        assert hmod.module_to_json(twos) == hmod.module_to_json(ftwos)
        assert twos.key() == ftwos.key() and hash(twos.key()) == hash(ftwos.key())
        for p in (3, 5, 7):
            assert hmod.reduce_mod_p(twos, p).key() == hmod.reduce_mod_p(ftwos, p).key()

    def test_reduction_of_proper_fractions(self):
        original = hmod.random_locally_free(_spec("B2"), (2, 1), 3)
        halved = _with_entries(original, lambda x: Fraction(x, 2))
        half = pow(2, -1, 7)
        assert hmod.reduce_mod_p(halved, 7).key() == _with_entries(
            original, lambda x: x * half % 7).key()


class TestOneWordTable:
    @pytest.mark.parametrize("label", ["B3", "F4"])
    def test_table_equals_root_module(self, label):
        spec = _spec(label)
        table = functors.all_root_modules(spec)
        assert len(table.modules) == len(cartan.positive_roots_by_orbit(spec.datum))
        for k, M in enumerate(table.modules, start=1):
            assert functors.root_module(spec, k).key() == M.key()

    def test_table_computes_the_word_once(self, monkeypatch):
        calls = []
        admissible_words = cartan.admissible_words

        def counting(datum, omega):
            calls.append(omega)
            return admissible_words(datum, omega)

        monkeypatch.setattr(cartan, "admissible_words", counting)
        table = functors.all_root_modules(_spec("F4"))
        assert len(calls) == 1 and len(table.modules) == 24


def test_collided_module_is_weighted_once(monkeypatch):
    # G2 (2, 3) fails the torus gate and is counted on its fixed locus
    M = functors.all_root_modules(_spec("G2")).module_of((2, 3))
    assert grassmann.coordinate_counts(M) is None
    calls = []
    torus_weights = grassmann._torus_weights

    def counting(module):
        calls.append(module)
        return torus_weights(module)

    monkeypatch.setattr(grassmann, "_torus_weights", counting)
    engine = grassmann.EulerEngine()
    terms = engine.f_polynomial(M)
    assert len(calls) == 1
    assert terms[(0, 0)] == 1 and terms[(2, 3)] == 1
    assert {poly.variety for poly in engine.transcripts.values()
            if not isinstance(poly, int)} == {"fixed_locus"}
    calls.clear()
    assert engine.euler_char_grlf(M, (1, 1)) == terms.get((1, 1), 0)
    assert len(calls) == 1
