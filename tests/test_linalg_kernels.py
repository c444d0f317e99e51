"""The row kernels of linalg (mat_mul, mat_vec, rref and through it rank,
nullspace, solve and inverse, in_span) against per-element references
written with field.add / field.sub / field.mul, on random sparse and dense
matrices over F_5, F_17 and Q: equal values, and over Q the same type (int
or Fraction) for every entry."""

import random
from fractions import Fraction

import pytest

from symquiv import linalg
from symquiv.fields import QQ, prime_field_spec


def ref_mat_mul(field, a, b):
    if not a or not b:
        return []
    out = []
    for ai in a:
        row = []
        for j in range(len(b[0])):
            s = field.zero
            for t in range(len(b)):
                if ai[t] != field.zero:
                    s = field.add(s, field.mul(ai[t], b[t][j]))
            row.append(s)
        out.append(row)
    return out


def ref_mat_vec(field, a, v):
    out = []
    for row in a:
        s = field.zero
        for x, y in zip(row, v):
            if x != field.zero and y != field.zero:
                s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def ref_rref(field, a):
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != field.zero), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def ref_in_span(field, basis_rref, v):
    v = v[:]
    for row in basis_rref:
        lead = next((c for c, x in enumerate(row) if x != field.zero), None)
        if lead is not None and v[lead] != field.zero:
            f = v[lead]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return all(x == field.zero for x in v)


def same(x, y):
    """Equal values, and the same type entry by entry (int or Fraction)."""
    if isinstance(x, (list, tuple)):
        return type(x) is type(y) and len(x) == len(y) and all(map(same, x, y))
    return x == y and type(x) is type(y)


FIELDS = {"F5": prime_field_spec(5).field(), "F17": prime_field_spec(17).field(),
          "Q": QQ, "Q-fractions": QQ}


def entry(label, rng, density):
    """A random field element, zero with probability 1 - density."""
    if rng.random() >= density:
        return 0
    if label.startswith("F"):
        return rng.randrange(1, FIELDS[label].p)
    x = rng.randint(-4, 4)
    if label == "Q-fractions" and rng.random() < 0.5:
        # includes integral-valued Fractions, such as Fraction(4, 2)
        return Fraction(x, rng.choice([1, 2, 3, 6]))
    return x


def matrix(label, rng, rows, cols, density):
    return [[entry(label, rng, density) for _ in range(cols)] for _ in range(rows)]


def cases(label, seed, count=60):
    rng = random.Random(seed)
    for k in range(count):
        density = (0.2, 0.5, 0.95)[k % 3]
        yield rng, density, rng.randint(1, 6), rng.randint(1, 7)


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_products_equal_per_element_reference(label):
    field = FIELDS[label]
    for rng, density, n, k in cases(label, 1):
        a = matrix(label, rng, n, k, density)
        b = matrix(label, rng, k, rng.randint(1, 6), density)
        v = [entry(label, rng, density) for _ in range(k)]
        assert same(linalg.mat_mul(field, a, b), ref_mat_mul(field, a, b)), (a, b)
        assert same(linalg.mat_vec(field, a, v), ref_mat_vec(field, a, v)), (a, v)
    assert linalg.mat_mul(field, [], [[1]]) == [] == ref_mat_mul(field, [], [[1]])


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_eliminations_equal_per_element_reference(label, monkeypatch):
    # rank, nullspace, solve and inverse run on linalg.rref: once on the row
    # kernel, once with the reference rref patched in
    field = FIELDS[label]
    for rng, density, n, k in cases(label, 2):
        a = matrix(label, rng, n, k, density)
        b = [entry(label, rng, density) for _ in range(n)]
        square = matrix(label, rng, k, k, density)
        if rng.random() < 0.3:  # a singular one now and then
            square[-1] = square[0][:]

        def results():
            return (linalg.rref(field, a), linalg.rank(field, a), linalg.nullspace(field, a),
                    linalg.solve(field, a, b), linalg.inverse(field, square))

        fast = results()
        monkeypatch.setattr(linalg, "rref", ref_rref)
        slow = results()
        monkeypatch.undo()
        assert same(fast, slow), (a, b, square)


@pytest.mark.parametrize("label", sorted(FIELDS))
def test_in_span_equals_per_element_reference(label):
    field = FIELDS[label]
    members = 0
    for rng, density, n, k in cases(label, 3):
        basis = linalg.row_space(field, matrix(label, rng, n, k, density))
        combo = [entry(label, rng, 0.7) for _ in basis]
        inside = [field.zero] * k
        for coeff, row in zip(combo, basis):
            inside = [field.add(x, field.mul(coeff, y)) for x, y in zip(inside, row)]
        outside = [entry(label, rng, density) for _ in range(k)]
        for v in (inside, outside):
            assert linalg.in_span(field, basis, v) == ref_in_span(field, basis, v), (basis, v)
        members += linalg.in_span(field, basis, outside)
        assert linalg.in_span(field, basis, inside)
    assert members < 60
