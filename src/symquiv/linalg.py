"""Exact dense linear algebra over the fields in :mod:`symquiv.fields`.

Matrices are lists of row lists.  Everything here is plain Gaussian
elimination; sizes in this package stay small (vertexwise dimensions of
modules are a few dozen at most), so clarity beats asymptotics.  Integer
helpers (Bareiss determinant, inverse over Q) serve the Cartan-side
combinatorics.
"""

from __future__ import annotations

import math

from .fields import QQ as QQ_SINGLETON


def zeros(field, m, n):
    z = field.zero
    return [[z] * n for _ in range(m)]


def identity(field, n):
    o, z = field.one, field.zero
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(field, a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    add, mul, z = field.add, field.mul, field.zero
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            s = z
            for t in range(k):
                x = ai[t]
                if x != z:
                    s = add(s, mul(x, b[t][j]))
            row.append(s)
        out.append(row)
    return out


def mat_add(field, a, b):
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ValueError("matrix shapes differ in mat_add")
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(field, a, b):
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ValueError("matrix shapes differ in mat_sub")
    return [[field.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(field, a):
    return [[field.neg(x) for x in row] for row in a]


def mat_vec(field, a, v):
    add, mul, z = field.add, field.mul, field.zero
    out = []
    for row in a:
        s = z
        for x, y in zip(row, v):
            if x != z and y != z:
                s = add(s, mul(x, y))
        out.append(s)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_pow(field, a, k):
    n = len(a)
    out = identity(field, n)
    for _ in range(k):
        out = mat_mul(field, out, a)
    return out


def copy_mat(a):
    return [row[:] for row in a]


def rref(field, a):
    """Row-reduce a copy of ``a``; returns (matrix, pivot column list)."""
    m = copy_mat(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    z = field.zero
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != z:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != z:
                f = m[i][c]
                mi, mr = m[i], m[r]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(mi, mr)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(field, a):
    if not a or not a[0]:
        return 0
    return len(rref(field, a)[1])


def nullspace(field, a, ncols=None):
    """Basis (list of vectors) of the right kernel of ``a``."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    if not a or ncols == 0:
        return [[field.one if i == j else field.zero for j in range(ncols)]
                for i in range(ncols)] if ncols else []
    r, pivots = rref(field, a)
    piv_set = set(pivots)
    free = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(r[i][fc])
        basis.append(v)
    return basis


def solve(field, a, b):
    """One solution x of a x = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    r, pivots = rref(field, aug)
    if cols in pivots:
        return None
    x = [field.zero] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def inverse(field, a):
    n = len(a)
    aug = [a[i][:] + identity(field, n)[i] for i in range(n)]
    r, pivots = rref(field, aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]


def row_space(field, vectors):
    """Canonical (RREF) basis of the span of ``vectors``."""
    if not vectors:
        return []
    r, pivots = rref(field, vectors)
    return [r[i] for i in range(len(pivots))]


def in_span(field, basis_rref, v):
    """Membership test against an RREF basis (rows with leading ones)."""
    z = field.zero
    v = v[:]
    for row in basis_rref:
        lead = next((c for c, x in enumerate(row) if x != z), None)
        if lead is None:
            continue
        if v[lead] != z:
            f = v[lead]
            v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
    return all(x == z for x in v)


# --- integer helpers (exact, for Cartan-side computations) ---


def int_det(a):
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def int_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def int_inverse(a):
    """Inverse of an integer matrix as integer rows; None unless the matrix is
    unimodular, i.e. invertible with an integral inverse."""
    inv = inverse(QQ_SINGLETON, a)
    if inv is None:
        return None
    out = []
    for row in inv:
        r = []
        for x in row:
            if x.denominator != 1:
                return None
            r.append(int(x))
        out.append(r)
    return out


def lagrange_interpolate(points):
    """Integer-polynomial coefficients (ascending) through exact integer
    points (x, y), trailing zeros stripped.

    Returns None when the interpolant is not an integer polynomial.  Works in
    integers: with N_i = prod_{j != i} (x - x_j) and d_i = N_i(x_i), the
    interpolant times L = lcm(d_i) is sum_i y_i (L / d_i) N_i, and it is
    integral iff L divides every coefficient of that sum.
    """
    xs = [x for x, _ in points]
    full = [1]  # prod_j (x - x_j), ascending
    for xj in xs:
        full = [0] + full
        for k in range(len(full) - 1):
            full[k] -= xj * full[k + 1]
    dens = [math.prod(xi - xj for j, xj in enumerate(xs) if j != i) for i, xi in enumerate(xs)]
    scale = math.lcm(*dens)
    coeffs = [0] * len(points)
    for (xi, yi), d in zip(points, dens):
        f = yi * (scale // d)
        carry = 0
        for k in range(len(points), 0, -1):  # N_i = full / (x - x_i), synthetic division
            carry = full[k] + xi * carry
            coeffs[k - 1] += f * carry
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c % scale for c in coeffs):
        return None
    return [c // scale for c in coeffs]


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
