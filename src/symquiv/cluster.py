"""Finite-type cluster algebras with principal coefficients, by seed mutation.

This is the independent oracle for the module-theoretic F-polynomials and
g-vectors: it never touches modules, only the exchange matrix built from the
Cartan datum and orientation.  Mutation tracks the B-matrix, the c- and
g-vector matrices and the F-polynomials with exact integer arithmetic; the
c-vector sign coherence of finite type picks the tropical sign at each step.

The cluster variables are reached by one walk: mutate the acyclic initial
seed along the orientation's Coxeter word, pass after pass.  In finite type
this sequence reaches every cluster variable (Yang-Zelevinsky), |Phi^+| + n
of them, within h + 2 passes (h the Coxeter number; Zamolodchikov
periodicity).  A walk that falls short of that count within the bound is a
broken invariant.

The exchange matrix's sign convention (SIGN) was calibrated once against the
module side; the opposite convention misses every root beyond A1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cartan
from .errors import InternalMismatchError, NotDynkinError

# initial_seed sets b_ij = SIGN * c_ij for (i, j) in omega: the convention the
# module-side F-polynomials and g-vectors match (cluster-match reports it as
# "sign").
SIGN = -1

# F-polynomials: dict from exponent tuples to nonzero int coefficients.


def poly_one(n):
    return {(0,) * n: 1}


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def poly_pow(a, k, n):
    out = poly_one(n)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_div_exact(num, den, n):
    """Exact division 'num / den' for den with unit constant term."""
    zero = (0,) * n
    if den.get(zero) != 1:
        raise ArithmeticError("divisor must have constant term 1")
    rem = dict(num)
    quot = {}
    order = lambda e: (sum(e), e)  # noqa: E731
    while rem:
        e = min(rem, key=order)
        c = rem[e]
        quot[e] = c
        for f, cf in den.items():
            g = tuple(x + y for x, y in zip(e, f))
            s = rem.get(g, 0) - c * cf
            if s:
                rem[g] = s
            elif g in rem:
                del rem[g]
    return quot


def poly_canon(a):
    return tuple(sorted(a.items()))


@dataclass(frozen=True)
class ClusterSeed:
    B: tuple       # exchange matrix
    C: tuple       # c-vector matrix (principal coefficients start = identity)
    G: tuple       # g-vector matrix (columns are g-vectors)
    F: tuple       # canonical forms of the n F-polynomials

    @property
    def n(self):
        return len(self.B)

    def g_vector(self, k):
        return tuple(self.G[i][k] for i in range(self.n))


def initial_seed(datum, omega) -> ClusterSeed:
    """Acyclic seed of the orientation with principal coefficients:
    b_ij = -c_ij and b_ji = c_ji for each (i, j) in omega, 0 off the edges,
    so b_ij > 0 exactly when (i, j) is in omega."""
    if not cartan.is_dynkin(datum):
        raise NotDynkinError("finite-type oracle needs a Dynkin datum")
    n = datum.n
    B = [[0] * n for _ in range(n)]
    for i, j in omega.pairs:
        B[i][j] = -datum.C[i][j]
        B[j][i] = datum.C[j][i]
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    fpolys = tuple(poly_canon(poly_one(n)) for _ in range(n))
    return ClusterSeed(tuple(tuple(row) for row in B), ident, ident, fpolys)


def mutate(seed: ClusterSeed, k: int) -> ClusterSeed:
    n = seed.n
    if not 0 <= k < n:
        raise IndexError(f"direction {k} out of range")
    B = [list(row) for row in seed.B]
    C = [list(row) for row in seed.C]
    G = [list(row) for row in seed.G]
    F = [dict(f) for f in seed.F]
    # tropical sign from the c-vector in direction k (sign-coherence)
    eps = 1 if any(C[j][k] > 0 for j in range(n)) else -1
    # F-polynomial exchange
    pos = poly_one(n)
    neg = poly_one(n)
    for j in range(n):
        if C[j][k] > 0:
            mono = {tuple(C[j][k] if t == j else 0 for t in range(n)): 1}
            pos = poly_mul(pos, mono)
        elif C[j][k] < 0:
            mono = {tuple(-C[j][k] if t == j else 0 for t in range(n)): 1}
            neg = poly_mul(neg, mono)
        if B[j][k] > 0:
            pos = poly_mul(pos, poly_pow(F[j], B[j][k], n))
        elif B[j][k] < 0:
            neg = poly_mul(neg, poly_pow(F[j], -B[j][k], n))
    F[k] = poly_div_exact(poly_add(pos, neg), F[k], n)
    # g-vectors
    J = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        if j != k:
            J[j][k] = max(0, -eps * B[j][k])
    J[k][k] = -1
    G = [[sum(G[i][t] * J[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    # c-vectors
    J = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        if j != k:
            J[k][j] = max(0, eps * B[k][j])
    J[k][k] = -1
    C = [[sum(C[i][t] * J[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    # exchange matrix
    newB = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                newB[i][j] = -B[i][j]
            else:
                newB[i][j] = B[i][j] + max(0, B[i][k]) * max(0, B[k][j]) \
                    - max(0, -B[i][k]) * max(0, -B[k][j])
    return ClusterSeed(tuple(tuple(r) for r in newB),
                       tuple(tuple(r) for r in C),
                       tuple(tuple(r) for r in G),
                       tuple(poly_canon(f) for f in F))


def coxeter_walk(datum, omega):
    """All (F-polynomial, g-vector) pairs of the cluster algebra, reached by
    mutating initial_seed(datum, omega) along cartan.coxeter_word, pass after
    pass, until there are |Phi^+| + n of them.

    Raises InternalMismatchError if h + 2 passes do not reach that count.
    """
    seed = initial_seed(datum, omega)
    n = datum.n
    npos = len(cartan.positive_roots(datum))
    target = npos + n
    variables = {(seed.F[k], seed.g_vector(k)) for k in range(n)}
    passes = 2 * npos // n + 2  # h + 2, with h = 2 |Phi^+| / n
    for k in cartan.coxeter_word(datum, omega) * passes:
        if len(variables) == target:
            break
        seed = mutate(seed, k)
        variables.add((seed.F[k], seed.g_vector(k)))
    if len(variables) != target:
        raise InternalMismatchError(
            f"Coxeter walk found {len(variables)} cluster variables in {passes} "
            f"passes, expected |Phi^+| + n = {target}")
    return variables


def match_report(datum, omega, module_side):
    """Compare module pairs (beta, F as exponent dict, g) with the oracle;
    returns a dict with the matched and missed betas and the variable count."""
    variables = coxeter_walk(datum, omega)
    matched, missed = [], []
    for beta, fdict, g in module_side:
        if (poly_canon(fdict), tuple(g)) in variables:
            matched.append(tuple(beta))
        else:
            missed.append(tuple(beta))
    return {"matched": matched, "missed": missed,
            "cluster_variable_count": len(variables)}
