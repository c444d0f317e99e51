"""Torus localization (grassmann.torus_weighting, grassmann.coordinate_counts):
the gate against a dense nullspace oracle, the coordinate counts against the
point counts and against the cluster-mutation oracle."""

import functools
import itertools

import pytest

from symquiv import cartan, cluster, functors, grassmann, hmod, linalg, verify
from symquiv.fields import QQ, RATIONALS

CATALOG = verify.catalog_rank_le_4()
# label -> (datum, orientation pairs)
DATA = {
    "B2": ("B2", [(0, 1)]),
    "G2": ("G2", [(0, 1)]),
    "B3": ("B3", [(0, 1), (1, 2)]),
    "B3b": ("B3", [(0, 1), (2, 1)]),
    "C3": ("C3", [(0, 1), (1, 2)]),
    "D4": ("D4", [(0, 1), (1, 2), (1, 3)]),
    "B4": ("B4", [(0, 1), (1, 2), (2, 3)]),
    "F4": ("F4", [(0, 1), (1, 2), (2, 3)]),
}
# the roots whose basis no weighting separates
COLLIDED = {
    "G2": [(2, 3)],
    "B3": [(1, 2, 2)],
    "B3b": [(1, 2, 2)],
    "D4": [(1, 2, 1, 1)],
    "B4": [(1, 2, 2, 2), (1, 1, 2, 2), (0, 1, 2, 2)],
    "F4": [(1, 2, 2, 0), (1, 2, 2, 1), (2, 3, 4, 2), (1, 2, 2, 2), (1, 2, 3, 1),
           (1, 3, 4, 2), (1, 2, 3, 2), (1, 2, 4, 2)],
}


@functools.cache
def table(label):
    name, pairs = DATA[label]
    datum = CATALOG[name]
    omega = cartan.validate_orientation(datum, pairs)
    return functors.all_root_modules(hmod.HAlgebraSpec(datum, omega, RATIONALS))


def structure_maps(M):
    return [(M.eps[v], v, v) for v in range(M.spec.datum.n)] + \
        [(A, j, i) for (i, j, _), A in M.arrows.items()]


def oracle_collides(M):
    """Whether two basis vectors at one vertex agree on every vector of the
    nullspace of the whole system w(a) - w(b) - d_A = 0 (one row per nonzero
    entry A[a][b]), computed densely over Q."""
    offset = [0]
    for d in M.dims:
        offset.append(offset[-1] + d)
    maps = structure_maps(M)
    ncols = offset[-1] + len(maps)
    rows = []
    for m, (A, src, tgt) in enumerate(maps):
        for a, row in enumerate(A):
            for b, x in enumerate(row):
                if x:
                    eq = [0] * ncols
                    eq[offset[tgt] + a] += 1
                    eq[offset[src] + b] -= 1
                    eq[offset[-1] + m] -= 1
                    rows.append(eq)
    null = linalg.nullspace(QQ, rows, ncols)
    for v in range(M.spec.datum.n):
        coords = {tuple(vec[x] for vec in null) for x in range(offset[v], offset[v + 1])}
        if len(coords) < M.dims[v]:
            return True
    return False


def point_count_f_polynomial(M):
    """{e: chi} fitted to count_locally_free_submodules over primes."""
    rk = hmod.require_locally_free(M)
    reduced = {}

    def reduce(p):
        if p not in reduced:
            reduced[p] = hmod.reduce_mod_p(M, p)
        return reduced[p]

    terms = {}
    for e in itertools.product(*(range(r + 1) for r in rk)):
        bound = sum(c * x * (r - x) for c, x, r in zip(M.spec.datum.D, e, rk))
        poly = grassmann.interpolate_counts(
            lambda p: grassmann.count_locally_free_submodules(reduce(p), e), bound)
        if poly.value_at_one():
            terms[e] = poly.value_at_one()
    return terms


@pytest.mark.parametrize("label", sorted(DATA))
def test_gate_agrees_with_dense_nullspace(label):
    t = table(label)
    refused = [beta for beta, m in zip(t.betas, t.modules)
               if grassmann.torus_weighting(m) is None]
    assert sorted(refused) == sorted(COLLIDED.get(label, []))
    for beta, m in zip(t.betas, t.modules):
        assert oracle_collides(m) == (beta in refused), beta


@pytest.mark.parametrize("label", sorted(DATA))
def test_weighting_is_homogeneous_and_separating(label):
    t = table(label)
    for beta, m in zip(t.betas, t.modules):
        w = grassmann.torus_weighting(m)
        if w is None:
            continue
        assert all(len(set(wv)) == len(wv) == d for wv, d in zip(w, m.dims)), beta
        for A, src, tgt in structure_maps(m):
            shifts = {w[tgt][a] - w[src][b] for a, row in enumerate(A)
                      for b, x in enumerate(row) if x}
            assert len(shifts) <= 1, beta


@pytest.mark.parametrize("label,beta", [("G2", (2, 3)), ("B3", (1, 2, 2)),
                                        ("B3b", (1, 2, 2)), ("D4", (1, 2, 1, 1))])
def test_gate_refuses_collided_roots(label, beta):
    m = table(label).module_of(beta)
    assert grassmann.torus_weighting(m) is None
    assert grassmann.coordinate_counts(m) is None


def test_gate_refuses_non_canonical_eps():
    # the B2 root (1, 1) with its basis at vertex 0 reversed: the same module,
    # eps no longer in chain form, so it goes to the point count
    m = table("B2").module_of((1, 1))
    flip = hmod.change_vertex_basis(hmod.HModule(m.spec, m.dims, m.eps, m.arrows), 0,
                                    [[0, 1], [1, 0]])
    assert grassmann.coordinate_counts(m) is not None
    assert grassmann.coordinate_counts(flip) is None
    assert grassmann.EulerEngine().f_polynomial(flip) == {(0, 0): 1, (1, 0): 1, (1, 1): 1}


@pytest.mark.parametrize("beta", [(1, 0), (0, 1), (1, 1)])
def test_direct_sums_pass_the_gate(beta):
    # the two summands of M + M lie in different trees, so their equal path
    # vectors do not collide: each summand's weights can be shifted alone
    m = table("B2").module_of(beta)
    double = hmod.direct_sum(m, m)
    w = grassmann.torus_weighting(double)
    assert w is not None
    assert all(len(set(wv)) == len(wv) for wv in w)
    coordinate = grassmann.coordinate_counts(double)
    assert coordinate == point_count_f_polynomial(double)
    assert coordinate[tuple(2 * b for b in beta)] == 1


@pytest.mark.parametrize("label", ["B2", "B3", "B3b", "C3", "G2"])
def test_coordinate_counts_equal_point_counts(label):
    t = table(label)
    passed = 0
    for beta, m in zip(t.betas, t.modules):
        coordinate = grassmann.coordinate_counts(m)
        if coordinate is None:
            continue
        passed += 1
        assert coordinate == point_count_f_polynomial(m), beta
        assert grassmann.EulerEngine().f_polynomial(m) == coordinate, beta
    assert passed == len(t.modules) - len(COLLIDED.get(label, []))


@pytest.mark.parametrize("label", ["B4", "F4"])
def test_gated_roots_match_cluster_variables(label):
    t = table(label)
    spec = t.modules[0].spec
    engine = grassmann.EulerEngine()
    module_side = [(beta, engine.f_polynomial(m), grassmann.g_vector(m))
                   for beta, m in zip(t.betas, t.modules) if beta not in COLLIDED[label]]
    report = cluster.match_report(spec.datum, spec.omega, module_side)
    assert report["missed"] == []
    assert len(report["matched"]) == len(t.modules) - len(COLLIDED[label])
    assert not any(isinstance(poly, grassmann.CountingPolynomial)
                   for poly in engine.transcripts.values())
