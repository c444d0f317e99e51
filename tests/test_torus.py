"""Torus localization (grassmann.torus_weighting, grassmann.coordinate_counts):
the gate against a dense nullspace oracle, the coordinate counts against the
point counts and against the cluster-mutation oracle; and the fixed-locus
counts of collided modules (iter_free_submodules(weights=)) against the
unweighted enumeration, a graded-submodule filter, the Grassmannian's point
counts and the cluster-mutation oracle."""

import functools
import itertools
import math
import re

import pytest

from symquiv import cartan, cluster, functors, grassmann, hmod, linalg, pimod, verify
from symquiv.errors import TooLargeError
from symquiv.fields import QQ, RATIONALS, prime_field_spec
from test_grassmann import RecordingBudget, contains

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


# --- the fixed locus of collided modules ------------------------------------

FIXED_LOCUS_ROOTS = [("G2", (2, 3)), ("B3", (1, 2, 2)), ("B3b", (1, 2, 2)), ("D4", (1, 2, 1, 1))] + \
    [("B4", beta) for beta in COLLIDED["B4"]]


def fixed_counts(M, p):
    """grassmann._LocallyFreeCounts of M mod p on the fixed locus of its torus."""
    weights, separated = grassmann._torus_weights(M)
    assert not separated
    return grassmann._LocallyFreeCounts(hmod.reduce_mod_p(M, p), weights)


def at_pivot_weight(cand, w):
    """Whether every nonzero entry of the pivot form sits at its pivot's weight."""
    c = cand.c
    return all(w[b * c + t] == w[pv * c]
               for col, pv in zip(cand.cols, cand.pivots)
               for b, h in enumerate(col) for t, x in enumerate(h) if x)


def reached_enumerations(M, p, monkeypatch):
    """The (p, c, r, e_v, forced span, weights) of every torus-fixed vertex
    enumeration that an F-polynomial's counts mod p reach."""
    calls = []
    enumerate_ = grassmann.iter_free_submodules

    def recorded(p, c, r, e, containing=(), weights=None, killed_by=()):
        assert not killed_by  # an H-module's constraint order is a DAG order
        calls.append((p, c, r, e, [list(w) for w in containing], weights))
        return enumerate_(p, c, r, e, containing, weights)

    counts = fixed_counts(M, p)
    monkeypatch.setattr(grassmann, "iter_free_submodules", recorded)
    for e in itertools.product(*(range(x + 1) for x in hmod.require_locally_free(M))):
        counts.count(e, grassmann.DEFAULT_BUDGET)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("label,beta", [("G2", (2, 3)), ("B3", (1, 2, 2)), ("D4", (1, 2, 1, 1))])
@pytest.mark.parametrize("p", [5, 7])
def test_weighted_enumeration_is_the_graded_filter(label, beta, p, monkeypatch):
    # at every vertex, e_v and forced span that the counts reach: the
    # weighted enumeration yields the unweighted one's candidates whose
    # entries all sit at their pivot's weight, in the same order
    calls = reached_enumerations(table(label).module_of(beta), p, monkeypatch)
    assert len(calls) > 10
    constrained = 0
    for (p, c, r, e, span, w) in calls:
        weighted = [(cand.pivots, cand.cols)
                    for cand in grassmann.iter_free_submodules(p, c, r, e, span, w)]
        graded = [(cand.pivots, cand.cols)
                  for cand in grassmann.iter_free_submodules(p, c, r, e, span)
                  if at_pivot_weight(cand, w)]
        assert weighted == graded, (c, r, e, span)
        constrained += bool(span) and 0 < e < r
    assert constrained > 0


@pytest.mark.parametrize("r,e", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_unweighted_candidate_set_size_is_the_closed_form(r, e):
    for p, c in ((5, 1), (5, 2), (7, 3)):
        assert grassmann._candidate_set_size(p, c, r, e) == \
            grassmann.count_free_submodules_of_type((c,) * r, e, p, c)


@pytest.mark.parametrize("label,beta", FIXED_LOCUS_ROOTS)
def test_fixed_locus_chi_equals_grassmannian_chi(label, beta):
    # chi of the fixed locus (the engine's fits) equals chi of the whole
    # Gr^lf_e fitted to count_locally_free_submodules, for every e
    m = table(label).module_of(beta)
    engine = grassmann.EulerEngine()
    assert engine.f_polynomial(m) == point_count_f_polynomial(m)
    rk = hmod.require_locally_free(m)
    assert len(engine.transcripts) == math.prod(x + 1 for x in rk)
    assert {poly.variety for poly in engine.transcripts.values()} == {"fixed_locus"}


def non_chain_g2():
    """G2 (2, 3) with two basis vectors at vertex 0 swapped: eps_0 leaves
    chain form."""
    m = table("G2").module_of((2, 3))
    swap = [[1 if j == (1, 0, 2, 3, 4, 5)[i] else 0 for j in range(6)] for i in range(6)]
    return hmod.change_vertex_basis(hmod.HModule(m.spec, m.dims, m.eps, m.arrows), 0, swap)


def test_non_chain_eps_counts_the_grassmannian():
    # G2 (2, 3) with two basis vectors at vertex 0 swapped: eps_0 leaves
    # chain form, so the whole Grassmannian is point-counted, to the same chi
    m = table("G2").module_of((2, 3))
    flip = non_chain_g2()
    assert hmod.read_jordan_blocks(RATIONALS.field(), flip.eps[0]) is None
    fixed, whole = grassmann.EulerEngine(), grassmann.EulerEngine()
    assert whole.f_polynomial(flip) == fixed.f_polynomial(m)
    assert {poly.variety for poly in whole.transcripts.values()} == {"grassmannian"}
    assert {poly.variety for poly in fixed.transcripts.values()} == {"fixed_locus"}


def test_collided_f4_roots_match_cluster_variables():
    t = table("F4")
    spec = t.modules[0].spec
    engine = grassmann.EulerEngine()
    module_side = [(beta, engine.f_polynomial(t.module_of(beta)),
                    grassmann.g_vector(t.module_of(beta))) for beta in COLLIDED["F4"]]
    report = cluster.match_report(spec.datum, spec.omega, module_side)
    assert report["missed"] == []
    assert len(report["matched"]) == len(COLLIDED["F4"])
    assert {poly.variety for poly in engine.transcripts.values()} == {"fixed_locus"}


def test_fixed_locus_budget_boundary(monkeypatch):
    # each vertex visit spends the size of its whole torus-fixed candidate
    # set, memo hit or not: a budget equal to the spend passes, one unit
    # less raises and names the vertex, its rank, e_v and the prime
    m = table("B3").module_of((1, 2, 2))
    e = (1, 1, 1)
    monkeypatch.setattr(grassmann, "_Budget", RecordingBudget)
    RecordingBudget.made = []
    counts = fixed_counts(m, 5)
    count = counts.count(e, grassmann.DEFAULT_BUDGET)
    (query,) = RecordingBudget.made
    spend = query.units - query.left
    assert count > 0 and spend > 1
    # the memo now holds every list: the same spend, from a fresh budget
    assert counts.count(e, spend) == count
    with pytest.raises(TooLargeError) as info:
        counts.count(e, spend - 1)
    assert re.fullmatch(
        rf"enumeration budget of {spend - 1} exhausted by the \d+ free rank-\d "
        r"candidates at vertex \d \(rank \d\) over F_5", str(info.value)), str(info.value)
    # the spend is the torus-fixed set sizes, smaller than the Grassmannian's
    RecordingBudget.made = []
    assert grassmann.count_locally_free_submodules(hmod.reduce_mod_p(m, 5), e) >= count
    (full,) = RecordingBudget.made
    assert full.units - full.left > spend


def plain_count(counts, e, budget):
    """Oracle: (count, units spent) of the unmemoized walk over the prepared
    module of a grassmann._LocallyFreeCounts: every vertex visit enumerates
    its candidates afresh (Grassmannian or torus-fixed), no subtree is kept."""
    M, field, datum = counts.M, counts.field, counts.M.spec.datum
    if any(c * x > d for c, x, d in zip(datum.D, e, M.dims)):
        return 0, 0
    query = grassmann._Budget(budget)
    visits = []

    def candidates(v, e_v, chosen):
        if counts.weights is None:
            return grassmann._vertex_candidates(field, M, v, e_v, chosen, query)
        p, c = field.p, datum.D[v]
        r = M.dims[v] // c
        size = grassmann._candidate_set_size(p, c, r, e_v, counts.weights[v])
        grassmann._spend_on_vertex(query, size, v, r, e_v, p)
        span = linalg.row_space(field, grassmann._arrow_images(field, M, v, chosen))
        return grassmann.iter_free_submodules(p, c, r, e_v, span, counts.weights[v])

    def walk(idx, chosen):
        visits.append(idx)
        if idx == len(counts.enum_verts):
            total = 1
            for v in counts.closed_verts:
                c = datum.D[v]
                rows = grassmann._forced_rows(field, M, v, chosen, counts.powers[v])
                qt = grassmann.quotient_type(field, M.dims[v], c, rows)
                total *= grassmann.count_free_submodules_of_type(qt, M.dims[v] // c - e[v], field.p, c)
                if total == 0:
                    return 0
            return total
        v = counts.enum_verts[idx]
        total = 0
        for cand in candidates(v, e[v], chosen):
            ok = True
            for (i, j, _), A in M.arrows.items():
                if j == v and i in chosen and M.dims[i]:
                    if not all(contains(chosen[i], linalg.mat_vec(field, A, vec))
                               for vec in cand.k_basis()):
                        ok = False
                        break
            if not ok:
                continue
            chosen[v] = cand
            total += walk(idx + 1, chosen)
            del chosen[v]
        return total

    return walk(0, {}), query.units - query.left, len(visits)


def assert_walk_equals_plain(counts, e, walks, monkeypatch):
    """The walk's count of e equals the plain walk's count and spend, and
    one unit less raises the same TooLargeError; appends the number of
    vertex visits of both walks to walks."""
    visits = []
    walk = grassmann._LocallyFreeCounts._walk

    def counted(self, idx, *args):
        visits.append(idx)
        return walk(self, idx, *args)

    monkeypatch.setattr(grassmann._LocallyFreeCounts, "_walk", counted)
    RecordingBudget.made = []
    count = counts.count(e, grassmann.DEFAULT_BUDGET)
    monkeypatch.setattr(grassmann._LocallyFreeCounts, "_walk", walk)
    (query,) = RecordingBudget.made
    spend = query.units - query.left
    plain, plain_spend, plain_visits = plain_count(counts, e, grassmann.DEFAULT_BUDGET)
    assert (count, spend) == (plain, plain_spend), e
    walks.append((len(visits), plain_visits))
    if spend:
        with pytest.raises(TooLargeError) as memoized:
            counts.count(e, spend - 1)
        with pytest.raises(TooLargeError) as plain:
            plain_count(counts, e, spend - 1)
        assert str(memoized.value) == str(plain.value), e


def memo_units(memo):
    return len(memo.lists) + sum(map(len, memo.lists.values())) + len(memo.spans)


@pytest.mark.parametrize("room", [grassmann.FIXED_MEMO_ROOM, 40])
def test_memoized_walk_equals_plain_walk(room, monkeypatch):
    # every e of every fixed-locus root at F_5 and F_7 (one memo for both
    # primes, as in an F-polynomial), and the Grassmannian path of the G2
    # flip: equal counts and spends, the same message at spend - 1, and the
    # memo within its room, at the default room and at a small one
    monkeypatch.setattr(grassmann, "_Budget", RecordingBudget)
    monkeypatch.setattr(grassmann, "FIXED_MEMO_ROOM", room)
    walks = []
    for label, beta in FIXED_LOCUS_ROOTS:
        m = table(label).module_of(beta)
        weights, _ = grassmann._torus_weights(m)
        memo = grassmann._CandidateMemo()
        for p in (5, 7):
            counts = grassmann._LocallyFreeCounts(hmod.reduce_mod_p(m, p), weights, memo)
            for e in itertools.product(*(range(x + 1) for x in hmod.require_locally_free(m))):
                assert_walk_equals_plain(counts, e, walks, monkeypatch)
                assert 0 <= memo.room and memo_units(memo) + memo.room == room
    flip = non_chain_g2()
    for p in (5, 7):
        counts = grassmann._LocallyFreeCounts(hmod.reduce_mod_p(flip, p))
        assert counts.weights is None and counts.closed_verts
        for e in itertools.product(range(3), range(4)):
            assert_walk_equals_plain(counts, e, walks, monkeypatch)
        assert 0 <= counts.memo.room and memo_units(counts.memo) + counts.memo.room == room
    # the walk visits exactly the vertices the plain walk visits, for every e
    assert len(walks) > 300 and all(visits == plain for visits, plain in walks), \
        [w for w in walks if w[0] != w[1]]


def test_candidate_memo_streams_a_list_past_its_room():
    # a list shorter than the room is kept; one that reaches the room is
    # yielded whole and in order, never kept, and enumerated only as it is read
    memo = grassmann._CandidateMemo()
    memo.room = 5
    read = []

    def enumerate_(n):
        for k in range(n):
            read.append(k)
            yield k

    streamed = memo.get("long", lambda: enumerate_(8))
    assert len(read) == 5 and not isinstance(streamed, list)
    assert list(streamed) == list(range(8)) and read == list(range(8))
    assert memo.room == 5 and "long" not in memo.lists
    assert list(memo.get("room", lambda: enumerate_(5))) == list(range(5))
    assert memo.room == 5 and "room" not in memo.lists
    assert memo.get("short", lambda: enumerate_(4)) == [0, 1, 2, 3]
    assert memo.room == 0 and memo.lists == {"short": [0, 1, 2, 3]}
    assert memo.get("short", lambda: enumerate_(4)) == [0, 1, 2, 3]


@pytest.mark.parametrize("name,seq,seed", [("B2", (1, 0, 1), 0), ("B2", (0, 1, 1), 0),
                                            ("G2", (0, 1, 0), 0)])
def test_pi_walk_equals_plain_walk(name, seq, seed, monkeypatch):
    # off a DAG order the walk solves for the candidates that the arrows out
    # of the vertex map into the chosen components (killed_by=); the plain
    # walk filters every candidate by K-span membership: equal counts and
    # spends, and the same message at spend - 1, for every e
    monkeypatch.setattr(grassmann, "_Budget", RecordingBudget)
    datum = CATALOG[name]
    spec = hmod.HAlgebraSpec(datum, cartan.validate_orientation(datum, [(0, 1)]),
                             prime_field_spec(5))
    m = pimod.random_E_filtered(spec, seq, seed)
    counts = grassmann._LocallyFreeCounts(m)
    assert not counts.closed_verts and any(counts.heads)
    totals = []
    for e in itertools.product(*(range(x + 1) for x in hmod.require_locally_free(m))):
        assert_walk_equals_plain(counts, e, [], monkeypatch)
        totals.append(counts.count(e, grassmann.DEFAULT_BUDGET))
    assert max(totals) > 1


def is_graded(field, basis, w):
    """Whether the span of basis is the sum of its intersections with the
    weight spaces of w: each vector's weight components lie in the span."""
    if not basis:
        return True
    rank = linalg.rank(field, basis)
    return all(linalg.rank(field, basis + [[x if w[i] == lam else 0 for i, x in enumerate(vec)]
                                           for vec in basis]) == rank
               for lam in set(w))


@pytest.mark.parametrize("label,beta", [("G2", (2, 3)), ("B3", (1, 2, 2)), ("D4", (1, 2, 1, 1))])
def test_fixed_locus_counts_are_the_graded_submodules(label, beta):
    # oracle: every lf submodule (each vertex enumerated, no closed form)
    # kept when it is graded at every vertex
    m = table(label).module_of(beta)
    weights, _ = grassmann._torus_weights(m)
    counts = fixed_counts(m, 5)
    mp, field = counts.M, counts.field
    for e in itertools.product(*(range(x + 1) for x in hmod.require_locally_free(m))):
        graded = sum(all(is_graded(field, basis, w) for basis, w in zip(subspaces, weights))
                     for subspaces in grassmann._iter_lf_submodules(
                         mp, e, grassmann._Budget(grassmann.DEFAULT_BUDGET)))
        assert counts.count(e, grassmann.DEFAULT_BUDGET) == graded, e
