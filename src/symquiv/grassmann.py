"""Point counting over prime fields for locally free quiver Grassmannians and
E-flag varieties; Euler characteristics via counting-polynomial interpolation;
F-polynomials, g-vectors, convolution evaluations and the dual PBW pairing.

Counting strategy.  A free rank-e submodule of H^r (H = K[eps]/(eps^c)) is a
direct summand; its canonical basis matrix has identity at the pivot rows,
full H-entries below a pivot and eps*H-entries above, giving exactly
q^{(c-1)e(r-e)} [r over e]_q candidates per vertex.  A submodule's component
at a vertex must contain the span forced by the components already chosen;
containment is linear in the pivot-form entries, so only the candidates that
contain the forced span are enumerated, as the solutions of that system.
Grassmannian counts enumerate source vertices of the (acyclic) constraint
graph and close the sink vertices by the exact formula for the number of
free submodules with prescribed containments; the Jordan type that formula
needs comes from one elimination of the forced span, its columns ordered by
eps-degree (quotient_type).  Flag counts recurse on the bottom factor.  An
E-letter's submodules are split into orbits of a few verified automorphisms
of the module, and one quotient is built per orbit (an automorphism g gives
M/U = M/gU); quotients falling in one isomorphism class are merged
(byte-equality first, then a certified isomorphism search), so the recursion
depth stays flat.
Flag Euler characteristics are values at q = 1 of integer polynomials fitted
(in integer arithmetic) to counts over several primes and verified on a
held-out prime.

Grassmannian Euler characteristics use torus localization first.  A module
whose basis a weighting separates at every vertex (torus_weighting, the
gate: every structure map homogeneous, no two basis vectors at one vertex
forced to the same weight) has chi(Gr^lf_e) = the number of its coordinate
lf submodules: unions of whole eps-chains closed under the support of every
arrow (coordinate_counts, one table per module, no prime and no budget).
A module that fails the gate but has eps in canonical chain form is still
acted on by the torus diag(t^w) of its weighting (_torus_weights), and
chi(Gr^lf_e) is chi of the fixed locus: the graded lf submodules.  They are
point-counted and fitted as above, with every pivot-form entry that does not
sit at its pivot's weight forced to 0 (iter_free_submodules(weights=)),
every vertex enumerated (the sink formula counts ungraded submodules too)
and the candidate lists kept per (vertex, e_v, forced span) across the e of
one F-polynomial, within a bounded memo (_CandidateMemo).  A module whose
eps is not in chain form counts the whole Gr^lf_e.  Either way an
F-polynomial reduces the module mod each prime and prepares it (canonical
eps, constraint order, eps powers) once for all of its e.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from . import cartan, hmod, linalg
from .errors import (
    InterpolationError,
    InternalMismatchError,
    PrimePoolExhaustedError,
    PrimeReductionError,
    TooLargeError,
)
from .fields import QQ, PrimeField, prime_field_spec

PRIME_POOL = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
DEFAULT_BUDGET = 10 ** 7


class _Budget:
    """Enumeration units left to one query.  Every top-level count (one
    count_locally_free_submodules, Counter.flag_count or
    ClassFlagCounter.count call) gets a fresh instance.  Each rank-one
    generator spends one unit; each vertex enumeration spends the size of its
    whole canonical candidate set, although only the candidates containing
    the forced span are enumerated."""

    __slots__ = ("units", "left")

    def __init__(self, units):
        self.units = units
        self.left = units

    def spend(self, units, where=""):
        self.left -= units
        if self.left < 0:
            raise TooLargeError(f"enumeration budget of {self.units} exhausted"
                                + (f" by {where}" if where else ""))


# --- H-element helpers (truncated polynomials as int tuples) ----------------


def _h_mul(p, c, x, y):
    out = [0] * c
    for a, xa in enumerate(x):
        if xa:
            for b in range(c - a):
                yb = y[b]
                if yb:
                    out[a + b] = (out[a + b] + xa * yb) % p
    return tuple(out)


def _h_is_zero(x):
    return all(t == 0 for t in x)


def _kvec_to_hvec(vec, c, r):
    return [tuple(vec[b * c + t] for t in range(c)) for b in range(r)]


class FreeSubCandidate:
    """A free rank-e submodule of H^r in canonical (pivot-identity) form."""

    __slots__ = ("p", "c", "r", "e", "pivots", "cols", "_kbasis")

    def __init__(self, p, c, r, e, pivots, cols):
        self.p = p
        self.c = c
        self.r = r
        self.e = e
        self.pivots = pivots
        self.cols = cols  # e columns, each an r-list of H-tuples
        self._kbasis = None

    def k_basis(self):
        """K-basis of the submodule: eps^t * column for t < c."""
        if self._kbasis is None:
            p, c, r = self.p, self.c, self.r
            basis = []
            for col in self.cols:
                for t in range(c):
                    vec = [0] * (c * r)
                    for b in range(r):
                        h = col[b]
                        for a in range(c - t):
                            if h[a]:
                                vec[b * c + a + t] = h[a]
                    basis.append(vec)
            self._kbasis = basis
        return self._kbasis

    def forget_k_basis(self):
        self._kbasis = None

    def contains_kvec(self, vec):
        p, c, r = self.p, self.c, self.r
        hv = _kvec_to_hvec(vec, c, r)
        residual = list(hv)
        for s, pv in enumerate(self.pivots):
            coeff = residual[pv]
            if _h_is_zero(coeff):
                continue
            col = self.cols[s]
            for b in range(r):
                prod = _h_mul(p, c, coeff, col[b])
                residual[b] = tuple((x - y) % p for x, y in zip(residual[b], prod))
        return all(_h_is_zero(h) for h in residual)


def _pivot_slots(c, r, pivots, weights=None):
    """(free rows, slots, number of unknowns) of the pivot forms with these
    pivots.  Slot (s, b, off, first, stop) holds the unknowns off, off + 1,
    ...: the coefficients of eps^first, ..., eps^(stop-1) in x[s][b]; the
    other coefficients of x[s][b] are 0.  Rows above the pivot take eps*H
    (first >= 1), rows below take H.  With weights (one per K-basis vector
    of H^r, eps homogeneous), only the coefficients whose weight
    weights[b*c+t] is the pivot head's weights[pv_s*c] are unknowns: the
    weights along a chain are affine in t, so these t form a range."""
    pivot_set = set(pivots)
    free_rows = [b for b in range(r) if b not in pivot_set]
    slots = []
    n_vars = 0
    for s, pv in enumerate(pivots):
        for b in free_rows:
            first, stop = (0 if b > pv else 1), c
            if weights is not None:
                head = weights[pv * c]
                ts = [t for t in range(first, c) if weights[b * c + t] == head]
                if not ts:
                    continue
                first, stop = ts[0], ts[-1] + 1
                if len(ts) != stop - first:
                    raise ValueError("the weights do not make eps homogeneous")
            slots.append((s, b, n_vars, first, stop))
            n_vars += stop - first
    return free_rows, slots, n_vars


def _candidate_set_size(p, c, r, e, weights=None):
    """The number of free rank-e submodules of H^r in canonical form (with
    weights, of those whose entries all sit at their pivot's weight)."""
    return sum(p ** _pivot_slots(c, r, pivots, weights)[2]
               for pivots in itertools.combinations(range(r), e))


def _containment_solutions(field, c, pivots, free_rows, slots, n_vars, w_basis):
    """The unknowns of a pivot form that contain every w of w_basis, as
    (free unknowns, [(dependent unknown, constant, [(free unknown, coeff)])]),
    or None when no candidate with these pivots contains them.

    The slots are those of _pivot_slots.  A candidate contains w iff
    w[b] = sum_s w[pv_s] * x[s][b] in H at every free row b: the pivot rows
    read the coefficients off.  Columns run over the unknowns in reverse, so
    each dependent unknown is solved for in terms of earlier free ones."""
    rows = []
    for w in w_basis:
        for b in free_rows:
            # equation k: the eps^k coefficients of sum_s w[pv_s] * x[s][b] = w[b]
            eqs = [[0] * n_vars + [w[b * c + k]] for k in range(c)]
            for (s, sb, off, first, stop) in slots:
                if sb == b:
                    base = pivots[s] * c
                    for t in range(first, stop):
                        col = n_vars - 1 - (off + t - first)
                        for k in range(t, c):
                            eqs[k][col] = w[base + k - t]
            rows.extend(eqs)
    reduced, pivot_cols = linalg.rref(field, rows)
    if n_vars in pivot_cols:  # the right-hand side is a pivot: inconsistent
        return None
    dependents = []
    for row, col in zip(reduced, pivot_cols):
        terms = [(n_vars - 1 - j, field.neg(row[j])) for j in range(col + 1, n_vars) if row[j]]
        dependents.append((n_vars - 1 - col, row[n_vars], terms))
    solved = {dep for (dep, _, _) in dependents}
    return [u for u in range(n_vars) if u not in solved], dependents


def _solved_entries(p, c, slots, n_vars, free_vars, dependents):
    """The slot entries (H-tuples, in slot order) of every solution of
    _containment_solutions, the free unknowns running lexicographically."""
    spans = [(off, off + stop - first, (0,) * first, (0,) * (c - stop))
             for (_, _, off, first, stop) in slots]
    shared = {}  # one object per distinct entry, so kept candidates share them
    x = [0] * n_vars
    for values in itertools.product(range(p), repeat=len(free_vars)):
        for u, val in zip(free_vars, values):
            x[u] = val
        for u, const, terms in dependents:
            x[u] = (const + sum(coeff * x[f] for f, coeff in terms)) % p
        entries = []
        for off, end, head, tail in spans:
            h = head + tuple(x[off:end]) + tail
            entries.append(shared.setdefault(h, h))
        yield entries


def iter_free_submodules(p, c, r, e, containing=(), weights=None):
    """The free rank-e submodules of H^r in canonical form that contain every
    K-vector of `containing`, pivot sets in lexicographic order and the
    entries of each pivot form lexicographically, slot by slot.

    The containment conditions are linear in the entries, so their solutions
    are enumerated directly; each dependent entry is a function of earlier
    free ones, which keeps the order of the unconstrained enumeration.

    With weights (one integer per K-basis vector b*c+t of H^r, making eps
    homogeneous), only the submodules fixed by the torus diag(t^weights)
    are enumerated, in the same order: the canonical form is unique and the
    torus rescales the entry x[s][b] at eps^t by t^(weights[b*c+t] -
    weights[pv_s*c]), so a submodule is fixed iff each of its entries sits
    at its pivot's weight (_pivot_slots)."""
    if e > r:
        return
    if e == 0:
        if not any(any(w) for w in containing):
            yield FreeSubCandidate(p, c, r, 0, (), ())
        return
    field = prime_field_spec(p).field()
    w_basis = []
    if e < r and containing:  # H^r itself (e == r) contains every vector
        w_basis = linalg.row_space(field, containing)
        if len(w_basis) > c * e:
            return  # a free rank-e submodule has dimension c * e
    options = {}  # (first, stop) -> the H-tuples with support in [first, stop)
    unit = tuple([1] + [0] * (c - 1))
    zero = tuple([0] * c)
    for pivots in itertools.combinations(range(r), e):
        free_rows, slots, n_vars = _pivot_slots(c, r, pivots, weights)
        if not w_basis:
            for (_, _, _, first, stop) in slots:
                if (first, stop) not in options:
                    options[(first, stop)] = [
                        (0,) * first + h + (0,) * (c - stop)
                        for h in itertools.product(range(p), repeat=stop - first)]
            assignments = itertools.product(*(options[(first, stop)]
                                              for (_, _, _, first, stop) in slots))
        else:
            solved = _containment_solutions(field, c, pivots, free_rows, slots, n_vars, w_basis)
            if solved is None:
                continue
            assignments = _solved_entries(p, c, slots, n_vars, *solved)
        for assignment in assignments:
            cols = [[zero] * r for _ in range(e)]
            for s, pv in enumerate(pivots):
                cols[s][pv] = unit
            for (s, b, _, _, _), h in zip(slots, assignment):
                cols[s][b] = h
            yield FreeSubCandidate(p, c, r, e, pivots, tuple([tuple(col) for col in cols]))


def count_free_submodules_of_type(partition, e, q, c):
    """Number of free rank-e submodules of (+) H/(eps^{lambda_j}), exactly."""
    if e == 0:
        return 1
    d = sum(partition)
    s = sum(1 for x in partition if x == c)
    if e > s:
        return 0
    num = 1
    for t in range(e):
        num *= q ** (d - s) * (q ** s - q ** t)
    den = q ** ((c - 1) * e * e)
    for t in range(e):
        den *= q ** e - q ** t
    if num % den:
        raise ArithmeticError("free-submodule count is not integral")
    return num // den


def quotient_type(field, dim, c, w_rows):
    """Jordan type of (K^dim)/W under the canonical free eps, W given by rows.

    eps^t V is spanned by the unit vectors of eps-degree >= t, so
    rank(eps-bar^t) = dim(eps^t V + W) - dim W = r(c-t) + rank(W on the
    degree-<t columns) - rank W.  One elimination of W with its columns sorted
    by degree gives every such rank: the pivots in each column prefix."""
    r = dim // c
    pivots = []
    if w_rows:
        order = [b * c + tau for tau in range(c) for b in range(r)]
        pivots = linalg.rref(field, [[row[i] for i in order] for row in w_rows])[1]
    w_rank = len(pivots)
    ranks = [r * (c - t) + bisect.bisect_left(pivots, r * t) - w_rank for t in range(c + 1)]
    return hmod._partition_from_ranks(ranks)


# --- counting polynomial machinery ------------------------------------------


@dataclass
class CountingPolynomial:
    coefficients: tuple  # ascending powers of q
    samples: tuple       # ((prime, count), ...) used for the fit
    held_out: tuple      # (prime, count) validation point
    variety: str | None = None  # what a Grassmannian fit counted: "grassmannian" or "fixed_locus"

    def value_at_one(self):
        return sum(self.coefficients)

    def degree(self):
        return len(self.coefficients) - 1


def interpolate_counts(count_fn, degree_bound, min_points=5, pool=PRIME_POOL):
    """Fit a single integer polynomial through exact counts over primes.

    Samples are accumulated from the pool; a fit through all but the last
    sample must have integer coefficients, degree within the bound, and must
    reproduce the held-out last sample exactly.  Failures to stabilize within
    degree_bound + 2 points surface as InterpolationError.
    """
    samples = []
    for p in pool:
        try:
            count = count_fn(p)
        except PrimeReductionError:
            continue  # integral model not reducible at this prime; use the next one
        samples.append((p, count))
        if len(samples) < max(3, min_points):
            continue
        coeffs = linalg.lagrange_interpolate(samples[:-1])
        if coeffs is not None and len(coeffs) - 1 <= degree_bound:
            hp, hc = samples[-1]
            if linalg.poly_eval(coeffs, hp) == hc:
                return CountingPolynomial(tuple(coeffs), tuple(samples[:-1]), samples[-1])
        if len(samples) > degree_bound + 2:
            raise InterpolationError(
                f"counts do not fit an integer polynomial of degree <= {degree_bound}")
    raise PrimePoolExhaustedError("prime pool exhausted before the fit stabilized")


# --- submodule counting (Grassmannians) --------------------------------------


def _eps_powers(field, eps, c):
    """[eps^0, ..., eps^(c-1)] for the loop matrix eps of one vertex."""
    powers = [linalg.identity(field, len(eps))]
    for _ in range(c - 1):
        powers.append(linalg.mat_mul(field, eps, powers[-1]))
    return powers


def _out_arrow_stack(M, j):
    """Rows of the map testing 'killed by every arrow leaving j, H-stably'."""
    field = M.field()
    c = M.spec.datum.D[j]
    rows = []
    powers = _eps_powers(field, M.eps[j], c)
    for key, A in M.arrows.items():
        (_, src, _) = key
        if src != j or not A or M.dims[key[0]] == 0:
            continue
        for t in range(c):
            rows.extend(linalg.mat_mul(field, A, powers[t]))
    return rows


def allowed_bottom_space(M, j):
    """Basis of the largest H_j-stable subspace killed by all arrows out of j."""
    field = M.field()
    if M.dims[j] == 0:
        return []
    rows = _out_arrow_stack(M, j)
    if not rows:
        return linalg.identity(field, M.dims[j])
    return linalg.nullspace(field, rows, M.dims[j])


def iter_free_rank1_generators(field, eps, space_basis, c):
    """One generator per free rank-1 H-submodule of the span of space_basis.

    The span must be eps-stable.  Generators are canonical: unit coefficient
    on the pivot chain, zero constant term on earlier full-length chains.
    """
    if not space_basis:
        return
    dim_space = len(space_basis)
    p = field.p if isinstance(field, PrimeField) else None
    if p is None:
        raise ValueError("generator enumeration requires a prime field")
    coord_mat = [[space_basis[s][t] for s in range(dim_space)] for t in range(len(space_basis[0]))]
    eps_core = []
    for s in range(dim_space):
        img = linalg.mat_vec(field, eps, space_basis[s])
        sol = linalg.solve(field, coord_mat, img)
        if sol is None:
            raise ValueError("space is not eps-stable")
        eps_core.append(sol)
    eps_core = [[eps_core[s][t] for s in range(dim_space)] for t in range(dim_space)]
    jordan_cols = hmod.jordan_basis(field, eps_core)
    if not jordan_cols:
        return
    blocks = hmod.read_jordan_blocks(
        field, linalg.mat_mul(field, linalg.inverse(field, jordan_cols),
                              linalg.mat_mul(field, eps_core, jordan_cols)))
    # chain vectors in ambient coordinates
    chain_vecs = []
    pos = 0
    amb = len(space_basis[0])
    for b in blocks:
        chain = []
        for t in range(b):
            col = [jordan_cols[row][pos + t] for row in range(dim_space)]
            vec = [field.zero] * amb
            for s, coeff in enumerate(col):
                if coeff != field.zero:
                    for x in range(amb):
                        vec[x] = field.add(vec[x], field.mul(coeff, space_basis[s][x]))
            chain.append(vec)
        chain_vecs.append(chain)
        pos += b
    full = [bi for bi, b in enumerate(blocks) if b == c]
    for bstar in full:
        other = [bi for bi in range(len(blocks)) if bi != bstar]
        coeff_ranges = []
        for bi in other:
            lam = blocks[bi]
            if blocks[bi] == c and bi < bstar:
                opts = [co for co in itertools.product(range(p), repeat=lam) if co[0] == 0]
            else:
                opts = list(itertools.product(range(p), repeat=lam))
            coeff_ranges.append(opts)
        for combo in itertools.product(*coeff_ranges):
            u = list(chain_vecs[bstar][0])
            for bi, co in zip(other, combo):
                for t, x in enumerate(co):
                    if x:
                        vec = chain_vecs[bi][t]
                        for idx in range(amb):
                            u[idx] = field.add(u[idx], field.mul(x, vec[idx]))
            yield u


def _vertex_rank(M, v):
    c = M.spec.datum.D[v]
    return M.dims[v] // c


def _constraint_order(M):
    """Topological order of support vertices (arrow sources first), or None."""
    n = M.spec.datum.n
    verts = [v for v in range(n)]
    succ = {v: set() for v in verts}
    indeg = {v: 0 for v in verts}
    for (i, j, _) in M.arrows:
        if M.dims[i] and M.dims[j] and i != j and i not in succ[j]:
            succ[j].add(i)
            indeg[i] += 1
    order = [v for v in verts if indeg[v] == 0]
    seen = list(order)
    head = 0
    while head < len(seen):
        v = seen[head]
        head += 1
        for w in sorted(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                seen.append(w)
    return seen if len(seen) == len(verts) else None


def _arrow_images(field, M, v, chosen):
    """Images of the chosen components along the arrows into v: the
    v-component of a submodule must contain their H-span."""
    images = []
    for key, A in M.arrows.items():
        (i, j, _) = key
        if i != v or j not in chosen or M.dims[j] == 0:
            continue
        images.extend(linalg.mat_vec(field, A, vec) for vec in chosen[j].k_basis())
    return images


def _forced_rows(field, M, v, chosen, powers):
    """A K-spanning set of the H-span of _arrow_images: the images under
    powers (_eps_powers at v; powers[0] is the identity)."""
    rows = []
    for img in _arrow_images(field, M, v, chosen):
        rows.append(img)
        rows.extend(linalg.mat_vec(field, P, img) for P in powers[1:])
    return rows


def _spend_on_vertex(budget, size, v, r, e_v, p):
    budget.spend(size, f"the {size} free rank-{e_v} candidates at vertex {v} (rank {r}) over F_{p}")


def _vertex_candidates(field, M, v, e_v, chosen, budget):
    """Free rank-e_v candidates at v that contain the arrow images (an
    H-submodule contains their H-span).  The call spends the size of the
    whole canonical candidate set at v, so a query spends what enumerating
    and filtering every candidate would."""
    p, c, r = field.p, M.spec.datum.D[v], _vertex_rank(M, v)
    _spend_on_vertex(budget, count_free_submodules_of_type((c,) * r, e_v, p, c), v, r, e_v, p)
    yield from iter_free_submodules(p, c, r, e_v, _arrow_images(field, M, v, chosen))


def _canonical_eps(M):
    """Whether every eps_v of M is exactly the canonical free chain form:
    rank(v) chains of length c_v, e_t -> e_(t+1) within each chain."""
    field, D = M.field(), M.spec.datum.D
    return all(not M.dims[v] or hmod.read_jordan_blocks(field, M.eps[v]) == [c] * (M.dims[v] // c)
               for v, c in enumerate(D))


FIXED_MEMO_ROOM = 2048  # candidate lists plus candidates kept per F-polynomial


class _CandidateMemo:
    """Torus-fixed candidate lists by (prime, vertex, e_v, forced span in
    RREF), shared by the primes of one F-polynomial.  Lists are kept until
    `room` units (one per list, one per candidate) are used, which bounds
    the memory; a list that does not fit is enumerated again at each visit."""

    def __init__(self):
        self.lists = {}
        self.room = FIXED_MEMO_ROOM

    def get(self, key, enumerate_candidates):
        if key in self.lists:
            return self.lists[key]
        candidates = list(enumerate_candidates())
        if len(candidates) < self.room:
            self.room -= 1 + len(candidates)
            self.lists[key] = candidates
        return candidates


class _LocallyFreeCounts:
    """count_locally_free_submodules of one module over a prime field, for any
    rank vector, with the work that depends only on the module done once: the
    canonical eps (normalized if need be), the constraint order and the eps
    powers.  An F-polynomial makes one per prime for all of its e.

    With weights (_torus_weights of the integral model, whose eps must be
    canonical), it counts the fixed locus of the torus diag(t^weights) in
    Gr^lf_e instead: the graded lf submodules.  Every vertex is enumerated
    (the sink closed form counts all free submodules, not the graded ones),
    and the candidate lists are kept per (vertex, e_v, RREF of the forced
    span), for all e; each vertex visit still spends the size of its whole
    torus-fixed candidate set."""

    def __init__(self, M, weights=None, memo=None):
        field = M.field()
        if not isinstance(field, PrimeField):
            raise ValueError("point counts run over prime fields")
        # candidates and the sink closed form assume the canonical free eps layout
        if not _canonical_eps(M):
            if weights is not None:
                raise ValueError("fixed-locus counts need eps in canonical chain form")
            M = hmod.normalize_eps(type(M)(M.spec, M.dims, M.eps, M.arrows))
            hmod.require_locally_free(M)
        datum = M.spec.datum
        order = _constraint_order(M)
        if order is None:
            order = list(range(datum.n))
            closed = set()
        elif weights is not None:
            closed = set()
        else:
            has_out = {src for (_, src, _) in M.arrows if M.dims[src] > 0}
            closed = {v for v in order if v not in has_out}
        self.M = M
        self.field = field
        self.enum_verts = [v for v in order if v not in closed and M.dims[v] > 0]
        self.closed_verts = [v for v in order if v in closed and M.dims[v] > 0]
        self.powers = [_eps_powers(field, M.eps[v], c) for v, c in enumerate(datum.D)]
        self.weights = weights
        if weights is not None:
            self.memo = memo if memo is not None else _CandidateMemo()
        self.sizes = {}  # (v, e_v) -> size of the torus-fixed candidate set

    def _fixed_candidates(self, v, e_v, chosen, budget):
        """The torus-fixed counterpart of _vertex_candidates, memoized."""
        M, field = self.M, self.field
        p, c, r = field.p, M.spec.datum.D[v], _vertex_rank(M, v)
        if (v, e_v) not in self.sizes:
            self.sizes[(v, e_v)] = _candidate_set_size(p, c, r, e_v, self.weights[v])
        _spend_on_vertex(budget, self.sizes[(v, e_v)], v, r, e_v, p)
        span = linalg.row_space(field, _arrow_images(field, M, v, chosen))
        key = (p, v, e_v, tuple([x for row in span for x in row]))
        return self.memo.get(key, lambda: iter_free_submodules(p, c, r, e_v, span, self.weights[v]))

    def count(self, e, budget):
        datum = self.M.spec.datum
        if any(c * x > d for c, x, d in zip(datum.D, e, self.M.dims)):
            return 0
        return self._count(0, {}, e, _Budget(budget))

    def _count(self, idx, chosen, e, query):
        """The submodules extending the components chosen at enum_verts[:idx].
        A method, not a closure: a self-referencing closure would keep the
        memo alive until the cyclic garbage collector ran."""
        M, field = self.M, self.field
        datum = M.spec.datum
        if idx == len(self.enum_verts):
            total = 1
            for v in self.closed_verts:
                c = datum.D[v]
                rows = _forced_rows(field, M, v, chosen, self.powers[v])
                qt = quotient_type(field, M.dims[v], c, rows)
                total *= count_free_submodules_of_type(qt, _vertex_rank(M, v) - e[v], field.p, c)
                if total == 0:
                    return 0
            return total
        v = self.enum_verts[idx]
        if self.weights is None:
            candidates = _vertex_candidates(field, M, v, e[v], chosen, query)
        else:
            candidates = self._fixed_candidates(v, e[v], chosen, query)
        total = 0
        for cand in candidates:
            # arrows from already-chosen vertices into v were handled by
            # _vertex_candidates; arrows from v into already-chosen vertices (non-DAG case):
            ok = True
            for key, A in M.arrows.items():
                (i, j, _) = key
                if j == v and i in chosen and M.dims[i]:
                    for vec in cand.k_basis():
                        img = linalg.mat_vec(field, A, vec)
                        if not chosen[i].contains_kvec(img):
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                continue
            chosen[v] = cand
            total += self._count(idx + 1, chosen, e, query)
            del chosen[v]
            if self.weights is not None:
                cand.forget_k_basis()  # a kept candidate holds its K-basis only while chosen
        return total


def count_locally_free_submodules(M, e, budget=DEFAULT_BUDGET):
    """Exact number of locally free rank-e submodules of M over its prime field.

    Works for modules of H (arrows of the orientation) and of the
    preprojective algebra (both arrow directions); closed sink vertices are
    counted by formula rather than enumeration.  Each call may spend at most
    `budget` units: a vertex enumeration spends the size of its whole
    canonical candidate set (_Budget).
    """
    if not isinstance(M.field(), PrimeField):
        raise ValueError("point counts run over prime fields")
    e = tuple(e)
    if any(c * x > d for c, x, d in zip(M.spec.datum.D, e, M.dims)):
        return 0
    return _LocallyFreeCounts(M).count(e, budget)


# --- torus localization: coordinate submodules ------------------------------


def _structure_maps(M):
    """(matrix, source vertex, target vertex) of every eps_v and every arrow."""
    maps = [(M.eps[v], v, v) for v in range(M.spec.datum.n)]
    maps.extend((A, j, i) for (i, j, _), A in M.arrows.items())
    return maps


def _torus_weights(M):
    """(weights, separated): integer weights of the basis of M, one list per
    vertex, that make every structure map homogeneous, and whether they
    tell apart the basis vectors at every vertex.  They do unless two basis
    vectors at one vertex collide, that is have the same weight under every
    weighting; M's eps must be in canonical chain form.

    A weighting w needs one shift d_A per map A (each eps_v, each arrow) with
    w(a) - w(b) = d_A at every nonzero entry A[a][b]: a sparse linear system
    over Q in (w, d).  A spanning forest of its support graph solves it: a
    basis vector x joined to its tree's root by a path gets w(x) = w(root) +
    pi(x).d, where pi(x) counts the maps along the path with signs, and each
    entry off the forest adds the relation (pi(a) - pi(b) - [A]).d = 0.  So
    the weightings are the free root weights together with the d in the
    nullspace N of the relations, and x, y at one vertex collide iff they lie
    in one tree and pi(x).n = pi(y).n for every n in N.  The weighting
    returned takes, in base B, the digits pi(x).n (B larger than twice every
    digit), and offsets each tree by more than twice every such value, so
    distinct (tree, digits) classes get distinct weights: the fixed points
    of diag(t^w) are those of the whole torus of weightings."""
    n = M.spec.datum.n
    offset = [0]
    for d in M.dims:
        offset.append(offset[-1] + d)
    maps = _structure_maps(M)
    adjacent = [[] for _ in range(offset[-1])]
    for m, (A, src, tgt) in enumerate(maps):
        for a, row in enumerate(A):
            for b, x in enumerate(row):
                if x:
                    adjacent[offset[src] + b].append((offset[tgt] + a, m, 1))
                    adjacent[offset[tgt] + a].append((offset[src] + b, m, -1))
    pi = [None] * offset[-1]
    tree = [None] * offset[-1]
    relations = set()
    for root in range(offset[-1]):
        if pi[root] is not None:
            continue
        pi[root] = (0,) * len(maps)
        tree[root] = root
        stack = [root]
        while stack:
            x = stack.pop()
            for y, m, sign in adjacent[x]:
                step = list(pi[x])
                step[m] += sign
                step = tuple(step)
                if pi[y] is None:
                    pi[y] = step
                    tree[y] = root
                    stack.append(y)
                elif pi[y] != step:
                    relations.add(tuple(s - t for s, t in zip(step, pi[y])))
    nullspace = linalg.nullspace(QQ, [list(r) for r in sorted(relations)], len(maps))
    digits = []
    for vec in nullspace:
        scale = math.lcm(*(x.denominator for x in vec))
        digits.append([int(x * scale) for x in vec])
    sig = [tuple(sum(s * t for s, t in zip(pi[x], vec)) for vec in digits)
           for x in range(offset[-1])]
    separated = all(len({(tree[x], sig[x]) for x in range(offset[v], offset[v + 1])}) == M.dims[v]
                    for v in range(n))
    base = 2 * max((abs(s) for x in sig for s in x), default=0) + 1
    h = [sum(s * base ** k for k, s in enumerate(x)) for x in sig]
    spread = 2 * max(map(abs, h), default=0) + 1
    w = [tree[x] * spread + h[x] for x in range(offset[-1])]
    return [w[offset[v]:offset[v + 1]] for v in range(n)], separated


def torus_weighting(M):
    """_torus_weights of M when they separate its basis at every vertex, else
    None: M fails the gate when its eps is not in canonical chain form or
    two basis vectors at one vertex collide."""
    if not _canonical_eps(M):
        return None
    weights, separated = _torus_weights(M)
    return weights if separated else None


def coordinate_counts(M, torus=None):
    """{e: chi(Gr^lf_e(M))} over the rank vectors e of nonzero Euler
    characteristic, or None when M fails the torus_weighting gate.  A caller
    that already has M's _torus_weights (so M's eps is in canonical chain
    form) passes them as `torus`.

    For M that passes, diag(t^w) rescales every structure map, so it acts on
    Gr^lf_e(M) (eps_v is only rescaled, so free stays free) and chi(Gr^lf_e)
    = chi of the fixed points (Bialynicki-Birula).  The weights at a vertex
    are distinct, so a fixed point is a coordinate subspace at each vertex;
    an eps-stable free one is a union of whole eps-chains, and an
    arrow-stable one holds, with each chain, every chain that an arrow's
    nonzero entries reach from it.  Those closed sets of chains are
    enumerated output-sensitively: taking an undecided chain forces every
    chain it reaches, leaving it out forces out every chain reaching it, and
    both branches always extend to a closed set."""
    if torus is None:
        if not _canonical_eps(M):
            return None
        torus = _torus_weights(M)
    if not torus[1]:
        return None
    D = M.spec.datum.D
    chains = [(v, b) for v, c in enumerate(D) for b in range(M.dims[v] // c)]
    index = {chain: k for k, chain in enumerate(chains)}
    reach = [1 << k for k in range(len(chains))]  # k and every chain it forces
    for (i, j, _), A in M.arrows.items():
        for a, row in enumerate(A):
            for x, val in enumerate(row):
                if val:
                    reach[index[(j, x // D[j])]] |= 1 << index[(i, a // D[i])]
    changed = True
    while changed:  # transitive closure
        changed = False
        for k, mask in enumerate(reach):
            closure = mask
            for s in range(len(chains)):
                if mask >> s & 1:
                    closure |= reach[s]
            if closure != mask:
                reach[k] = closure
                changed = True
    reached_from = [sum(1 << k for k, mask in enumerate(reach) if mask >> s & 1)
                    for s in range(len(chains))]
    vertex_masks = [sum(1 << k for k, (u, _) in enumerate(chains) if u == v)
                    for v in range(len(D))]
    full = (1 << len(chains)) - 1
    counts = {}
    stack = [(0, 0)]  # (chains taken, chains left out)
    while stack:
        taken, left_out = stack.pop()
        undecided = full & ~(taken | left_out)
        if undecided:
            k = (undecided & -undecided).bit_length() - 1
            stack.append((taken, left_out | reached_from[k]))
            stack.append((taken | reach[k], left_out))
        else:
            e = tuple((taken & mask).bit_count() for mask in vertex_masks)
            counts[e] = counts.get(e, 0) + 1
    return counts


# --- flag counting -----------------------------------------------------------


def _fills(M, rank):
    """The grading cut-off: flags of M whose subquotients add up to `rank`
    exist only if D * rank = dims M.  Each quotient then passes it too."""
    return all(c * r == d for c, r, d in zip(M.spec.datum.D, rank, M.dims))


def _count_flags(M, word, groups, memo):
    """Flags of M whose subquotients, from the bottom, are the letters of
    word; groups(M, letter) lists the (quotient, multiplicity) pairs of the
    bottom factor `letter`.  The caller has checked the grading, so M is zero
    when the word is used up."""
    if not word:
        return 1
    key = (M.key(), word)
    if key in memo:
        return memo[key]
    total = 0
    for quotient, count in groups(M, word[0]):
        total += count * _count_flags(quotient, word[1:], groups, memo)
    memo[key] = total
    return total


def _soft_iso(A, B):
    """is_isomorphic, with an inconclusive search read as 'distinct': a missed
    merge only costs speed."""
    try:
        return hmod.is_isomorphic(A, B)
    except InternalMismatchError:
        return False


def _merge_isomorphic(groups):
    """[(representative, multiplicity)] of the isomorphism classes among
    (quotient, count) pairs: byte-equal quotients are grouped by key first,
    then groups with isomorphic representatives are merged, in first-seen
    order."""
    by_key = {}
    for quotient, count in groups:
        qk = quotient.key()
        if qk in by_key:
            by_key[qk][1] += count
        else:
            by_key[qk] = [quotient, count]
    merged = []
    for quotient, count in by_key.values():
        for entry in merged:
            if entry[0].dims == quotient.dims and _soft_iso(entry[0], quotient):
                entry[1] += count
                break
        else:
            merged.append([quotient, count])
    return [(rep, count) for rep, count in merged]


def _h_inverse(p, c, h):
    """The inverse in H = F_p[eps]/(eps^c) of h, whose constant term is nonzero."""
    inv0 = pow(h[0], p - 2, p)
    out = [inv0]
    for k in range(1, c):
        acc = 0
        for i in range(1, k + 1):
            acc += h[i] * out[k - i]
        out.append(-inv0 * acc % p)
    return out


def _chain_frame(field, eps):
    """(block sizes, change to chain coordinates) of a nilpotent eps: its
    Jordan blocks in basis order and the matrix taking a vector to the
    coordinates of a chain basis (hmod.jordan_basis), or None when eps is in
    chain form already (read_jordan_blocks)."""
    blocks = hmod.read_jordan_blocks(field, eps)
    if blocks is not None:
        return blocks, None
    cols = hmod.jordan_basis(field, eps)
    to_chain = linalg.inverse(field, cols)
    return (hmod.read_jordan_blocks(field, linalg.mat_mul(field, to_chain,
                                                          linalg.mat_mul(field, eps, cols))),
            to_chain)


def _rank1_key(p, c, blocks, u):
    """The canonical generator of the free rank-one submodule H u, from u in
    chain coordinates (the chains of eps, of the lengths in blocks, one after
    another: coordinate pos + t is the coefficient of eps^t on the top of the
    chain starting at pos).  The generators of one submodule differ by units
    of H, so u is multiplied by the inverse in H of the coefficient of its
    first full-length (c) chain with a nonzero constant term, which becomes
    1.  None when u generates no free rank-one submodule."""
    pos = 0
    for lam in blocks:
        if lam == c and u[pos]:
            break
        pos += lam
    else:
        return None
    inv = _h_inverse(p, c, u[pos:pos + c])
    key = []
    pos = 0
    for lam in blocks:
        for t in range(lam):
            acc = 0
            for s in range(t + 1):
                acc += inv[s] * u[pos + t - s]
            key.append(acc % p)
        pos += lam
    return tuple(key)


def _eps_type(M, v):
    """hmod.eps_partition(M, v), read off without arithmetic when eps_v is in
    chain form."""
    blocks = hmod.read_jordan_blocks(M.field(), M.eps[v])
    if blocks is None:
        return hmod.eps_partition(M, v)
    return tuple(sorted(blocks, reverse=True))


AUT_DRAWS = 2  # random elements of End(M) tried as automorphisms, per module


class Counter:
    """Memoizing per-prime counting engine for flags and Grassmannians.

    The memo tables are keyed by exact module fingerprints and outlive
    queries; the budget does not: each flag_count call may enumerate at most
    `budget` generators.
    """

    def __init__(self, budget=DEFAULT_BUDGET):
        self.budget = budget
        self._query = _Budget(budget)
        self.flag_memo = {}
        self.group_memo = {}
        self.class_reps = []
        self.rep_memo = {}  # (spec, key) -> representative; key() omits the spec
        self.aut_memo = {}  # key -> verified automorphisms (_automorphisms)

    def class_rep(self, M):
        """The first-seen module isomorphic to M (M itself if none is)."""
        memo_key = (M.spec, M.key())
        if memo_key in self.rep_memo:
            return self.rep_memo[memo_key]
        inv = (M.spec, M.dims,
               tuple(_eps_type(M, v) for v in range(M.spec.datum.n)),
               tuple(sorted((k, linalg.rank(M.field(), m) if m else 0)
                            for k, m in M.arrows.items())))
        for inv2, rep in self.class_reps:
            if inv2 == inv and _soft_iso(M, rep):
                break
        else:
            self.class_reps.append((inv, M))
            rep = M
        self.rep_memo[memo_key] = rep
        return rep

    def _automorphisms(self, M):
        """Verified automorphisms of M over its prime field, as tuples of
        vertex matrices: AUT_DRAWS seeded random elements of End(M)
        (hom_basis, once per module), each kept only if
        hmod._combination_invertible proves it invertible.  None are drawn
        when End(M) is the scalars, which fix every submodule."""
        memo_key = M.key()
        if memo_key not in self.aut_memo:
            field = M.field()
            p = field.p
            basis = hmod.hom_basis(M, M).basis
            rng = random.Random(0)
            auts = []
            for _ in range(AUT_DRAWS if len(basis) > 1 else 0):
                coeffs = [rng.randrange(p) for _ in basis]
                if hmod._combination_invertible(field, M, basis, coeffs):
                    auts.append(tuple(
                        [[sum(x * f[v][a][b] for x, f in zip(coeffs, basis)) % p
                          for b in range(M.dims[v])] for a in range(M.dims[v])]
                        for v in range(M.spec.datum.n)))
            self.aut_memo[memo_key] = auts
        return self.aut_memo[memo_key]

    def _orbits(self, M, j, gens):
        """[(index of the first-seen generator, orbit size)] of the rank-one
        generators gens at vertex j, in first-seen order, under the group
        that the automorphisms of M generate: each u is joined with g_j u,
        found by its _rank1_key.  An image that is not among gens raises."""
        if len(gens) == 1:
            return [(0, 1)]
        field = M.field()
        p, c = field.p, M.spec.datum.D[j]
        blocks, to_chain = _chain_frame(field, M.eps[j])

        def key(u):
            return _rank1_key(p, c, blocks, u if to_chain is None else
                             linalg.mat_vec(field, to_chain, u))

        index = {key(u): k for k, u in enumerate(gens)}
        if None in index or len(index) != len(gens):
            raise InternalMismatchError(
                "the rank-one generators do not span distinct free submodules")
        root = list(range(len(gens)))

        def find(k):
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k

        for g in self._automorphisms(M):
            for k, u in enumerate(gens):
                image = index.get(key([sum(map(operator.mul, row, u)) % p for row in g[j]]))
                if image is None:
                    raise InternalMismatchError(
                        f"an automorphism maps a rank-one generator at vertex {j} "
                        f"outside the generators (dims {M.dims}, {field!r})")
                a, b = find(k), find(image)
                if a != b:
                    root[max(a, b)] = min(a, b)  # the first-seen member stays the root
        sizes = {}
        for k in range(len(gens)):
            r = find(k)
            sizes[r] = sizes.get(r, 0) + 1
        return sorted(sizes.items())

    def bottom_e_groups(self, M, j):
        """[(quotient representative, multiplicity)] over E_j-submodules of M.

        The E_j-submodules are the H u for the free rank-one generators u of
        allowed_bottom_space.  An automorphism g of M gives M/Hu = M/H(g u),
        so one quotient is built per orbit (_orbits), from its first-seen
        generator, and weighted by the orbit size; orbits merge further only
        by a proved isomorphism (_merge_isomorphic)."""
        key = (M.key(), j)
        if key in self.group_memo:
            return self.group_memo[key]
        field = M.field()
        c = M.spec.datum.D[j]
        n = M.spec.datum.n
        gens = []
        for u in iter_free_rank1_generators(field, M.eps[j], allowed_bottom_space(M, j), c):
            self._query.spend(1)
            gens.append(u)
        powers = _eps_powers(field, M.eps[j], c)

        def quotient(u):
            span = [linalg.mat_vec(field, P, u) for P in powers]
            return hmod.quotient_by_subspaces(M, [span if v == j else [] for v in range(n)])

        out = _merge_isomorphic((quotient(gens[k]), size)
                                for k, size in self._orbits(M, j, gens)) if gens else []
        self.group_memo[key] = out
        return out

    def flag_count(self, M, word):
        """Number of flags of submodules with subquotients E_{word[0]}, ... ,
        E_{word[-1]} from the bottom, over the prime field of M."""
        word = tuple(word)
        if not _fills(M, [word.count(v) for v in range(M.spec.datum.n)]):
            return 0
        self._query = _Budget(self.budget)
        return _count_flags(M, word, self.bottom_e_groups, self.flag_memo)


def _flag_degree_bound(M_rk, datum, word):
    rho = list(M_rk)
    bound = 0
    for letter in word:
        if rho[letter] <= 0:
            return 0
        bound += datum.D[letter] * (rho[letter] - 1)
        rho[letter] -= 1
    return bound


def _grlf_degree_bound(datum, r, e):
    return sum(datum.D[i] * e[i] * (r[i] - e[i]) for i in range(datum.n))


class _PointCounts:
    """The counts mod p that chi(Gr^lf_e(M)) is fitted to, for a module M
    that fails the torus gate.  When M's eps is in canonical chain form the
    torus diag(t^w) of its _torus_weights still acts, and chi(Gr^lf_e) is
    chi of the fixed locus (Bialynicki-Birula), so the graded lf submodules
    are counted (variety "fixed_locus"); otherwise the whole Gr^lf_e is
    ("grassmannian").  M is reduced and prepared (_LocallyFreeCounts) once
    per prime, for every e.  torus is M's _torus_weights, or None when its
    eps is not in chain form."""

    def __init__(self, M, torus):
        self.M = M
        self.weights = None if torus is None else torus[0]
        self.variety = "grassmannian" if self.weights is None else "fixed_locus"
        self.by_prime = {}
        self.memo = _CandidateMemo()

    def count(self, p, e, budget):
        if p not in self.by_prime:
            self.by_prime[p] = _LocallyFreeCounts(hmod.reduce_mod_p(self.M, p), self.weights,
                                                  self.memo)
        return self.by_prime[p].count(e, budget)


def _localize(M):
    """(coordinate_counts(M), None) when M passes the torus gate, else (None,
    _PointCounts of M), with M's _torus_weights computed once."""
    torus = _torus_weights(M) if _canonical_eps(M) else None
    coordinate = None if torus is None else coordinate_counts(M, torus)
    return coordinate, None if coordinate is not None else _PointCounts(M, torus)


class EulerEngine:
    """Reduces an integral model mod each sample prime and interpolates counts."""

    def __init__(self, budget=DEFAULT_BUDGET, pool=PRIME_POOL):
        self.pool = pool
        self.budget = budget
        self.counters = {}
        # "kind [rank] [e or word]" -> CountingPolynomial of the latest such
        # count, or the int of a grlf answered by coordinate_counts
        self.transcripts = {}
        self._dedup = Counter(budget)  # iso classes of integral models
        self.reductions = {}  # (spec, key) of a class representative -> {prime: reduction}

    def counter(self, p) -> Counter:
        if p not in self.counters:
            self.counters[p] = Counter(self.budget)
        return self.counters[p]

    def _record(self, kind, rk, letters, poly):
        self.transcripts[f"{kind} {list(rk)} {list(letters)}"] = poly

    def euler_char_grlf(self, M, e):
        """chi of the locally free Grassmannian of rank e: a coordinate count
        when M passes the torus gate, else fitted to point counts."""
        rk = hmod.require_locally_free(M)
        return self._grlf(rk, tuple(e), *_localize(M))

    def _grlf(self, rk, e, coordinate, points):
        """euler_char_grlf of a module M, locally free of rank rk.  coordinate
        is coordinate_counts(M); when it is None, the counts mod p are
        points.count (_PointCounts of M)."""
        if any(x < 0 or x > r for x, r in zip(e, rk)):
            return 0
        if coordinate is not None:
            chi = coordinate.get(e, 0)
            self._record("grlf", rk, e, chi)
            return chi
        bound = _grlf_degree_bound(points.M.spec.datum, rk, e)
        poly = interpolate_counts(lambda p: points.count(p, e, self.budget), bound, pool=self.pool)
        poly.variety = points.variety
        self._record("grlf", rk, e, poly)
        return poly.value_at_one()

    def f_polynomial(self, M):
        """F_M = sum over e of chi(Grlf_e(M)) Y^e as an exponent->coeff table.
        M is checked and put through the torus gate once; a module that fails
        it is reduced and prepared mod each prime once for all e."""
        rk = hmod.require_locally_free(M)
        coordinate, points = _localize(M)
        terms = {}
        for e in itertools.product(*(range(r + 1) for r in rk)):
            chi = self._grlf(rk, e, coordinate, points)
            if chi:
                terms[e] = chi
        zero = tuple([0] * len(rk))
        if terms.get(zero) != 1 or terms.get(tuple(rk)) != 1:
            raise InterpolationError("F-polynomial lacks unit constant or top term")
        return terms

    def flag_euler(self, M, word):
        return self._flag_euler(M, hmod.require_locally_free(M), word)

    def _flag_euler(self, M, rk, word):
        """flag_euler of M, locally free of rank rk; 0 unless the letters of
        word add up to rk."""
        datum = M.spec.datum
        need = [0] * datum.n
        for letter in word:
            need[letter] += 1
        if list(rk) != need:
            return 0
        M = self._dedup.class_rep(M)  # isomorphic inputs share counts
        bound = _flag_degree_bound(rk, datum, word)
        reductions = self.reductions.setdefault((M.spec, M.key()), {})

        def count(p):
            if p not in reductions:
                reductions[p] = hmod.reduce_mod_p(M, p)
            return self.counter(p).flag_count(reductions[p], word)

        poly = interpolate_counts(count, bound, pool=self.pool)
        self._record("flag", rk, word, poly)
        return poly.value_at_one()

    def theta_eval(self, combination, M):
        """Evaluate a formal integer combination of E-words on M, exactly;
        graded pieces of the wrong weight evaluate to zero."""
        rk = hmod.require_locally_free(M)
        return sum((Fraction(coeff) * self._flag_euler(M, rk, word)
                    for coeff, word in combination), Fraction(0))


def serre_commutator(i, j, power):
    """(ad theta_i)^power (theta_j) expanded into E-words with coefficients."""
    out = []
    for k in range(power, -1, -1):
        coeff = (-1) ** (power - k) * math.comb(power, k)
        word = tuple([i] * k + [j] + [i] * (power - k))
        out.append((coeff, word))
    return out


# --- prescribed-isomorphism-class flags (PBW / filtration order) -------------


def _iter_lf_submodules(M, e, budget):
    """Yield the per-vertex subspaces of every locally free rank-e submodule
    of M; requires an acyclic constraint order (H-modules)."""
    field = M.field()
    datum = M.spec.datum
    n = datum.n
    e = tuple(e)
    order = _constraint_order(M)
    if order is None:
        raise ValueError("prescribed-class enumeration needs an acyclic quiver")
    verts = [v for v in order if M.dims[v] > 0 or e[v] > 0]

    def recurse(idx, chosen):
        if idx == len(verts):
            yield [chosen[v].k_basis() if v in chosen else [] for v in range(n)]
            return
        v = verts[idx]
        if datum.D[v] * e[v] > M.dims[v]:
            return
        for cand in _vertex_candidates(field, M, v, e[v], chosen, budget):
            chosen[v] = cand
            yield from recurse(idx + 1, chosen)
            del chosen[v]

    yield from recurse(0, {})


class ClassFlagCounter:
    """Counts flags whose subquotients run through prescribed rigid classes.

    The memo tables outlive queries; the budget does not: each count call may
    spend at most `budget` units, the sizes of the candidate sets of its
    vertex enumerations (_Budget).
    """

    def __init__(self, spec_p, class_modules, budget=DEFAULT_BUDGET):
        # class_modules: list of rigid locally free modules over the prime field
        self.spec = spec_p
        self.classes = class_modules
        self.ranks = [hmod.require_locally_free(m) for m in class_modules]
        self.end_dims = [hmod.hom_dim(m, m) for m in class_modules]
        self.flag_memo = {}
        self.group_memo = {}
        self.budget = budget
        self._query = _Budget(budget)

    def _sub_groups(self, M, cls_idx):
        key = (M.key(), cls_idx)
        if key in self.group_memo:
            return self.group_memo[key]

        def quotients():
            for subspaces in _iter_lf_submodules(M, self.ranks[cls_idx], self._query):
                sub = hmod.submodule_from_subspaces(M, subspaces)
                # rigid locally free modules of a fixed rank form one class:
                # membership is detected by the minimal endomorphism dimension
                if hmod.hom_dim(sub, sub) == self.end_dims[cls_idx]:
                    yield hmod.quotient_by_subspaces(M, subspaces), 1

        out = _merge_isomorphic(quotients()) if hmod.hom_dim(self.classes[cls_idx], M) else []
        self.group_memo[key] = out
        return out

    def count(self, M, class_word):
        """Number of flags of submodules with subquotients in the classes
        class_word[0], ... , class_word[-1] from the bottom."""
        class_word = tuple(class_word)
        rank = [sum(self.ranks[idx][v] for idx in class_word) for v in range(M.spec.datum.n)]
        if not _fills(M, rank):
            return 0
        self._query = _Budget(self.budget)
        return _count_flags(M, class_word, self._sub_groups, self.flag_memo)


def _weight_splits(betas, target, bound):
    """Count vectors k <= bound (componentwise) with sum_c k_c betas[c] = target."""
    def rec(c, rest):
        if c == len(bound):
            if not any(rest):
                yield ()
            return
        for x in range(bound[c] + 1):
            left = [t - x * b for t, b in zip(rest, betas[c])]
            if min(left) < 0:
                break
            for tail in rec(c + 1, left):
                yield (x,) + tail

    return rec(0, target)


class PBWEngine:
    """Dual PBW pairing: evaluates theta_n on M(m) through flags of prescribed
    root-module subquotients, counted per prime and interpolated."""

    def __init__(self, table, pool=PRIME_POOL, budget=DEFAULT_BUDGET):
        # table: functors.RootModuleTable over the rationals (integral models)
        self.table = table
        self.pool = pool
        self.budget = budget
        self.spec = table.modules[0].spec
        self._per_prime = {}
        self._root_chi_memo = {}  # (root index, class counts) -> chi

    def _prime_setup(self, p):
        if p not in self._per_prime:
            mods_p = [hmod.reduce_mod_p(m, p) for m in self.table.modules]
            self._per_prime[p] = ClassFlagCounter(mods_p[0].spec, mods_p, self.budget)
        return self._per_prime[p]

    def class_word(self, n):
        """theta_n factor sequence: highest root index first (bottom factor)."""
        word = []
        for idx in range(len(n) - 1, -1, -1):
            word.extend([idx] * n[idx])
        return tuple(word)

    def _root_chi(self, b, counts):
        """chi of the flags of the root module M(beta_b) with subquotients
        class_word(counts), counted per prime and interpolated."""
        key = (b, counts)
        if key not in self._root_chi_memo:
            module = self.table.modules[b]
            word = self.class_word(counts)
            bound = 0
            rho = list(self.table.betas[b])
            for idx in word:
                beta = self.table.betas[idx]
                bound += _grlf_degree_bound(self.spec.datum, rho, beta)
                rho = [a - x for a, x in zip(rho, beta)]

            def count(p):
                return self._prime_setup(p).count(hmod.reduce_mod_p(module, p), word)

            poly = interpolate_counts(count, bound, pool=self.pool)
            self._root_chi_memo[key] = poly.value_at_one()
        return self._root_chi_memo[key]

    def pairing(self, m, n):
        """delta_{M(m)}(theta_n) as an exact rational, counted on root modules
        only.  The torus scaling the summands s of M(m) = (+) M(beta_s) fixes a
        flag only when each step lies in one summand (every M(beta) is
        indecomposable), and class_word is sorted by class, so (README, "How
        counting works") it is the sum over n = sum_s k^s with weight(k^s) =
        beta_s of prod_s chi(Fl_{class_word(k^s)}(M(beta_s))) / prod_c k^s_c!."""
        betas = self.table.betas
        if any(sum((a - b) * beta[v] for a, b, beta in zip(m, n, betas))
               for v in range(self.spec.datum.n)):
            return Fraction(0)
        summands = [b for b, mult in enumerate(m) for _ in range(mult)]
        memo = {}

        def share(s, rest):
            # the weights match, so rest is zero once every summand is served
            if s == len(summands):
                return Fraction(1)
            if (s, rest) not in memo:
                b = summands[s]
                total = Fraction(0)
                for k in _weight_splits(betas, betas[b], rest):
                    chi = self._root_chi(b, k)
                    if chi:
                        left = tuple(r - x for r, x in zip(rest, k))
                        norm = math.prod(math.factorial(x) for x in k)
                        total += Fraction(chi, norm) * share(s + 1, left)
                memo[(s, rest)] = total
            return memo[(s, rest)]

        return share(0, tuple(n))

    def filtration_exists(self, M, prescription, primes=None):
        """Per-prime existence of a flag with ordered subquotients
        M(beta_{k})^{mult} (bottom first).  prescription: [(class index, mult)]."""
        word = []
        for idx, mult in prescription:
            word.extend([idx] * mult)
        out = {}
        for p in primes or self.pool[:3]:
            engine = self._prime_setup(p)
            out[p] = engine.count(hmod.reduce_mod_p(M, p), tuple(word)) > 0
        return out


def g_vector(M):
    """g_M = -R * rk(M) for the form matrix R of the module's orientation."""
    rk = hmod.require_locally_free(M)
    fd = cartan.forms(M.spec.datum, M.spec.omega)
    return tuple(-sum(fd.R[i][j] * rk[j] for j in range(M.spec.datum.n))
                 for i in range(M.spec.datum.n))
