"""Point counting over prime fields for locally free quiver Grassmannians and
E-flag varieties; Euler characteristics via counting-polynomial interpolation;
F-polynomials, g-vectors, convolution evaluations and the dual PBW pairing.

Counting strategy.  A free rank-e submodule of H^r (H = K[eps]/(eps^c)) is a
direct summand; its canonical basis matrix has identity at the pivot rows,
full H-entries below a pivot and eps*H-entries above, giving exactly
q^{(c-1)e(r-e)} [r over e]_q candidates per vertex.  A submodule's component
at a vertex must contain the span forced by the components already chosen
and, off a DAG order, map into them along the arrows out of the vertex;
containing a vector and lying in the kernel of a row are both linear in the
pivot-form entries, so iter_free_submodules(containing=, killed_by=)
enumerates only the solutions of that system.  It is the one submodule
enumerator (E-letters read the pivot columns of its _pivot_forms without
building candidates).  Grassmannian counts enumerate source vertices of the
(acyclic) constraint graph and close the sink vertices by the exact formula
for the number of free submodules with prescribed containments; the Jordan
type that formula needs comes from one elimination of the forced span, its
columns ordered by eps-degree (quotient_type).  Flag counts recurse on the
bottom factor.  An E_j letter's submodules are the free rank-one ones killed
by the arrows out of j (_e_letter_generators); they are split into parts
of orbits of the module's automorphisms, drawn lazily from one seeded
stream that the split reads once and keeps nowhere (the first maps every
generator, each later one only the first member of each part, until a pass
merges nothing), and one quotient is built per part (an automorphism g
gives M/U = M/gU); quotients falling in one isomorphism class are merged
through the counter's class registry (Counter.class_rep: byte-equality
first, then dims, then a cheap invariant, then a certified isomorphism
search), so the recursion depth stays flat.  Whether
a flag of prescribed classes exists (ClassFlagCounter.exists) is decided on
the same quotients, unmerged, by a depth-first walk that stops at the first
flag.  Flag Euler characteristics are values at q = 1 of integer polynomials
fitted (in integer arithmetic) to counts over several primes and verified on
a held-out prime.

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
one F-polynomial.  A module whose eps is not in chain form counts the whole
Gr^lf_e.  Either way an F-polynomial reduces the module mod each prime and
prepares it (canonical eps, constraint order, eps powers at the closed
sinks) once for all of its e, and the count is a plain walk over the
constraint order (_LocallyFreeCounts).  On the fixed locus, candidate lists
and forced spans share one bounded memo per F-polynomial (_CandidateMemo);
the count below a vertex is not kept.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import cartan, hmod, linalg
from .errors import (
    InterpolationError,
    InternalMismatchError,
    NotLocallyFreeError,
    PrimePoolExhaustedError,
    PrimeReductionError,
    TooLargeError,
)
from .fields import QQ, PrimeField, prime_field_spec

PRIME_POOL = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
DEFAULT_BUDGET = 10 ** 7


class _Budget:
    """Enumeration units left to one query.  Every top-level query (one
    count_locally_free_submodules, Counter.flag_count, ClassFlagCounter.count,
    ClassFlagCounter.exists or pimod.is_E_filtered call) gets a fresh
    instance.  Each generator of an E_j letter that is taken spends one unit;
    each vertex enumeration of a point count spends the size of its whole
    canonical candidate set, although only the candidates that solve its
    conditions are enumerated, and whether or not its candidate list is
    memoized (_CandidateMemo)."""

    __slots__ = ("units", "left")

    def __init__(self, units):
        self.units = units
        self.left = units

    def spend(self, units, where=""):
        self.left -= units
        if self.left < 0:
            raise TooLargeError(f"enumeration budget of {self.units} exhausted"
                                + (f" by {where}" if where else ""))


class FreeSubCandidate:
    """A free rank-e submodule of H^r in canonical (pivot-identity) form.
    Its K-basis is built on each k_basis call, not kept: few are read twice."""

    __slots__ = ("p", "c", "r", "e", "pivots", "cols")

    def __init__(self, p, c, r, e, pivots, cols):
        self.p = p
        self.c = c
        self.r = r
        self.e = e
        self.pivots = pivots
        self.cols = cols  # e columns, each an r-list of H-tuples

    def k_basis(self):
        """K-basis of the submodule: eps^t * column for t < c."""
        c, r = self.c, self.r
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
        return basis


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


def _containment_solutions(field, c, pivots, free_rows, slots, n_vars, w_basis, killed=()):
    """The unknowns of a pivot form that contain every w of w_basis and are
    killed by every row of killed, as (free unknowns, [(dependent unknown,
    constant, [(free unknown, coeff)])]), or None when no candidate with
    these pivots does.

    The slots are those of _pivot_slots.  A candidate contains w iff
    w[b] = sum_s w[pv_s] * x[s][b] in H at every free row b: the pivot rows
    read the coefficients off.  It is killed by a row iff row . eps^t x[s] =
    0 for every s and t < c, and eps^t x[s] holds the eps^a coefficient of
    x[s][b] at b*c + a + t.  Columns run over the unknowns in reverse, so
    each dependent unknown is solved for in terms of earlier free ones."""
    rows = []
    for row in killed:
        for s, pv in enumerate(pivots):
            for t in range(c):
                eq = [0] * n_vars + [field.neg(row[pv * c + t])]
                for (ss, b, off, first, stop) in slots:
                    if ss == s:
                        for a in range(first, min(stop, c - t)):
                            eq[n_vars - 1 - (off + a - first)] = row[b * c + a + t]
                rows.append(eq)
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


def iter_free_submodules(p, c, r, e, containing=(), weights=None, killed_by=()):
    """The free rank-e submodules of H^r in canonical form that contain every
    K-vector of `containing` and lie in the kernel of every row of
    `killed_by` (row . v = 0 for each K-basis vector v = eps^t x_s of the
    submodule), pivot sets in lexicographic order and the entries of each
    pivot form lexicographically, slot by slot.

    Both kinds of condition are linear in the entries, so their solutions
    are enumerated directly; each dependent entry is a function of earlier
    free ones, which keeps the order of the unconstrained enumeration.

    With weights (one integer per K-basis vector b*c+t of H^r, making eps
    homogeneous), only the submodules fixed by the torus diag(t^weights)
    are enumerated, in the same order: the canonical form is unique and the
    torus rescales the entry x[s][b] at eps^t by t^(weights[b*c+t] -
    weights[pv_s*c]), so a submodule is fixed iff each of its entries sits
    at its pivot's weight (_pivot_slots)."""
    for pivots, cols in _pivot_forms(p, c, r, e, containing, weights, killed_by):
        yield FreeSubCandidate(p, c, r, e, pivots, cols)


def _pivot_forms(p, c, r, e, containing=(), weights=None, killed_by=()):
    """(pivots, columns) of each submodule that iter_free_submodules yields,
    in its order: the one enumeration of free submodules, whose pivot
    columns E-letters (_e_letter_generators) read without building
    candidates."""
    if e > r:
        return
    if e == 0:
        if not any(any(w) for w in containing):
            yield (), ()
        return
    field = prime_field_spec(p).field()
    w_basis = []
    if e < r and containing:  # H^r itself (e == r) contains every vector
        w_basis = linalg.row_space(field, containing)
        if len(w_basis) > c * e:
            return  # a free rank-e submodule has dimension c * e
    killed = [row for row in killed_by if any(row)]
    options = {}  # (first, stop) -> the H-tuples with support in [first, stop)
    unit = tuple([1] + [0] * (c - 1))
    zero = tuple([0] * c)
    for pivots in itertools.combinations(range(r), e):
        free_rows, slots, n_vars = _pivot_slots(c, r, pivots, weights)
        if not w_basis and not killed:
            for (_, _, _, first, stop) in slots:
                if (first, stop) not in options:
                    options[(first, stop)] = [
                        (0,) * first + h + (0,) * (c - stop)
                        for h in itertools.product(range(p), repeat=stop - first)]
            assignments = itertools.product(*(options[(first, stop)]
                                              for (_, _, _, first, stop) in slots))
        else:
            solved = _containment_solutions(field, c, pivots, free_rows, slots, n_vars, w_basis,
                                            killed)
            if solved is None:
                continue
            assignments = _solved_entries(p, c, slots, n_vars, *solved)
        for assignment in assignments:
            cols = [[zero] * r for _ in range(e)]
            for s, pv in enumerate(pivots):
                cols[s][pv] = unit
            for (s, b, _, _, _), h in zip(slots, assignment):
                cols[s][b] = h
            yield pivots, tuple([tuple(col) for col in cols])


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


def interpolate_counts(count_fn, degree_bound, pool=PRIME_POOL):
    """Fit a single integer polynomial through exact counts over primes.

    Samples are accumulated from the pool, at least five; a fit through all
    but the last sample must have integer coefficients, degree within the
    bound, and must reproduce the held-out last sample exactly.  Failures to
    stabilize within degree_bound + 2 points surface as InterpolationError.
    """
    samples = []
    for p in pool:
        try:
            count = count_fn(p)
        except PrimeReductionError:
            continue  # integral model not reducible at this prime; use the next one
        samples.append((p, count))
        if len(samples) < 5:
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


def _e_letter_generators(M, j):
    """The canonical generators u of the E_j-submodules H u of M: the free
    rank-one submodules of M_j inside allowed_bottom_space, that is killed
    by the rows of every arrow leaving j, each its pivot column flattened
    into a tuple (u[b*c + t] is the eps^t coefficient at row b).  M_j must be free with
    eps_j in canonical chain form."""
    field, c = M.field(), M.spec.datum.D[j]
    if not hmod._free_chains(field, M.eps[j], c):
        raise ValueError(f"E_{j + 1}-submodules are enumerated in a free M_{j + 1} "
                         "with eps in canonical chain form")
    arrow_rows = [row for (_, src, _), A in M.arrows.items() if src == j for row in A]
    for _, cols in _pivot_forms(field.p, c, M.dims[j] // c, 1, killed_by=arrow_rows):
        yield tuple(itertools.chain.from_iterable(cols[0]))


def _e_letter_quotient(M, j, u):
    """M / Hu for a canonical generator u of _e_letter_generators: Hu is
    spanned by the shifts eps^t u (t < c) of the flattened generator."""
    c, n = M.spec.datum.D[j], M.spec.datum.n
    span = [[u[x - t] if x % c >= t else 0 for x in range(len(u))] for t in range(c)]
    return hmod.quotient_by_subspaces(M, [span if v == j else [] for v in range(n)])


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


def _vertex_candidates(field, M, v, e_v, chosen, budget, killed=()):
    """Free rank-e_v candidates at v that contain the arrow images (an
    H-submodule contains their H-span) and are killed by the rows of killed.
    The call spends the size of the whole canonical candidate set at v, so a
    query spends what enumerating and filtering every candidate would."""
    p, c, r = field.p, M.spec.datum.D[v], _vertex_rank(M, v)
    _spend_on_vertex(budget, count_free_submodules_of_type((c,) * r, e_v, p, c), v, r, e_v, p)
    yield from iter_free_submodules(p, c, r, e_v, _arrow_images(field, M, v, chosen),
                                    killed_by=killed)


FIXED_MEMO_ROOM = 8192  # units kept per F-polynomial (_CandidateMemo)


class _CandidateMemo:
    """What the counts of one module keep, shared by the primes and the e of
    one F-polynomial, within `room` units, which bounds the memory:

    - lists: torus-fixed candidate lists by (prime, vertex, e_v, forced span
      in RREF, flattened), one unit per list and one per candidate;
    - spans: (prime, vertex, the chosen components at the tails of the
      arrows into the vertex) -> that flattened forced span, one unit each.

    A chosen component is keyed by the columns of its pivot form (its
    pivots are the first rows with a unit constant term).  Whatever does
    not fit is computed again at each visit."""

    def __init__(self):
        self.lists = {}
        self.spans = {}
        self.room = FIXED_MEMO_ROOM

    def get(self, key, enumerate_candidates):
        """The candidate list of key; one that does not fit the room is
        returned as an iterator and never held whole."""
        if key in self.lists:
            return self.lists[key]
        candidates = enumerate_candidates()
        head = list(itertools.islice(candidates, self.room))
        if len(head) < self.room:  # the enumeration ended within the room
            self.room -= 1 + len(head)
            self.lists[key] = head
            return head
        return itertools.chain(head, candidates)

    def keep(self, table, key, value):
        if self.room:
            self.room -= 1
            table[key] = value


class _LocallyFreeCounts:
    """count_locally_free_submodules of one module over a prime field, for any
    rank vector, with the work that depends only on the module done once: the
    canonical eps (normalized if need be), the constraint order and the eps
    powers at the sinks closed by formula.  An F-polynomial makes one per
    prime for all of its e.

    The count walks the enumerated vertices in constraint order, spending
    the candidate-set size at every vertex it visits, and closes the sinks
    by formula.  The count below a vertex is not memoized: measured, its
    keys cost more than the repeats they saved.

    With weights (_torus_weights of the integral model, whose eps must be
    canonical), it counts the fixed locus of the torus diag(t^weights) in
    Gr^lf_e instead: the graded lf submodules.  Every vertex is enumerated
    (the sink closed form counts all free submodules, not the graded ones),
    and the candidate lists are kept per (vertex, e_v, RREF of the forced
    span), for all e, and the forced span per chosen tail components; each
    vertex visit still spends the size of its whole torus-fixed candidate
    set."""

    def __init__(self, M, weights=None, memo=None):
        field = M.field()
        if not isinstance(field, PrimeField):
            raise ValueError("point counts run over prime fields")
        # candidates and the sink closed form assume the canonical free eps layout
        normalized = hmod.chain_form(M)
        if normalized is not M and weights is not None:
            raise ValueError("fixed-locus counts need eps in canonical chain form")
        if normalized is None:
            raise NotLocallyFreeError("module is not locally free")
        M = normalized
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
        enum_verts = [v for v in order if v not in closed and M.dims[v] > 0]
        self.enum_verts = enum_verts
        self.closed_verts = [v for v in order if v in closed and M.dims[v] > 0]
        into = {(i, j) for (i, j, _) in M.arrows}  # (target, source) of every arrow
        # tails[idx]: the vertices of enum_verts[:idx] with an arrow into enum_verts[idx];
        # heads[idx]: the arrows from enum_verts[idx] into them (only off a DAG order)
        self.tails = [tuple([u for u in enum_verts[:idx] if (v, u) in into])
                      for idx, v in enumerate(enum_verts)]
        self.heads = [[(A, i) for (i, j, _), A in M.arrows.items() if j == v and i in enum_verts[:idx]]
                      for idx, v in enumerate(enum_verts)]
        self.powers = {v: _eps_powers(field, M.eps[v], datum.D[v]) for v in self.closed_verts}
        self.weights = weights
        self.memo = memo if memo is not None else _CandidateMemo()
        self.sizes = {}  # (v, e_v) -> size of the torus-fixed candidate set

    def _fixed_candidates(self, idx, v, e_v, chosen, budget, killed):
        """The torus-fixed counterpart of _vertex_candidates, memoized."""
        M, field, memo = self.M, self.field, self.memo
        p, c, r = field.p, M.spec.datum.D[v], _vertex_rank(M, v)
        if (v, e_v) not in self.sizes:
            self.sizes[(v, e_v)] = _candidate_set_size(p, c, r, e_v, self.weights[v])
        _spend_on_vertex(budget, self.sizes[(v, e_v)], v, r, e_v, p)
        tails = (p, v, tuple([chosen[u].cols for u in self.tails[idx]]))
        flat = memo.spans.get(tails)
        if flat is None:
            span = linalg.row_space(field, _arrow_images(field, M, v, chosen))
            flat = tuple([x for row in span for x in row])
            memo.keep(memo.spans, tails, flat)
        d = M.dims[v]
        return memo.get((p, v, e_v, flat, killed), lambda: iter_free_submodules(
            p, c, r, e_v, [list(flat[k:k + d]) for k in range(0, len(flat), d)], self.weights[v],
            killed))

    def _killed_rows(self, idx, chosen):
        """In RREF, as a tuple of tuples, the rows that kill exactly the
        vectors at enum_verts[idx] that the arrows of heads[idx] map into the
        chosen components at their heads: f A for every arrow A and every f
        in the annihilator of the component at its head."""
        field, M = self.field, self.M
        rows = []
        for A, i in self.heads[idx]:
            annihilator = linalg.nullspace(field, chosen[i].k_basis(), M.dims[i])
            if annihilator:
                rows.extend(linalg.mat_mul(field, annihilator, A))
        return tuple(map(tuple, linalg.row_space(field, rows)))

    def count(self, e, budget):
        datum = self.M.spec.datum
        if any(c * x > d for c, x, d in zip(datum.D, e, self.M.dims)):
            return 0
        return self._walk(0, {}, e, _Budget(budget))

    def _walk(self, idx, chosen, e, query):
        """The submodules extending the components chosen at enum_verts[:idx]:
        the candidates at enum_verts[idx], each extended by _walk, or the
        closed sinks' product at the end.  A method, not a closure: a
        self-referencing closure would keep the memo alive until the cyclic
        garbage collector ran."""
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
        # the candidates contain the images of the arrows from chosen components
        # into v and, off a DAG order, map into the chosen ones along the heads
        killed = self._killed_rows(idx, chosen) if self.heads[idx] else ()
        if self.weights is None:
            candidates = _vertex_candidates(field, M, v, e[v], chosen, query, killed)
        else:
            candidates = self._fixed_candidates(idx, v, e[v], chosen, query, killed)
        total = 0
        for cand in candidates:
            chosen[v] = cand
            total += self._walk(idx + 1, chosen, e, query)
            del chosen[v]
        return total


def count_locally_free_submodules(M, e, budget=DEFAULT_BUDGET):
    """Exact number of locally free rank-e submodules of M over its prime field.

    Works for modules of H (arrows of the orientation) and of the
    preprojective algebra (both arrow directions); closed sink vertices are
    counted by formula rather than enumeration.  Each call may spend at most
    `budget` units: a vertex enumeration spends the size of its whole
    canonical candidate set (_Budget).  A module that is not locally free
    raises NotLocallyFreeError, whatever e, and one over the rationals
    ValueError.
    """
    return _LocallyFreeCounts(M).count(tuple(e), budget)


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
    if not hmod.in_chain_form(M):
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
        if not hmod.in_chain_form(M):
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


def _rank1_key(p, c, u):
    """The canonical generator of the free rank-one submodule H u of a free
    module whose eps is in canonical chain form (chains of length c, one
    after another: coordinate b*c + t is the coefficient of eps^t on the top
    of chain b).  The generators of one submodule differ by units of H, so u
    is multiplied by the inverse in H of its first chain coefficient with a
    nonzero constant term, which becomes 1: the flattened pivot column of
    iter_free_submodules.  None when u generates no free rank-one
    submodule."""
    for pos in range(0, len(u), c):
        if u[pos]:
            break
    else:
        return None
    inv = _h_inverse(p, c, u[pos:pos + c])
    return tuple(sum(inv[s] * u[pos + t - s] for s in range(t + 1)) % p
                 for pos in range(0, len(u), c) for t in range(c))


AUT_DRAWS = 2  # singular draws in a row that end a module's automorphism stream


def _class_invariant(M):
    """What class_rep compares before an isomorphism search, past the spec
    and dims: the Jordan type of eps at every vertex and the rank of every
    arrow."""
    return (tuple(hmod.eps_partition(M, v) for v in range(M.spec.datum.n)),
            tuple(sorted((k, linalg.rank(M.field(), m) if m else 0)
                         for k, m in M.arrows.items())))


def _draw_automorphisms(M):
    """Yield the seeded random elements of End(M) that are invertible, as
    tuples of vertex matrices: the non-None draws of
    hmod._seeded_combinations over one hom_basis.  A singular draw is
    skipped; AUT_DRAWS singular draws in a row end the stream.  Nothing is
    drawn when End(M) is the scalars, which fix every submodule."""
    basis = hmod.hom_basis(M, M)
    if len(basis) <= 1:
        return
    misses = 0
    for g in hmod._seeded_combinations(M.field(), M, basis):
        if g is None:
            misses += 1
            if misses == AUT_DRAWS:
                return
        else:
            misses = 0
            yield g


class Counter:
    """Memoizing per-prime counting engine for E-flags.

    The memo tables are keyed by exact module fingerprints and outlive
    queries; the budget does not: each flag_count call may enumerate at most
    `budget` E-letter generators (_e_letter_generators, one unit each).
    The class registry (class_rep) outlives queries too: every quotient list
    merges through it (_merge), so a class met again in a later query keeps
    its first representative and that representative's memoized counts.
    Automorphisms are not kept: the one split of a module's E-letter
    generators into parts of orbits (_orbits, memoized with its quotients in
    group_memo) reads the stream _draw_automorphisms once.
    """

    def __init__(self, budget=DEFAULT_BUDGET):
        self.budget = budget
        self._query = _Budget(budget)
        self.flag_memo = {}
        self.group_memo = {}
        self.class_reps = []  # [invariant or None until needed, representative]
        self.rep_memo = {}  # (spec, key) -> representative; key() omits the spec

    def class_rep(self, M):
        """The first-seen module isomorphic to M (M itself if none is).

        A module seen before is a memo hit on its key.  Otherwise only the
        registered modules with M's spec and dims are looked at, and of
        those only the ones with M's invariant (_class_invariant, computed
        for each module on first need) are tested, by the certified search
        hmod.is_isomorphic; an inconclusive search counts as 'distinct', since
        a missed merge only costs speed."""
        memo_key = (M.spec, M.key())
        if memo_key in self.rep_memo:
            return self.rep_memo[memo_key]
        inv = None
        for entry in self.class_reps:
            rep = entry[1]
            if rep.dims != M.dims or rep.spec != M.spec:
                continue
            if inv is None:
                inv = _class_invariant(M)
            if entry[0] is None:
                entry[0] = _class_invariant(rep)
            if entry[0] != inv:
                continue
            try:
                if hmod.is_isomorphic(M, rep):
                    break
            except InternalMismatchError:
                pass
        else:
            self.class_reps.append([inv, M])
            rep = M
        self.rep_memo[memo_key] = rep
        return rep

    def _merge(self, pairs):
        """[(representative, multiplicity)] of the isomorphism classes among
        (quotient, count) pairs: each quotient is grouped under its class_rep,
        in first-seen order."""
        merged = {}
        for quotient, count in pairs:
            rep = self.class_rep(quotient)
            merged[rep] = merged.get(rep, 0) + count
        return list(merged.items())

    def _count_flags(self, M, word, groups):
        """Flags of M whose subquotients, from the bottom, are the letters of
        word; groups(M, letter) lists the (quotient, multiplicity) pairs of the
        bottom factor `letter`.  The caller has checked the grading, so M is
        zero when the word is used up.  Counts are kept in flag_memo."""
        if not word:
            return 1
        key = (M.key(), word)
        if key not in self.flag_memo:
            self.flag_memo[key] = sum(count * self._count_flags(quotient, word[1:], groups)
                                      for quotient, count in groups(M, word[0]))
        return self.flag_memo[key]

    def _orbits(self, M, j, gens):
        """[(root, part size)] of a partition of the canonical rank-one
        generators gens at vertex j (_e_letter_generators) whose every part
        lies in one orbit of Aut(M), in first-seen order; each root is the
        index of its part's first-seen member.  A pass joins u with g_j u,
        found by its _rank1_key, for one automorphism g of a fresh stream
        _draw_automorphisms(M): the first pass maps every generator, each
        later one only the root of each part, and a next automorphism is
        drawn only while the previous pass merged a pair and more than one
        part is left.  Every join is made by an automorphism g, and
        M/Hu = M/H(g u), so all members of a part have isomorphic quotients.
        An image that is not among gens raises."""
        if len(gens) == 1:
            return [(0, 1)]
        field = M.field()
        p, c = field.p, M.spec.datum.D[j]
        index = {u: k for k, u in enumerate(gens)}
        root = list(range(len(gens)))

        def find(k):
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k

        todo = range(len(gens))  # the roots, in first-seen order
        for g in _draw_automorphisms(M):
            parts = len(todo)
            for k in todo:
                image = index.get(_rank1_key(p, c, [sum(map(operator.mul, row, gens[k])) % p
                                                     for row in g[j]]))
                if image is None:
                    raise InternalMismatchError(
                        f"an automorphism maps a rank-one generator at vertex {j} "
                        f"outside the generators (dims {M.dims}, {field!r})")
                a, b = find(k), find(image)
                if a != b:
                    root[max(a, b)] = min(a, b)  # the first-seen member stays the root
            todo = [k for k in todo if root[k] == k]
            if len(todo) in (parts, 1):  # merged nothing, or one part left
                break
        sizes = dict.fromkeys(todo, 0)
        for k in range(len(gens)):
            sizes[find(k)] += 1
        return list(sizes.items())

    def bottom_e_groups(self, M, j):
        """[(quotient representative, multiplicity)] over E_j-submodules of M,
        whose M_j must be free with eps_j in canonical chain form.

        The E_j-submodules are the H u for the canonical generators u of
        _e_letter_generators, each spending one unit.  An automorphism g of M
        gives M/Hu = M/H(g u), so one quotient (_e_letter_quotient) is built
        per part of the partition _orbits, from its first-seen generator, and
        weighted by the part size; parts merge further by class (_merge): the
        class registry of the counter, shared by all its queries
        (class_rep)."""
        key = (M.key(), j)
        if key in self.group_memo:
            return self.group_memo[key]
        gens = []
        for u in _e_letter_generators(M, j):
            self._query.spend(1)
            gens.append(u)
        out = self._merge((_e_letter_quotient(M, j, gens[k]), size)
                          for k, size in self._orbits(M, j, gens)) if gens else []
        self.group_memo[key] = out
        return out

    def flag_count(self, M, word):
        """Number of flags of submodules with subquotients E_{word[0]}, ... ,
        E_{word[-1]} from the bottom, over the prime field of M.  Such a flag
        makes M locally free, so a module that is not has none; one whose eps
        is not in canonical chain form is normalized once (hmod.chain_form),
        after the memo is looked up, so a repeated query reads no eps.
        Every quotient of the recursion is locally free (H is self-injective,
        so a free Hu is a summand at its vertex) and normalized by
        quotient_by_subspaces."""
        word = tuple(word)
        if not _fills(M, [word.count(v) for v in range(M.spec.datum.n)]):
            return 0
        known = self.flag_memo.get((M.key(), word))
        if known is not None:
            return known
        M = hmod.chain_form(M)
        if M is None:
            return 0
        self._query = _Budget(self.budget)
        return self._count_flags(M, word, self.bottom_e_groups)


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
    torus = _torus_weights(M) if hmod.in_chain_form(M) else None
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


class ClassFlagCounter(Counter):
    """Counts flags whose subquotients run through prescribed rigid classes,
    and decides whether one exists.

    count merges the isomorphic quotients of each level through the class
    registry it inherits (_sub_groups, Counter._merge); exists walks the
    quotients depth first, unmerged, and stops at the first complete flag.
    Both read one enumeration, _class_quotients.  The memo tables and the
    registry outlive queries; the budget does not: each count or exists call
    may spend at most `budget` units, the sizes of the candidate sets of its
    vertex enumerations (_Budget).
    """

    def __init__(self, class_modules, budget=DEFAULT_BUDGET):
        # class_modules: list of rigid locally free modules over the prime field
        super().__init__(budget)
        self.classes = class_modules
        self.ranks = [hmod.require_locally_free(m) for m in class_modules]
        self.end_dims = [hmod.hom_dim(m, m) for m in class_modules]
        self.exists_memo = {}  # (module key, word) -> whether a flag exists

    def _class_quotients(self, M, cls_idx):
        """Yield M/S for every locally free submodule S of M in the class
        cls_idx, in _iter_lf_submodules order, one per submodule."""
        if not hmod.hom_dim(self.classes[cls_idx], M):
            return
        for subspaces in _iter_lf_submodules(M, self.ranks[cls_idx], self._query):
            sub = hmod.submodule_from_subspaces(M, subspaces)
            # rigid locally free modules of a fixed rank form one class:
            # membership is detected by the minimal endomorphism dimension
            if hmod.hom_dim(sub, sub) == self.end_dims[cls_idx]:
                yield hmod.quotient_by_subspaces(M, subspaces)

    def _sub_groups(self, M, cls_idx):
        key = (M.key(), cls_idx)
        if key not in self.group_memo:
            self.group_memo[key] = self._merge(
                (quotient, 1) for quotient in self._class_quotients(M, cls_idx))
        return self.group_memo[key]

    def _fills_word(self, M, class_word):
        rank = [sum(self.ranks[idx][v] for idx in class_word) for v in range(M.spec.datum.n)]
        return _fills(M, rank)

    def count(self, M, class_word):
        """Number of flags of submodules with subquotients in the classes
        class_word[0], ... , class_word[-1] from the bottom."""
        class_word = tuple(class_word)
        if not self._fills_word(M, class_word):
            return 0
        self._query = _Budget(self.budget)
        return self._count_flags(M, class_word, self._sub_groups)

    def exists(self, M, class_word):
        """Whether count(M, class_word) > 0, found by a depth-first walk that
        returns at the first complete flag; a "yes" spends only up to it."""
        class_word = tuple(class_word)
        if not self._fills_word(M, class_word):
            return False
        self._query = _Budget(self.budget)
        return self._exists(M, class_word)

    def _exists(self, M, word):
        if not word:
            return True
        key = (M.key(), word)
        if key in self.flag_memo:
            return self.flag_memo[key] > 0
        if key not in self.exists_memo:
            # a walk cut off by TooLargeError leaves before the store
            self.exists_memo[key] = any(self._exists(quotient, word[1:])
                                        for quotient in self._class_quotients(M, word[0]))
        return self.exists_memo[key]


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
    root-module subquotients, counted per prime and interpolated, from one
    series S_b per root b and one row per prefix of summands."""

    def __init__(self, table, pool=PRIME_POOL, budget=DEFAULT_BUDGET):
        # table: functors.RootModuleTable over the rationals (integral models)
        self.table = table
        self.pool = pool
        self.budget = budget
        self.spec = table.modules[0].spec
        self._per_prime = {}
        self._series_memo = {}  # root index b -> S_b
        self._rows = {(): {(0,) * len(table.betas): Fraction(1)}}  # summands -> row

    def _prime_setup(self, p):
        if p not in self._per_prime:
            mods_p = [hmod.reduce_mod_p(m, p) for m in self.table.modules]
            self._per_prime[p] = ClassFlagCounter(mods_p, self.budget)
        return self._per_prime[p]

    def class_word(self, n):
        """theta_n factor sequence: highest root index first (bottom factor)."""
        return tuple(idx for idx in range(len(n) - 1, -1, -1) for _ in range(n[idx]))

    def _root_chi(self, b, counts):
        """chi of the flags of the root module M(beta_b) with subquotients
        class_word(counts), counted per prime and interpolated."""
        word = self.class_word(counts)
        bound = 0
        rho = list(self.table.betas[b])
        for idx in word:
            beta = self.table.betas[idx]
            bound += _grlf_degree_bound(self.spec.datum, rho, beta)
            rho = [a - x for a, x in zip(rho, beta)]

        def count(p):
            counter = self._prime_setup(p)  # its classes[b] is M(beta_b) mod p
            return counter.count(counter.classes[b], word)

        return interpolate_counts(count, bound, pool=self.pool).value_at_one()

    def _series(self, b):
        """S_b: each Kostant partition k of beta_b with nonzero
        chi = chi(Fl_{class_word(k)}(M(beta_b))), mapped to chi / prod_c k_c!."""
        if b not in self._series_memo:
            betas = self.table.betas
            series = {}
            for k in _weight_splits(betas, betas[b], [max(betas[b])] * len(betas)):
                chi = self._root_chi(b, k)
                if chi:
                    series[k] = Fraction(chi, math.prod(math.factorial(x) for x in k))
            self._series_memo[b] = series
        return self._series_memo[b]

    def _row(self, summands):
        """The row of M(m): prod_s S_{b_s} over its summands (root indices,
        ascending), nonzero terms only; every prefix is kept, and shared."""
        if summands not in self._rows:
            product = {}
            for u, a in self._row(summands[:-1]).items():
                for k, c in self._series(summands[-1]).items():
                    v = tuple(x + y for x, y in zip(u, k))
                    product[v] = product.get(v, 0) + a * c
            self._rows[summands] = {v: c for v, c in product.items() if c}
        return self._rows[summands]

    def pairing(self, m, n):
        """delta_{M(m)}(theta_n) as an exact rational, counted on root modules
        only.  The torus scaling the summands s of M(m) = (+) M(beta_s) fixes a
        flag only when each step lies in one summand (every M(beta) is
        indecomposable), and class_word is sorted by class, so (README, "How
        counting works") it is the coefficient of x^n in prod_s S_{b_s}, the
        row of m.  A row holds only vectors of the weight of m."""
        summands = tuple(b for b, mult in enumerate(m) for _ in range(mult))
        return self._row(summands).get(tuple(n), Fraction(0))

    def filtration_exists(self, M, prescription, primes=None):
        """Per-prime existence of a flag with ordered subquotients
        M(beta_{k})^{mult} (bottom first).  prescription: [(class index, mult)].
        Each prime is one ClassFlagCounter.exists query: a first-flag search,
        not a count."""
        word = tuple(idx for idx, mult in prescription for _ in range(mult))
        out = {}
        for p in primes or self.pool[:3]:
            out[p] = self._prime_setup(p).exists(hmod.reduce_mod_p(M, p), word)
        return out


def g_vector(M):
    """g_M = -R * rk(M) for the form matrix R of the module's orientation."""
    rk = hmod.require_locally_free(M)
    fd = cartan.forms(M.spec.datum, M.spec.omega)
    return tuple(-sum(fd.R[i][j] * rk[j] for j in range(M.spec.datum.n))
                 for i in range(M.spec.datum.n))
