"""BGP reflection functors, the twist, Coxeter functors and the translate tau
on locally free modules, plus the constructive root-module table realizing the
bijection between indecomposable rigid locally free modules and positive roots.

Both reflections at k are read off one representation Y of the reflected
quiver that agrees with M away from k and holds X = (+)_j kH_j (x) M_j at k,
where the summand for an arrow between j and k has the K-basis
{eps_k^s alpha (x) m : s < a_kj}; eps_k acts on X as _x_eps says.  For F_k^+
at a sink, Y's new arrows out of k are the projections of X onto the top
eps-slots (the trace-pairing normalization of the adjunction) and
F_k^+ M = the submodule of Y that is M away from k and the kernel of the
in-map X -> M_k at k.  For F_k^- at a source, Y's new arrows into k include
M_j as the slot s = 0, and F_k^- M = Y / (image of the out-map M_k -> X at k).
Y itself need not satisfy the relations: hmod.submodule_from_subspaces and
hmod.quotient_by_subspaces only need the kernel or image to be eps_k-stable
(away from k the subspace is all of M_j or zero, so the arrows keep it), and
the reflected module is checked against the relations afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cartan, hmod, linalg
from .errors import (
    InternalMismatchError,
    NotDynkinError,
    NotNilpotentError,
    NotSinkOrSourceError,
)
from .fields import RATIONALS


def _x_layout(spec, k, neighbors_with_copies, dims):
    """Index layout of X = (+)_{j, copy, s < a_kj, m < dims[j]}; returns
    (total, offset function)."""
    offsets = {}
    total = 0
    for (j, cp) in neighbors_with_copies:
        a, _ = spec.rel_powers(k, j)
        offsets[(j, cp)] = total
        total += a * dims[j]
    return total, offsets


def _in_neighbors(spec, k):
    """(j, copy) pairs for arrows j -> k, i.e. pairs (k, j) in Omega."""
    return [(j, cp) for (i, j, cp) in spec.arrow_keys() if i == k]


def _out_neighbors(spec, k):
    """(j, copy) pairs for arrows k -> j, i.e. pairs (j, k) in Omega."""
    return [(i, cp) for (i, j, cp) in spec.arrow_keys() if j == k]


def _x_eps(spec, k, nbrs, offsets, total, M):
    """([eps_k^0, ..., eps_k^{max a_kj}] on M_k, the matrix of eps_k on X):
    on X eps_k shifts slot s to s + 1 and wraps the top slot to eps_j^b on m."""
    field = spec.field()
    eps_pows = [linalg.identity(field, M.dims[k])]
    for _ in range(max((spec.rel_powers(k, j)[0] for (j, _) in nbrs), default=0)):
        eps_pows.append(linalg.mat_mul(field, M.eps[k], eps_pows[-1]))
    eps_x = linalg.zeros(field, total, total)
    for (j, cp) in nbrs:
        a, b = spec.rel_powers(k, j)
        base = offsets[(j, cp)]
        dj = M.dims[j]
        for c in range(base, base + (a - 1) * dj):
            eps_x[c + dj][c] = field.one
        for r, row in enumerate(linalg.mat_pow(field, M.eps[j], b)):
            eps_x[base + r][base + (a - 1) * dj:base + a * dj] = row
    return eps_pows, eps_x


def _shifted_identity(field, rows, cols, r0, c0):
    """rows x cols matrix with ones at (r0 + t, c0 + t): a slot inclusion
    K^cols -> X (r0 = slot start, c0 = 0) or projection X -> K^rows (r0 = 0)."""
    return [[field.one if r - r0 == c - c0 else field.zero for c in range(cols)]
            for r in range(rows)]


def _reflected(M, new_spec, k, eps_x, arrows_at_k, build, subspaces):
    """build(Y, subspaces) for the Y that agrees with M away from k and holds
    X, eps_x and arrows_at_k at k; InternalMismatchError if the result
    violates the relations (a non-nilpotent eps among them)."""
    dims = list(M.dims)
    dims[k] = len(eps_x)
    eps = list(M.eps)
    eps[k] = eps_x
    arrows = {key: arrows_at_k[key] if key in arrows_at_k else M.arrows[key]
              for key in new_spec.arrow_keys()}
    try:
        out = build(type(M)(new_spec, dims, eps, arrows), subspaces)
    except NotNilpotentError as exc:
        raise InternalMismatchError("reflected module violates relations") from exc
    if hmod.check_relations(out):
        raise InternalMismatchError("reflected module violates relations")
    return out


def reflect_plus(k, M):
    """F_k^+ : rep H(C, D, Omega) -> rep H(C, D, s_k Omega) at a sink k."""
    spec = M.spec
    if k not in cartan.sinks(spec.datum, spec.omega):
        raise NotSinkOrSourceError(f"vertex {k} is not a sink")
    field = spec.field()
    nbrs = _in_neighbors(spec, k)
    total, offsets = _x_layout(spec, k, nbrs, M.dims)
    eps_pows, eps_x = _x_eps(spec, k, nbrs, offsets, total, M)
    # in-map X -> M_k: slot (j, cp, s) is eps_k^s A_{kj,cp}, side by side in X's order
    blocks = [linalg.mat_mul(field, eps_pows[s], M.arrows[(k, j, cp)])
              for (j, cp) in nbrs for s in range(spec.rel_powers(k, j)[0])]
    in_map = [[x for b in blocks for x in b[r]] for r in range(M.dims[k])]
    # reversed arrow k -> j: projection of X onto the top eps-slot of (j, cp)
    arrows_at_k = {}
    for (j, cp) in nbrs:
        a, _ = spec.rel_powers(k, j)
        top = offsets[(j, cp)] + (a - 1) * M.dims[j]
        arrows_at_k[(j, k, cp)] = _shifted_identity(field, M.dims[j], total, 0, top)
    subspaces = [linalg.nullspace(field, in_map, total) if v == k else
                 linalg.identity(field, M.dims[v]) for v in range(spec.datum.n)]
    return _reflected(M, spec.reflected(k), k, eps_x, arrows_at_k,
                      hmod.submodule_from_subspaces, subspaces)


def reflect_minus(k, M):
    """F_k^- : rep H(C, D, s_k Omega) -> rep H(C, D, Omega) at a source k."""
    spec = M.spec
    if k not in cartan.sources(spec.datum, spec.omega):
        raise NotSinkOrSourceError(f"vertex {k} is not a source")
    field = spec.field()
    new_spec = spec.reflected(k)  # k is a sink there
    nbrs = _out_neighbors(spec, k)
    # X built with the powers of the *target* orientation, where (k, j) are pairs
    total, offsets = _x_layout(new_spec, k, nbrs, M.dims)
    eps_pows, eps_x = _x_eps(new_spec, k, nbrs, offsets, total, M)
    # out-map M_k -> X: slot (j, cp, s) is A_{jk,cp} eps_k^{a-1-s}, stacked in X's order
    out_map = []
    for (j, cp) in nbrs:
        a, _ = new_spec.rel_powers(k, j)
        for s in range(a):
            out_map.extend(linalg.mat_mul(field, M.arrows[(j, k, cp)], eps_pows[a - 1 - s]))
    # new sink arrow j -> k: inclusion of M_j as the s = 0 slot of (j, cp)
    arrows_at_k = {(k, j, cp): _shifted_identity(field, total, M.dims[j], offsets[(j, cp)], 0)
                   for (j, cp) in nbrs}
    subspaces = [[[row[c] for row in out_map] for c in range(M.dims[k])] if v == k else []
                 for v in range(spec.datum.n)]
    return _reflected(M, new_spec, k, eps_x, arrows_at_k,
                      hmod.quotient_by_subspaces, subspaces)


def twist(M):
    """Negate every non-loop arrow matrix; an involution fixing rank vectors."""
    field = M.field()
    arrows = {k: linalg.mat_neg(field, m) for k, m in M.arrows.items()}
    return type(M)(M.spec, M.dims, M.eps, arrows)


def coxeter_plus(M):
    word = cartan.coxeter_word(M.spec.datum, M.spec.omega)
    out = M
    for k in word:
        out = reflect_plus(k, out)
    if out.spec.omega.pairs != M.spec.omega.pairs:
        raise InternalMismatchError("Coxeter cycle did not return the orientation")
    return out


def coxeter_minus(M):
    word = cartan.coxeter_word(M.spec.datum, M.spec.omega)
    out = M
    for k in reversed(word):
        out = reflect_minus(k, out)
    if out.spec.omega.pairs != M.spec.omega.pairs:
        raise InternalMismatchError("Coxeter cycle did not return the orientation")
    return out


def tau(M):
    """Auslander-Reiten translate on locally free modules: twist o C^+."""
    hmod.require_locally_free(M)
    return twist(coxeter_plus(M))


def tau_minus(M):
    hmod.require_locally_free(M)
    return coxeter_minus(twist(M))


# --- root module table ------------------------------------------------------


@dataclass
class RootModuleTable:
    word: tuple
    betas: list
    modules: list

    def module_of(self, beta):
        return self.modules[self.betas.index(tuple(beta))]


def root_module(spec, k) -> "hmod.HModule":
    """M(beta_k) = F_{i_1}^- ... F_{i_{k-1}}^- E_{i_k} along the admissible w0 word."""
    datum = spec.datum
    if not cartan.is_dynkin(datum):
        raise NotDynkinError("root modules exist for Dynkin type only")
    _, w0 = cartan.admissible_words(datum, spec.omega)
    if not 1 <= k <= len(w0):
        raise IndexError("k out of range")
    return _root_module(spec, w0, k)


def _root_module(spec, w0, k):
    """M(beta_k) along the given w0 word of spec's orientation."""
    datum = spec.datum
    omega_t = spec.omega
    for t in range(k - 1):
        omega_t = cartan.reflect_orientation(datum, omega_t, w0[t])
    m = hmod.generalized_simple(
        hmod.HAlgebraSpec(datum, omega_t, spec.fieldspec), w0[k - 1])
    for t in range(k - 2, -1, -1):
        m = reflect_minus(w0[t], m)
    return m


def all_root_modules(spec) -> RootModuleTable:
    """Every M(beta_k), k = 1 .. |Delta^+|, from one w0 word, each checked
    locally free of rank vector beta_k."""
    datum = spec.datum
    _, w0 = cartan.admissible_words(datum, spec.omega)
    betas, _ = cartan.beta_gamma_sequences(datum, w0)
    modules = []
    for k in range(1, len(w0) + 1):
        m = _root_module(spec, w0, k)
        if hmod.is_locally_free(m) != betas[k - 1]:
            raise InternalMismatchError(f"M(beta_{k}) has wrong rank vector")
        modules.append(m)
    return RootModuleTable(w0, [tuple(b) for b in betas], modules)


def homext_table(table: RootModuleTable):
    """Measured (dim Hom, dim Ext^1) for every ordered pair of root modules,
    checked against the Euler-form prediction: (⟨b_i,b_j⟩, 0) for i <= j and
    (0, -⟨b_i,b_j⟩) for i > j."""
    mods = table.modules
    spec = mods[0].spec
    r = len(mods)
    out = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            h, e, _ = hmod.euler_pairing_check(mods[i], mods[j])
            pairing = cartan.euler_form(spec.datum, spec.omega,
                                        table.betas[i], table.betas[j])
            expected = (pairing, 0) if i <= j else (0, -pairing)
            if (h, e) != expected:
                raise InternalMismatchError(
                    f"Hom/Ext table mismatch at ({i + 1},{j + 1}): got {(h, e)}, "
                    f"Euler form predicts {expected}")
            out[i][j] = (h, e)
    return out


def is_rigid(M) -> bool:
    return hmod.ext1_dim(M, M) == 0


def is_indecomposable(M) -> bool:
    """End(M)/rad has dimension 1 (trace-form radical; module must be over Q)."""
    if M.total_dim() == 0:
        return False
    if M.spec.fieldspec != RATIONALS:
        raise ValueError("indecomposability test runs over the rationals")
    basis = hmod.hom_basis(M, M)
    dim = len(basis)
    # structure constants of End(M) in the hom basis via left regular action
    field = M.field()
    flat = []
    for f in basis:
        flat.append([x for v in range(M.spec.datum.n) for row in f[v] for x in row])
    coord_mat = [[flat[b][t] for b in range(dim)] for t in range(len(flat[0]))]
    left = []
    for f in basis:
        cols = []
        for g in basis:
            prod = tuple(linalg.mat_mul(field, f[v], g[v]) for v in range(M.spec.datum.n))
            vec = [x for v in range(M.spec.datum.n) for row in prod[v] for x in row]
            sol = linalg.solve(field, coord_mat, vec)
            if sol is None:
                raise InternalMismatchError("End(M) not closed under composition")
            cols.append(sol)
        left.append([[cols[c][r] for c in range(dim)] for r in range(dim)])
    # rad = kernel of the trace form tr(L_x L_y) (char 0)
    gram = [[sum(linalg.mat_mul(field, left[i], left[j])[t][t] for t in range(dim))
             for j in range(dim)] for i in range(dim)]
    rad_dim = dim - linalg.rank(field, gram)
    return dim - rad_dim == 1
