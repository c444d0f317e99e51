"""BGP reflection functors, the twist, Coxeter functors and the translate tau
on locally free modules, plus the constructive root-module table realizing the
bijection between indecomposable rigid locally free modules and positive roots.

Concretely, the reflection at a sink k replaces the component at k by the
kernel of the assembled in-map living on X = (+)_j  kH_j (x) M_j, where the
summand for an arrow j -> k has the K-basis {eps_k^s alpha (x) m : s < a_kj}.
The reversed arrow matrices are the top eps-slot components of the kernel
inclusion (the trace-pairing normalization of the adjunction); the dual
construction at a source uses the matching expansion of the out-map.
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
        for s in range(a - 1):
            for c in range(dj):
                eps_x[base + (s + 1) * dj + c][base + s * dj + c] = field.one
        epsb = linalg.mat_pow(field, M.eps[j], b)
        for r in range(dj):
            for c in range(dj):
                eps_x[base + r][base + (a - 1) * dj + c] = epsb[r][c]
    return eps_pows, eps_x


def _checked_reflection(out):
    """The reflected module in canonical eps form, or InternalMismatchError
    if it violates the relations (a non-nilpotent eps among them)."""
    try:
        out = hmod.normalize_eps(out)
    except NotNilpotentError as exc:
        raise InternalMismatchError("reflected module violates relations") from exc
    if hmod.check_relations(out):
        raise InternalMismatchError("reflected module violates relations")
    return out


def reflect_plus(k, M):
    """F_k^+ : rep H(C, D, Omega) -> rep H(C, D, s_k Omega) at a sink k."""
    spec = M.spec
    datum = spec.datum
    if k not in cartan.sinks(datum, spec.omega):
        raise NotSinkOrSourceError(f"vertex {k} is not a sink")
    field = spec.field()
    new_spec = spec.reflected(k)
    nbrs = _in_neighbors(spec, k)
    total, offsets = _x_layout(spec, k, nbrs, M.dims)
    eps_pows, eps_x = _x_eps(spec, k, nbrs, offsets, total, M)
    # in-map X -> M_k: slot (j, cp, s, m) maps to eps_k^s A_{kj,cp} e_m
    in_map = linalg.zeros(field, M.dims[k], total)
    for (j, cp) in nbrs:
        a, _ = spec.rel_powers(k, j)
        base = offsets[(j, cp)]
        block = M.arrows[(k, j, cp)]
        for s in range(a):
            mat = linalg.mat_mul(field, eps_pows[s], block)
            for r in range(M.dims[k]):
                for c in range(M.dims[j]):
                    in_map[r][base + s * M.dims[j] + c] = mat[r][c]
    kernel = linalg.nullspace(field, in_map, total) if M.dims[k] else \
        [[field.one if i == j else field.zero for j in range(total)] for i in range(total)]
    new_dim_k = len(kernel)
    kernel_mat = [[kernel[t][c] for t in range(new_dim_k)] for c in range(total)]
    eps_k_new = []
    for t in range(new_dim_k):
        img = linalg.mat_vec(field, eps_x, kernel[t])
        sol = linalg.solve(field, kernel_mat, img)
        if sol is None:
            raise InternalMismatchError("kernel not eps-stable")
        eps_k_new.append(sol)
    eps_k_new = [[eps_k_new[c][r] for c in range(new_dim_k)] for r in range(new_dim_k)]
    dims = list(M.dims)
    dims[k] = new_dim_k
    eps = [linalg.copy_mat(M.eps[v]) for v in range(datum.n)]
    eps[k] = eps_k_new
    arrows = {}
    for key in new_spec.arrow_keys():
        (i, j, cp) = key
        if j == k:
            # reversed arrow k -> i: top eps-slot component of the kernel inclusion
            a, _ = spec.rel_powers(k, i)
            base = offsets[(i, cp)]
            di = M.dims[i]
            arrows[key] = [[kernel[t][base + (a - 1) * di + r] for t in range(new_dim_k)]
                           for r in range(di)]
        else:
            arrows[key] = linalg.copy_mat(M.arrows[key])
    return _checked_reflection(type(M)(new_spec, dims, eps, arrows))


def reflect_minus(k, M):
    """F_k^- : rep H(C, D, s_k Omega) -> rep H(C, D, Omega) at a source k."""
    spec = M.spec
    datum = spec.datum
    if k not in cartan.sources(datum, spec.omega):
        raise NotSinkOrSourceError(f"vertex {k} is not a source")
    field = spec.field()
    new_spec = spec.reflected(k)  # k is a sink there
    nbrs = _out_neighbors(spec, k)
    # X built with the powers of the *target* orientation, where (k, j) are pairs
    total, offsets = _x_layout(new_spec, k, nbrs, M.dims)
    eps_pows, eps_x = _x_eps(new_spec, k, nbrs, offsets, total, M)
    # out-map M_k -> X: component at slot (j, cp, s, m) of v(w) is A_jk(eps_k^{a-1-s} w)
    out_map = linalg.zeros(field, total, M.dims[k])
    for (j, cp) in nbrs:
        a, _ = new_spec.rel_powers(k, j)
        base = offsets[(j, cp)]
        dj = M.dims[j]
        A = M.arrows[(j, k, cp)]
        for s in range(a):
            mat = linalg.mat_mul(field, A, eps_pows[a - 1 - s])
            for r in range(dj):
                for c in range(M.dims[k]):
                    out_map[base + s * dj + r][c] = mat[r][c]
    image_cols = [[out_map[r][c] for r in range(total)] for c in range(M.dims[k])]
    image = linalg.row_space(field, image_cols)
    z = field.zero
    pivots = [next(c for c, x in enumerate(row) if x != z) for row in image]
    free = [c for c in range(total) if c not in pivots]

    def project(vec):
        w = vec[:]
        for row, pc in zip(image, pivots):
            if w[pc] != z:
                f = w[pc]
                w = [field.sub(x, field.mul(f, y)) for x, y in zip(w, row)]
        return [w[c] for c in free]

    new_dim_k = len(free)

    eps_k_new = [[z] * new_dim_k for _ in range(new_dim_k)]
    for t in range(new_dim_k):
        img = project([row[free[t]] for row in eps_x])
        for r in range(new_dim_k):
            eps_k_new[r][t] = img[r]
    dims = list(M.dims)
    dims[k] = new_dim_k
    eps = [linalg.copy_mat(M.eps[v]) for v in range(datum.n)]
    eps[k] = eps_k_new
    arrows = {}
    for key in new_spec.arrow_keys():
        (i, j, cp) = key
        if i == k:
            # new sink arrow j -> k: class of the s = 0 slot of X_{kj}
            base = offsets[(j, cp)]
            dj = M.dims[j]
            mat = linalg.zeros(field, new_dim_k, dj)
            for c in range(dj):
                vec = [z] * total
                vec[base + c] = field.one
                img = project(vec)
                for r in range(new_dim_k):
                    mat[r][c] = img[r]
            arrows[key] = mat
        else:
            arrows[key] = linalg.copy_mat(M.arrows[key])
    return _checked_reflection(type(M)(new_spec, dims, eps, arrows))


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
            h = hmod.hom_dim(mods[i], mods[j])
            e = hmod.ext1_dim(mods[i], mods[j])
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
    basis = hmod.hom_basis(M, M).basis
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
