"""Modules over the generalized preprojective algebra Pi(C, D).

A Pi-module is double-quiver data: for every pair (i, j) of the orientation
there is a forward matrix (source j, target i) and a reversed one, each
satisfying its own eps-commutation relation, plus the mesh relation at every
vertex k:

    sum_j sgn(k, j) sum_{s < a_kj} eps_k^s A_the-in-arrow A_the-out-arrow eps_k^{a_kj-1-s} = 0,

with sgn(k, j) = +1 when (k, j) lies in the orientation and -1 otherwise
(the sign split of the potential).  The orientation enters only through
these signs; E-filtered and crystal predicates, fac/sub partitions and the
homological routines below do not depend on it.

A PiModule's relation table (_pi_relation_table) is that of H on the double
quiver plus the meshes.  hmod evaluates and linearizes whichever table a
module's type carries, so check_pi_relations, the random extensions of
random_E_filtered and ext1_pi run the same code as their H counterparts.
Likewise is_E_filtered takes its E-letter submodules and their quotients
from grassmann, the ones a flag count uses, and so searches exhaustively
over a prime field.
"""

from __future__ import annotations

import functools
import random

from . import cartan, grassmann, hmod, linalg
from .errors import (
    InternalMismatchError,
    NotLocallyFreeError,
    SpecMismatchError,
    UndefinedValueError,
)
from .fields import PrimeField


class PiModule(hmod.HModule):
    """Same storage as HModule; the arrow dict carries both directions."""

    def _relation_table(self):
        return _pi_relation_table(self.spec)


def double_arrow_keys(spec):
    keys = []
    for (i, j, k) in spec.arrow_keys():
        keys.append((i, j, k))
        keys.append((j, i, k))
    return sorted(keys)


def pi_zero_module(spec) -> PiModule:
    return from_h_module(hmod.zero_module(spec))


def pi_simple(spec, i) -> PiModule:
    return from_h_module(hmod.generalized_simple(spec, i))


def from_h_module(M: hmod.HModule) -> PiModule:
    """View an H-module as a Pi-module with vanishing reversed arrows."""
    field = M.field()
    arrows = {k: linalg.copy_mat(m) for k, m in M.arrows.items()}
    for (i, j, k) in M.spec.arrow_keys():
        arrows[(j, i, k)] = linalg.zeros(field, M.dims[j], M.dims[i])
    return PiModule(M.spec, M.dims, M.eps, arrows)


def mesh_terms(spec, k):
    """(sign, in-key, out-key, s, a-1-s) tuples listing the mesh sum at k."""
    out = []
    datum = spec.datum
    for j in datum.neighbors(k):
        sgn = 1 if (k, j) in spec.omega.pairs else -1
        a = spec.rel_powers(k, j)[0]
        for cp in range(datum.g[k][j]):
            for s in range(a):
                out.append((sgn, (k, j, cp), (j, k, cp), s, a - 1 - s))
    return out


@functools.lru_cache
def _pi_relation_table(spec):
    """The relations of Pi: those of H on the double quiver (both directed
    commutations), plus the mesh at every vertex."""
    meshes = [(f"mesh relation fails at vertex {k + 1}", k, k,
               tuple((sgn, (("eps", k),) * s + (("arrow", key_in), ("arrow", key_out))
                      + (("eps", k),) * t)
                     for sgn, key_in, key_out, s, t in mesh_terms(spec, k)))
              for k in range(spec.datum.n)]
    return tuple(hmod._relation_words(spec, double_arrow_keys(spec)) + meshes)


def check_pi_relations(M: PiModule) -> list:
    """Violated relations of Pi: eps nilpotence, both directed commutations,
    and the mesh at every vertex (hmod.check_relations on a PiModule)."""
    return hmod.check_relations(M)


# --- fac / sub --------------------------------------------------------------


def _stable_type(field, powers, space):
    """Jordan type of eps on the eps-stable span of `space`, from the ranks of
    its images under powers = [eps^0, ..., eps^c]."""
    ranks = [len(space)]
    for power in powers[1:]:
        imgs = [linalg.mat_vec(field, power, b) for b in space]
        ranks.append(linalg.rank(field, imgs) if imgs else 0)
    return hmod._partition_from_ranks(ranks)


def in_image_space(M, k):
    """Basis of Im(M_{k,in}) = H_k-span of all incoming arrow columns."""
    field = M.field()
    c = M.spec.datum.D[k]
    vectors = []
    powers = grassmann._eps_powers(field, M.eps[k], c)
    for key, A in M.arrows.items():
        (tgt, src, _) = key
        if tgt != k or M.dims[src] == 0 or M.dims[k] == 0:
            continue
        for col in range(M.dims[src]):
            base = [A[r][col] for r in range(M.dims[k])]
            for t in range(c):
                vectors.append(linalg.mat_vec(field, powers[t], base))
    return linalg.row_space(field, vectors)


def sub_space(M, k):
    """Basis of Ker(M_{k,out}), the largest H_k-stable joint kernel of the
    arrows leaving k."""
    return grassmann.allowed_bottom_space(M, k)


def fac_sub(M, k):
    """(fac_k, sub_k) as Jordan partitions of eps_k on cokernel and kernel."""
    field = M.field()
    d = M.dims[k]
    if d == 0:
        return (), ()
    c = M.spec.datum.D[k]
    w = in_image_space(M, k)
    w_rank = len(w)
    powers = grassmann._eps_powers(field, M.eps[k], c + 1)
    fac_ranks = [d - w_rank]
    for t in range(1, c + 1):
        cols = [[powers[t][r][s] for r in range(d)] for s in range(d)]
        fac_ranks.append(linalg.rank(field, list(w) + cols) - w_rank)
    return hmod._partition_from_ranks(fac_ranks), _stable_type(field, powers, sub_space(M, k))


# --- crystal modules --------------------------------------------------------


def kernel_of_fac(M, j) -> PiModule:
    """K_j(M): the submodule with Im(M_{j,in}) at j and everything elsewhere."""
    field = M.field()
    n = M.spec.datum.n
    subspaces = []
    for v in range(n):
        if v == j:
            subspaces.append(in_image_space(M, j))
        else:
            subspaces.append(linalg.identity(field, M.dims[v]))
    return hmod.submodule_from_subspaces(M, subspaces)


def cokernel_of_sub(M, j) -> PiModule:
    """C_j(M) = M / sub_j(M)."""
    n = M.spec.datum.n
    subspaces = [sub_space(M, j) if v == j else [] for v in range(n)]
    return hmod.quotient_by_subspaces(M, subspaces)


def _is_free_partition(partition, c):
    return all(part == c for part in partition)


def is_crystal_module(M: PiModule, _memo=None) -> bool:
    """fac_j and sub_j free for all j, recursively on K_j and C_j.

    Children equal to M itself (fac_j = 0 or sub_j = 0) are skipped; the
    recursion descends only along strictly smaller modules, so it terminates.
    """
    if _memo is None:
        _memo = {}
    key = M.key()
    if key in _memo:
        return _memo[key]
    _memo[key] = True  # tentatively, for self-referential skips
    if M.total_dim() == 0:
        return True
    datum = M.spec.datum
    parts = [fac_sub(M, j) for j in range(datum.n)]
    if not all(_is_free_partition(part, c) for c, pair in zip(datum.D, parts) for part in pair):
        _memo[key] = False
        return False
    for j, (fac, sub) in enumerate(parts):
        if sum(fac):
            child = kernel_of_fac(M, j)
            if child.total_dim() < M.total_dim() and not is_crystal_module(child, _memo):
                _memo[key] = False
                return False
        if sum(sub):
            child = cokernel_of_sub(M, j)
            if child.total_dim() < M.total_dim() and not is_crystal_module(child, _memo):
                _memo[key] = False
                return False
    _memo[key] = True
    return True


def phi(M: PiModule, i) -> int:
    """Multiplicity of E_i in sub_i(M); defined when sub_i is free."""
    _, sub = fac_sub(M, i)
    if not _is_free_partition(sub, M.spec.datum.D[i]):
        raise UndefinedValueError(f"sub_{i + 1} is not a free H-module")
    return len(sub)


# --- E-filtered search ------------------------------------------------------


def is_E_filtered(M: PiModule, budget=100000):
    """(flag, witness): search for a flag with generalized-simple subquotients,
    witness listing their vertices from the bottom.

    An E-filtered module is locally free, so a module that is not returns
    (False, None) at once; one whose eps is not in canonical chain form is
    normalized once (hmod.chain_form), and every quotient the search takes
    stays locally free and normalized.  The search runs over prime fields
    only.  At each vertex it walks the E-letter generators in the order of
    the one enumerator (grassmann._e_letter_generators), recurses on each
    quotient (grassmann._e_letter_quotient) and returns at the first complete
    flag, so it is exhaustive and a False is certified.  Each candidate
    tried spends one unit of a grassmann._Budget of `budget` units, whose
    exhaustion raises TooLargeError: the answer is then unknown.
    """
    M = hmod.chain_form(M)
    if M is None:
        return False, None
    if not isinstance(M.field(), PrimeField):
        raise ValueError("the E-filtration search runs over prime fields")
    query = grassmann._Budget(budget)

    def search(current):
        if current.total_dim() == 0:
            return []
        for j in range(current.spec.datum.n):
            if current.dims[j] == 0:
                continue
            for u in grassmann._e_letter_generators(current, j):
                query.spend(1, f"the E-filtration candidates at vertex {j} "
                               f"of a module of dims {current.dims}")
                rest = search(grassmann._e_letter_quotient(current, j, u))
                if rest is not None:
                    return [j] + rest
        return None

    witness = search(M)
    return (witness is not None), witness


# --- random E-filtered generation -------------------------------------------


def _extension_below(A, B, rng):
    """Random extension 0 -> A -> N -> B -> 0 of Pi-modules (A at the bottom):
    a random element of the kernel of the linearized relations, over the eps
    and arrow couplings."""
    unknowns = [("eps", v) for v in range(A.spec.datum.n)] + [("arrow", key) for key in A.arrows]
    module = hmod._block_module(A, B, hmod._random_couplings(A, B, unknowns, rng, 3))
    if check_pi_relations(module):
        raise InternalMismatchError("extension violates relations")
    return module


def random_E_filtered(spec, type_sequence, seed) -> PiModule:
    """Iterated random extensions below generalized simples; the output is
    E-filtered by construction with witness = type_sequence (bottom first)."""
    rng = random.Random(seed)
    seq = list(type_sequence)
    if not seq:
        return pi_zero_module(spec)
    current = pi_simple(spec, seq[-1])
    for i in reversed(seq[:-1]):
        current = _extension_below(pi_simple(spec, i), current, rng)
    current = hmod.normalize_eps(current)
    if check_pi_relations(current):
        raise InternalMismatchError("random E-filtered module violates relations")
    return current


# --- Hom and Ext over Pi ----------------------------------------------------


def ext1_pi(M: PiModule, N: PiModule) -> int:
    """dim Ext^1_Pi(M, N) from the bimodule-resolution presentation.

    Hom(-, N) applied to Pi(x)M -> Pi(x)B(x)M -> Pi(x)M -> M -> 0 computes
    Ext^1 as ker(d2*)/im(d1*) (hmod._ext1_and_hom).  M.arrows holds both
    arrow directions, so the Hom system is d1* and its kernel Hom_Pi(M, N);
    ker(d2*) is the space of arrow couplings G of [[N, G], [0, M]] that
    satisfy the linearized commutations (which cut out Y1) and meshes.  For
    finite-dimensional locally free modules the result is cross-checked
    against the symmetrized Hom formula.
    """
    if M.spec != N.spec:
        raise SpecMismatchError("ext needs a common algebra spec")
    rk_m = hmod.is_locally_free(M)
    if rk_m is None:
        raise NotLocallyFreeError("ext1_pi requires locally free first argument")
    ext, hom_mn = hmod._ext1_and_hom(M, N)
    rk_n = hmod.is_locally_free(N)
    if rk_n is not None:
        expected = hom_mn + hmod.hom_dim(N, M) - cartan.symmetric_form(M.spec.datum, rk_m, rk_n)
        if ext != expected:
            raise InternalMismatchError(
                f"presentation Ext={ext} disagrees with symmetrized-Hom formula={expected}")
    return ext
