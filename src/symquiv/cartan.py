"""Symmetrizable Cartan matrices: weighted graphs, orientations, Weyl group
combinatorics, bilinear forms and Coxeter matrices.

Conventions.  Vertices are 0-based internally (the JSON interface is
1-based).  An orientation is a set of ordered pairs (i, j); the pair (i, j)
puts g_ij arrows j -> i in the weighted quiver, so a *sink* is a vertex all
of whose incident pairs have it in first position.  Root vectors are integer
tuples in the simple-root basis, s_i(a) = a - (C a)_i * alpha_i.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    InternalMismatchError,
    NonPositiveSymmetrizerError,
    NotCartanError,
    NotDynkinError,
    NotOrientationError,
    NotReducedError,
    NotSinkOrSourceError,
    NotSymmetrizerError,
)

RootVector = tuple  # integer tuple in the simple-root basis


@dataclass(frozen=True)
class CartanDatum:
    """A symmetrizable Cartan matrix C with symmetrizer D = diag(c_1..c_n).

    The gcd table g (g_ij = gcd(c_ij, c_ji), gcd(0,0) = 0) gives the edge
    multiplicities of the weighted graph.
    """

    C: tuple
    D: tuple
    g: tuple

    @property
    def n(self) -> int:
        return len(self.D)

    def edges(self):
        """Unordered edges {i, j} of the weighted graph, as sorted pairs."""
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.C[i][j] != 0]

    def neighbors(self, i):
        return [j for j in range(self.n) if j != i and self.C[i][j] != 0]


def validate_datum(C: Sequence[Sequence[int]], D: Sequence[int]) -> CartanDatum:
    n = len(C)
    if any(len(row) != n for row in C) or len(D) != n:
        raise NotCartanError("C must be square and D of matching length")
    for i in range(n):
        if C[i][i] != 2:
            raise NotCartanError(f"diagonal entry c_{i}{i} = {C[i][i]} != 2")
        for j in range(n):
            if i != j and C[i][j] > 0:
                raise NotCartanError(f"positive off-diagonal entry at ({i},{j})")
    for ci in D:
        if not isinstance(ci, int) or ci <= 0:
            raise NonPositiveSymmetrizerError(f"symmetrizer entry {ci} not a positive integer")
    for i in range(n):
        for j in range(n):
            if D[i] * C[i][j] != D[j] * C[j][i]:
                raise NotSymmetrizerError(f"D*C not symmetric at ({i},{j})")
    g = tuple(tuple(math.gcd(C[i][j], C[j][i]) if i != j else 0 for j in range(n))
              for i in range(n))
    # consistency of the weighted-graph description: c_ij = -(lcm(c_i,c_j)/c_i) g_ij
    for i in range(n):
        for j in range(n):
            if i != j and C[i][j] != 0:
                lcm = D[i] * D[j] // math.gcd(D[i], D[j])
                if C[i][j] != -(lcm // D[i]) * g[i][j]:
                    raise NotSymmetrizerError(
                        f"entry ({i},{j}) incompatible with symmetrizer weights")
    return CartanDatum(tuple(tuple(int(x) for x in row) for row in C), tuple(int(d) for d in D), g)


@dataclass(frozen=True)
class Orientation:
    pairs: frozenset

    def __iter__(self):
        return iter(sorted(self.pairs))


def validate_orientation(datum: CartanDatum, pairs: Iterable) -> Orientation:
    ps = frozenset((int(i), int(j)) for i, j in pairs)
    n = datum.n
    for i, j in ps:
        if not (0 <= i < n and 0 <= j < n) or datum.C[i][j] >= 0:
            raise NotOrientationError(f"pair ({i},{j}) is not an edge of the graph")
    for i in range(n):
        for j in range(i + 1, n):
            if datum.C[i][j] < 0:
                if len(ps & {(i, j), (j, i)}) != 1:
                    raise NotOrientationError(f"edge {{{i},{j}}} needs exactly one direction")
    # acyclicity of the quiver with arrows j -> i for (i,j) in the set
    succ = {v: [] for v in range(n)}
    for i, j in ps:
        succ[j].append(i)
    state = {}

    def dfs(v):
        state[v] = 1
        for w in succ[v]:
            if state.get(w) == 1:
                raise NotOrientationError("orientation has an oriented cycle")
            if w not in state:
                dfs(w)
        state[v] = 2

    for v in range(n):
        if v not in state:
            dfs(v)
    return Orientation(ps)


def arrows_of(datum: CartanDatum, omega: Orientation):
    """All arrow labels (i, j, k): the k-th of g_ij arrows j -> i, (i,j) in omega."""
    out = []
    for i, j in sorted(omega.pairs):
        for k in range(datum.g[i][j]):
            out.append((i, j, k))
    return out


def sinks(datum: CartanDatum, omega: Orientation):
    """Vertices with no outgoing arrow: every incident pair is (v, j)."""
    out = []
    for v in range(datum.n):
        if all((v, j) in omega.pairs for j in datum.neighbors(v)):
            out.append(v)
    return out


def sources(datum: CartanDatum, omega: Orientation):
    out = []
    for v in range(datum.n):
        if all((j, v) in omega.pairs for j in datum.neighbors(v)):
            out.append(v)
    return out


def reflect_orientation(datum: CartanDatum, omega: Orientation, i: int) -> Orientation:
    if i not in sinks(datum, omega) and i not in sources(datum, omega):
        raise NotSinkOrSourceError(f"vertex {i} is neither a sink nor a source")
    flipped = set()
    for a, b in omega.pairs:
        flipped.add((b, a) if i in (a, b) else (a, b))
    return Orientation(frozenset(flipped))


# --- Weyl group action -----------------------------------------------------


def reflect_root(datum: CartanDatum, i: int, alpha: Sequence[int]) -> RootVector:
    """s_i(alpha) = alpha - (C alpha)_i alpha_i."""
    if not 0 <= i < datum.n:
        raise IndexError(f"vertex {i} out of range")
    coeff = sum(datum.C[i][j] * alpha[j] for j in range(datum.n))
    out = list(alpha)
    out[i] -= coeff
    return tuple(out)


def reflection_matrix(datum: CartanDatum, i: int):
    n = datum.n
    m = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    for b in range(n):
        m[i][b] -= datum.C[i][b]
    return m


def apply_word(datum: CartanDatum, word: Sequence[int], alpha) -> RootVector:
    """s_{word[0]} s_{word[1]} ... s_{word[-1]} (alpha): rightmost acts first."""
    v = tuple(alpha)
    for i in reversed(word):
        v = reflect_root(datum, i, v)
    return v


def _height(alpha) -> int:
    return sum(abs(a) for a in alpha)


def default_height_bound(datum: CartanDatum) -> int:
    maxent = max(max(abs(x) for x in row) for row in datum.C)
    return 2 * datum.n * maxent * 10


def weyl_orbit(datum: CartanDatum, alpha, height_bound: int | None = None):
    """Closure of {alpha} under all simple reflections, truncated by height.

    Returns (frozenset of roots, truncated flag).  The flag reports whether
    any reflection left the height window, so a True flag means the result
    may be a proper subset of the orbit.
    """
    if height_bound is None:
        height_bound = default_height_bound(datum)
    start = tuple(alpha)
    if _height(start) > height_bound:
        raise ValueError("height bound below the height of the seed vector")
    seen = {start}
    frontier = [start]
    truncated = False
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(datum.n):
                w = reflect_root(datum, i, v)
                if w in seen:
                    continue
                if _height(w) > height_bound:
                    truncated = True
                    continue
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return frozenset(seen), truncated


def symmetric_form(datum: CartanDatum, a, b) -> int:
    """(a, b)_{C,D} = a^T (D C) b."""
    n = datum.n
    return sum(datum.D[i] * datum.C[i][j] * a[i] * b[j] for i in range(n) for j in range(n))


def gram_symmetric(datum: CartanDatum):
    n = datum.n
    return [[datum.D[i] * datum.C[i][j] for j in range(n)] for i in range(n)]


def is_dynkin(datum: CartanDatum) -> bool:
    """Positive definiteness of D*C via leading principal minors, exactly."""
    gram = gram_symmetric(datum)
    for k in range(1, datum.n + 1):
        minor = [row[:k] for row in gram[:k]]
        if linalg.int_det(minor) <= 0:
            return False
    return True


# --- admissible words, root sequences, positive roots ----------------------


def coxeter_word(datum: CartanDatum, omega: Orientation):
    """A +-admissible ordering of I: repeatedly peel sinks of the quiver."""
    remaining = set(range(datum.n))
    # arrows j -> i for (i, j); outdeg counts arrows leaving v
    outdeg = {v: 0 for v in remaining}
    succ = {v: set() for v in remaining}
    for i, j in omega.pairs:
        outdeg[j] += 1
        succ[i].add(j)  # removing sink i frees its in-neighbors' arrows
    word = []
    ready = sorted(v for v in remaining if outdeg[v] == 0)
    while ready:
        v = ready.pop(0)
        word.append(v)
        remaining.discard(v)
        for w in succ[v]:
            outdeg[w] -= 1
            if outdeg[w] == 0 and w in remaining:
                ready.append(w)
        ready.sort()
    if len(word) != datum.n:
        raise NotOrientationError("orientation is not acyclic")
    return tuple(word)


def beta_gamma_sequences(datum: CartanDatum, word: Sequence[int]):
    """beta_k = s_{i_1}..s_{i_{k-1}}(alpha_{i_k}) and the dual gamma list.

    Raises NotReducedError as soon as a beta leaves the positive cone.
    """
    l = len(word)
    betas = []
    for k in range(l):
        beta = apply_word(datum, word[:k], _alpha(datum.n, word[k]))
        if any(b < 0 for b in beta):
            raise NotReducedError(f"beta_{k + 1} is negative; word not reduced")
        betas.append(beta)
    gammas = []
    for k in range(l):
        gammas.append(apply_word(datum, list(reversed(word[k + 1:])), _alpha(datum.n, word[k])))
    w_all = lambda v: apply_word(datum, list(reversed(word)), v)  # noqa: E731
    for bk, gk in zip(betas, gammas):
        if w_all(bk) != tuple(-x for x in gk):
            raise InternalMismatchError("w(beta_k) != -gamma_k")
    return betas, gammas


def _alpha(n, i):
    v = [0] * n
    v[i] = 1
    return tuple(v)


def admissible_words(datum: CartanDatum, omega: Orientation):
    """(coxeter word, w0 word), both +-admissible.

    The w0 word is grown greedily: at each step take the smallest sink of the
    current orientation whose appended beta stays positive, then reflect the
    orientation at it.  For Dynkin data this always reaches length |Delta^+|.
    """
    cox = coxeter_word(datum, omega)
    if not is_dynkin(datum):
        raise NotDynkinError("w0 word requires Dynkin type")
    n = datum.n
    npos = len(positive_roots_by_orbit(datum))
    word = []
    betas = []
    current = omega
    while len(word) < npos:
        for letter in sinks(datum, current):
            beta = apply_word(datum, word, _alpha(n, letter))
            if all(b >= 0 for b in beta):
                word.append(letter)
                betas.append(beta)
                current = reflect_orientation(datum, current, letter)
                break
        else:
            raise InternalMismatchError("no sink extends the reduced word")
    if len(set(betas)) != npos:
        raise InternalMismatchError("w0 beta-sequence has repetitions")
    return cox, tuple(word)


def positive_roots_by_orbit(datum: CartanDatum):
    """Positive real roots via breadth-first orbit closure (the brute oracle)."""
    if not is_dynkin(datum):
        raise NotDynkinError("finite positive-root list requires Dynkin type")
    roots = set()
    for i in range(datum.n):
        orbit, truncated = weyl_orbit(datum, _alpha(datum.n, i))
        if truncated:
            raise InternalMismatchError("orbit truncated for Dynkin datum")
        roots |= orbit
    pos = sorted(v for v in roots if all(a >= 0 for a in v))
    return pos


def positive_roots(datum: CartanDatum):
    """Duplicate-free positive roots; orbit closure cross-checked against the
    beta-sequence of an admissible w0 word."""
    pos = positive_roots_by_orbit(datum)
    # any orientation works for the cross-check; pick one along vertex order
    omega = _some_orientation(datum)
    _, w0 = admissible_words(datum, omega)
    betas, _ = beta_gamma_sequences(datum, w0)
    if sorted(betas) != pos:
        raise InternalMismatchError("orbit closure and beta-sequence disagree")
    return pos


def _some_orientation(datum: CartanDatum) -> Orientation:
    pairs = set()
    for i, j in datum.edges():
        pairs.add((i, j))  # arrows j -> i with j > i: increasing order is acyclic
    return validate_orientation(datum, pairs)


def all_orientations(datum: CartanDatum):
    """Every valid orientation of the datum (exponential in edge count)."""
    edges = datum.edges()
    out = []
    for choice in itertools.product((0, 1), repeat=len(edges)):
        pairs = set()
        for (i, j), c in zip(edges, choice):
            pairs.add((i, j) if c == 0 else (j, i))
        try:
            out.append(validate_orientation(datum, pairs))
        except NotOrientationError:
            continue
    return out


# --- bilinear forms and the Coxeter matrix ---------------------------------


@dataclass(frozen=True)
class FormData:
    gram_sym: tuple
    gram_euler: tuple
    R: tuple
    coxeter_mat: tuple


def gram_euler(datum: CartanDatum, omega: Orientation):
    """Matrix of the non-symmetric form: <a_i, a_j> = c_i (i=j), c_i c_ij ((j,i) in omega), else 0."""
    n = datum.n
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = datum.D[i]
        for j in range(n):
            if i != j and (j, i) in omega.pairs:
                m[i][j] = datum.D[i] * datum.C[i][j]
    return m


def euler_form(datum: CartanDatum, omega: Orientation, a, b) -> int:
    g = gram_euler(datum, omega)
    n = datum.n
    return sum(g[i][j] * a[i] * b[j] for i in range(n) for j in range(n))


def forms(datum: CartanDatum, omega: Orientation) -> FormData:
    n = datum.n
    gs = gram_symmetric(datum)
    ge = gram_euler(datum, omega)
    # R = D^{-1} * gram_euler is integral: diagonal 1, entry c_ij where (j,i) in omega
    R = [[ge[i][j] // datum.D[i] for j in range(n)] for i in range(n)]
    Rinv = linalg.int_inverse(R)
    if Rinv is None:
        raise InternalMismatchError("R must be unimodular for an acyclic orientation")
    CminusR = [[datum.C[i][j] - R[i][j] for j in range(n)] for i in range(n)]
    cox = [[-x for x in row] for row in linalg.int_mat_mul(Rinv, CminusR)]
    # consistency: the same matrix must arise as the reflection product along
    # the admissible Coxeter word (rightmost letter acts first)
    word = coxeter_word(datum, omega)
    prod = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in word:
        prod = linalg.int_mat_mul(reflection_matrix(datum, i), prod)
    if prod != cox:
        raise InternalMismatchError("Coxeter matrix disagrees with reflection product")
    freeze = lambda m: tuple(tuple(row) for row in m)  # noqa: E731
    return FormData(freeze(gs), freeze(ge), freeze(R), freeze(cox))


# --- JSON interface (1-based vertices) --------------------------------------


def datum_from_json(text: str):
    obj = json.loads(text)
    datum = validate_datum(obj["C"], obj["D"])
    omega = None
    if "Omega" in obj:
        omega = validate_orientation(datum, [(i - 1, j - 1) for i, j in obj["Omega"]])
    return datum, omega
