"""The four benchmark workloads, driven through symquiv's public API.

Each workload is a closed loop with one client: queries run one after the
other, each starting when the previous one returned.  `setup(seed)` builds
everything a query needs (algebra specs, root-module tables, seeded inputs
and the seeded query order); `new_round()` makes fresh engines, so every
round answers the same query set from cold memo tables; `run(state, q)`
answers one query; `check(answers)` compares the answers with the exact
expectation and raises `WrongAnswer` on any mismatch.

Sizes were chosen so that one round takes 4 s to 10 s on a 2-core box
with Python 3.11 and so that the median and the tail percentile of the
per-query times fall inside a query population, not in a gap between two.
Measured and left out (same box): `fpoly` on B4 (10.0 s per round, one
root alone 7.9 s), F4 at the default budget (the highest root fails after
268 s), `pbw` pairings up to weight (3,3) on B2 (more than 300 s; (2,3)
takes 65 s, one pairing 51 s) and `nofilt-check` on G2 (14.4 s).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from symquiv import cartan, cli, cluster, functors, grassmann, hmod, linalg, pimod, verify
from symquiv.errors import InterpolationError, TooLargeError
from symquiv.fields import RATIONALS, prime_field_spec

# a query that raises one of these counts as failed; any other exception
# aborts the run
QUERY_FAILURES = (TooLargeError, InterpolationError)

F4_BUDGET = 10 ** 4
GOLDEN_FPOLY_B2 = Path(__file__).resolve().parent.parent / "tests" / "golden" / "fpoly_b2.json"


class WrongAnswer(Exception):
    """A query returned something other than its exact expected answer."""


class Failed(tuple):
    """Answer of a query that raised one of QUERY_FAILURES: (exception name,)."""

    def __new__(cls, exc):
        return super().__new__(cls, (type(exc).__name__,))


def _random_conjugate(M, rng):
    """M with its arrows conjugated by a random unimodular H-linear change of
    basis at every vertex: an integral module isomorphic to M, with canonical
    eps but different matrix entries."""
    field = M.field()
    changes = []
    for v in range(M.spec.datum.n):
        c = M.spec.datum.D[v]
        g = linalg.identity(field, M.dims[v])
        for bi in range(M.dims[v] // c):
            for bj in range(bi, M.dims[v] // c):
                # block (bi, bj) is a polynomial in eps (unipotent on the diagonal)
                for t in range(1 if bi == bj else 0, c):
                    coeff = rng.randint(-2, 2)
                    for a in range(c - t):
                        g[bi * c + a + t][bj * c + a] += coeff
        changes.append((g, linalg.inverse(field, g)))
    arrows = {}
    for (i, j, copy), A in M.arrows.items():
        arrows[(i, j, copy)] = (linalg.mat_mul(field, linalg.mat_mul(field, changes[i][0], A),
                                               changes[j][1]) if A else A)
    return hmod.HModule(M.spec, M.dims, M.eps, arrows)


class Serre:
    """Serre commutator on locally free modules of the critical rank (the
    criterion-9 family), B2 and G2, one shared EulerEngine per round.

    Every round starts with one cold query per datum on a fixed anchor
    module; the remaining queries are seeded random conjugates of the
    anchors, so each is isomorphic to a cached class and is answered through
    `hmod.is_isomorphic` over Q.  The cold cost depends strongly on which
    module of the class is counted first, so the anchors are fixed and only
    the warm queries come from the seed.  Over `random_locally_free` seeds
    0-20 the cold G2 query took 1.9 s to 21.5 s with median 7.0 s (three
    seeds above 17 s), and the cold B2 query 0.13 s to 0.77 s with median
    0.33 s.  Seed 7 is the median for G2 (7.0 s) and costs 0.28 s for B2, so
    cold flag counting keeps its typical share, about three quarters of a round."""

    name = "serre"
    ANCHOR_SEED = 7
    # two warm populations: B2 (~35 ms) and G2 (~110 ms), above them the two
    # cold anchors.  With 30 + 15 conjugates the median (24th fastest of 47)
    # sits inside the B2 population and the tail (11th slowest) in the middle
    # of the G2 population.
    SAMPLES = (("B2", 30), ("G2", 15))
    DATA = {"B2": (verify.B2, verify.OM_B2), "G2": (verify.G2, verify.OM_G2)}

    def setup(self, seed):
        rng = random.Random(seed)
        self.inputs = {}
        anchors, queries = [], []
        for name, count in self.SAMPLES:
            datum, omega = self.DATA[name]
            spec = hmod.HAlgebraSpec(datum, omega, RATIONALS)
            power = 1 - datum.C[0][1]
            combo = grassmann.serre_commutator(0, 1, power)
            anchor = hmod.random_locally_free(spec, (power, 1), self.ANCHOR_SEED)
            self.inputs[(name, "anchor")] = (combo, anchor)
            anchors.append((name, "anchor"))
            for k in range(count):
                self.inputs[(name, k)] = (combo, _random_conjugate(anchor, rng))
                queries.append((name, k))
        rng.shuffle(queries)
        self.queries = anchors + queries

    def new_round(self):
        return grassmann.EulerEngine()

    def run(self, engine, q):
        combo, m = self.inputs[q]
        return engine.theta_eval(combo, m)

    def check(self, answers):
        for q, value in zip(self.queries, answers):
            if value != 0:
                raise WrongAnswer(f"serre {q}: commutator = {value}, expected 0")


class FPoly:
    """F-polynomials and g-vectors of every root module, one fresh EulerEngine
    per table, plus the F4 frontier at a fixed per-count budget.

    B3 and C4 also appear in a second orientation.  Their slowest roots
    (about 0.4 s) join the F4 frontier queries and B3's slowest root in a
    cluster of about ten queries between 0.3 s and 0.5 s, and the tail (11th
    slowest) falls inside it.  With the linear orientations alone the tail
    was a single query in a sparse stretch between two C4 roots."""

    name = "fpoly"
    # table label -> (datum, orientation pairs)
    DATA = {
        "B2": ("B2", [(0, 1)]),
        "B3": ("B3", [(0, 1), (1, 2)]),
        "B3b": ("B3", [(0, 1), (2, 1)]),
        "C3": ("C3", [(0, 1), (1, 2)]),
        "C4": ("C4", [(0, 1), (1, 2), (2, 3)]),
        "C4r": ("C4", [(1, 0), (2, 1), (3, 2)]),
        "F4": ("F4", [(0, 1), (1, 2), (2, 3)]),
    }

    def setup(self, seed):
        catalog = verify.catalog_rank_le_4()
        self.tables = {}
        queries = []
        for name, (datum_name, pairs) in self.DATA.items():
            datum = catalog[datum_name]
            omega = cartan.validate_orientation(datum, pairs)
            table = functors.all_root_modules(hmod.HAlgebraSpec(datum, omega, RATIONALS))
            self.tables[name] = table
            queries.extend((name, k) for k in range(len(table.modules)))
        self.golden = GOLDEN_FPOLY_B2.read_text(encoding="utf-8")
        random.Random(seed).shuffle(queries)
        self.queries = queries

    def new_round(self):
        return {name: grassmann.EulerEngine(budget=F4_BUDGET if name == "F4"
                                            else grassmann.DEFAULT_BUDGET)
                for name in self.DATA}

    def run(self, engines, q):
        name, k = q
        m = self.tables[name].modules[k]
        terms = engines[name].f_polynomial(m)
        return tuple(sorted(terms.items())), grassmann.g_vector(m)

    def check(self, answers):
        by_query = dict(zip(self.queries, answers))
        for name in self.DATA:
            table = self.tables[name]
            module_side = []
            for k, beta in enumerate(table.betas):
                answer = by_query[(name, k)]
                if isinstance(answer, Failed):
                    continue
                terms, g = answer
                # the top exponent is the rank vector of the root, with coefficient
                # 1; the roots are distinct, so no two answers are the same variable
                top = tuple(max(e[i] for e, _ in terms) for i in range(len(beta)))
                if top != tuple(beta) or dict(terms).get(top) != 1:
                    raise WrongAnswer(f"fpoly {name} {beta}: top term {top}")
                module_side.append((beta, dict(terms), g))
            spec = table.modules[0].spec
            report = cluster.match_report(spec.datum, spec.omega, module_side)
            if report["missed"]:
                raise WrongAnswer(f"fpoly {name}: cluster oracle misses {report['missed']}")
        entries = []
        for k, beta in enumerate(self.tables["B2"].betas):
            if isinstance(by_query[("B2", k)], Failed):
                raise WrongAnswer(f"fpoly B2 {beta}: {by_query[('B2', k)][0]}")
            terms, g = by_query[("B2", k)]
            entries.append({"rank": list(beta), "g": list(g),
                            "terms": [{"e": list(e), "coeff": c} for e, c in terms]})
        if json.dumps(entries, sort_keys=True, separators=(",", ":")) + "\n" != self.golden:
            raise WrongAnswer(f"fpoly B2 differs from {GOLDEN_FPOLY_B2}")


class PBW:
    """Dual PBW pairings up to weight (2,2) on B2 in both orientations
    (criterion 8, `pbw-check`), ordered filtrations on every B3 root
    decomposition (`nofilt-check`) and the criterion-11 filtration pair;
    one PBWEngine per table shares the ClassFlagCounter memo across its
    queries.

    The slowest population is the pairings that take 0.1 s to 2.5 s: 7 per
    B2 orientation plus 2 filtrations.  Both orientations are included so
    that this population has 16 queries and the tail (11th slowest) falls
    inside it rather than in the gap below it."""

    name = "pbw"
    WEIGHT_BOUND = (2, 2)
    B2_ORIENTATIONS = {"B2": [(0, 1)], "B2rev": [(1, 0)]}
    NOFILT_PRIMES = (5, 7, 11)
    CRITERION_11_PRIMES = (5, 7, 11, 13, 17)

    def setup(self, seed):
        self.tables = {"B3": functors.all_root_modules(
            hmod.HAlgebraSpec(verify.B3, verify.OM_B3, RATIONALS))}
        queries = []
        for name, pairs in self.B2_ORIENTATIONS.items():
            omega = cartan.validate_orientation(verify.B2, pairs)
            table = functors.all_root_modules(hmod.HAlgebraSpec(verify.B2, omega, RATIONALS))
            self.tables[name] = table
            # equal-weight pairs only: the others return 0 without any work
            vectors = verify.pbw_multiplicity_vectors(table, self.WEIGHT_BOUND)
            for m, wm in vectors:
                for n, wn in vectors:
                    if wm == wn:
                        queries.append(("pairing", name, m, n))
        betas = self.tables["B3"].betas
        r = len(betas)
        for k in range(r):
            for mult in cli._decompositions(betas, betas[k], k):
                increasing = tuple((j, mult[j]) for j in range(r) if mult[j])
                queries.append(("filtration", "B3", k, increasing, True, self.NOFILT_PRIMES))
                queries.append(("filtration", "B3", k, increasing[::-1], False,
                                self.NOFILT_PRIMES))
        k = self.tables["B2"].betas.index((1, 1))
        queries.append(("filtration", "B2", k, ((0, 1), (3, 1)), True,
                        self.CRITERION_11_PRIMES))
        queries.append(("filtration", "B2", k, ((3, 1), (0, 1)), False,
                        self.CRITERION_11_PRIMES))
        random.Random(seed).shuffle(queries)
        self.queries = queries

    def new_round(self):
        return {name: grassmann.PBWEngine(table) for name, table in self.tables.items()}

    def run(self, engines, q):
        if q[0] == "pairing":
            return engines[q[1]].pairing(q[2], q[3])
        _, name, k, prescription, _, primes = q
        module = self.tables[name].modules[k]
        found = engines[name].filtration_exists(module, list(prescription), primes=primes)
        return tuple(sorted(found.items()))

    def check(self, answers):
        for q, answer in zip(self.queries, answers):
            if q[0] == "pairing":
                expected = Fraction(1) if q[2] == q[3] else Fraction(0)
                if answer != expected:
                    raise WrongAnswer(f"pbw pairing{q[1:]} = {answer}, expected {expected}")
                continue
            increasing, primes = q[4], q[5]
            if [p for p, _ in answer] != sorted(primes):
                raise WrongAnswer(f"pbw filtration {q[1:4]}: primes {answer}")
            if any(found != increasing for _, found in answer):
                raise WrongAnswer(f"pbw filtration {q[1:4]}: {answer}, expected "
                                  f"{'all' if increasing else 'none'} true")


class Preproj:
    """pi-check samples over F_7: build two seeded E-filtered Pi-modules, run
    the relation check and is_E_filtered on both, is_crystal_module on the
    first and ext1_pi both ways.

    The sample is stratified: every (datum, type sequence of a, type sequence
    of b) combination occurs equally often and the seed draws the module
    seeds and the order, so the query populations are the same for every
    seed.  The slowest population is G2 with two length-3 sequences (4
    combinations, ~45 ms); 5 samples per G2 combination make it 20 queries,
    so the tail (11th slowest) falls in its middle, not at its edge."""

    name = "preproj"
    SAMPLES_PER_PAIR = (("B2", 3), ("G2", 5))
    SEQUENCES = [(0, 1), (1, 0), (0, 1, 0), (1, 0, 0), (0,), (1,)]

    def setup(self, seed):
        rng = random.Random(seed)
        self.specs = {
            "B2": hmod.HAlgebraSpec(verify.B2, verify.OM_B2, prime_field_spec(7)),
            "G2": hmod.HAlgebraSpec(verify.G2, verify.OM_G2, prime_field_spec(7)),
        }
        queries = []
        for name, count in self.SAMPLES_PER_PAIR:
            for seq_a in self.SEQUENCES:
                for seq_b in self.SEQUENCES:
                    for _ in range(count):
                        queries.append((name, seq_a, rng.randrange(10 ** 9),
                                        seq_b, rng.randrange(10 ** 9)))
        rng.shuffle(queries)
        self.queries = queries

    def new_round(self):
        return None

    def run(self, _state, q):
        name, seq_a, seed_a, seq_b, seed_b = q
        spec = self.specs[name]
        a = pimod.random_E_filtered(spec, seq_a, seed_a)
        b = pimod.random_E_filtered(spec, seq_b, seed_b)
        violated = (len(pimod.check_pi_relations(a)), len(pimod.check_pi_relations(b)))
        filtered = (pimod.is_E_filtered(a)[0], pimod.is_E_filtered(b)[0])
        crystal = pimod.is_crystal_module(a)
        return violated, filtered, crystal, pimod.ext1_pi(a, b), pimod.ext1_pi(b, a)

    def check(self, answers):
        for q, (violated, filtered, _crystal, ext_ab, ext_ba) in zip(self.queries, answers):
            if any(violated):
                raise WrongAnswer(f"preproj {q}: {violated} relations fail in (a, b)")
            if not all(filtered):
                raise WrongAnswer(f"preproj {q}: (a, b) E-filtered = {filtered}")
            if ext_ab != ext_ba:
                raise WrongAnswer(f"preproj {q}: Ext^1 {ext_ab} != {ext_ba}")


WORKLOADS = {w.name: w for w in (Serre, FPoly, PBW, Preproj)}
