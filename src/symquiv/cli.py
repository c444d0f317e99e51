"""Batch command-line driver: reproducible, diffable computations.

Every command consumes a datum JSON file {"C": [[...]], "D": [...],
"Omega": [[i,j], ...]} (1-based vertices), prints deterministic output
(canonical JSON with sorted keys, CSV rows, or aligned text) and exits 1
when a mathematical invariant fails, 2 on a usage error and 3 when an
enumeration or search runs out of budget.  Randomized commands require an
explicit --seed.  Counting transcripts (prime, count per variety) can be
persisted with --results-dir for regression diffing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import cartan, cluster, functors, grassmann, hmod, pimod, verify
from .errors import (
    BadArgumentError,
    NonPositiveSymmetrizerError,
    NotCartanError,
    NotDynkinError,
    NotOrientationError,
    NotSymmetrizerError,
    PrimePoolExhaustedError,
    SymquivError,
    TooLargeError,
)
from .fields import RATIONALS, _is_prime, prime_field_spec

USAGE_ERRORS = (NotCartanError, NotSymmetrizerError, NonPositiveSymmetrizerError,
                NotOrientationError, NotDynkinError, BadArgumentError)
RESOURCE_ERRORS = (TooLargeError, PrimePoolExhaustedError)


def _load_datum(args):
    if not args.datum:
        raise NotCartanError("--datum <path> is required")
    with open(args.datum, "r", encoding="utf-8") as fh:
        datum, omega = cartan.datum_from_json(fh.read())
    if args.omega:
        pairs = []
        for token in args.omega.split(";"):
            i, j = token.split(",")
            pairs.append((int(i) - 1, int(j) - 1))
        omega = cartan.validate_orientation(datum, pairs)
    if omega is None:
        raise NotOrientationError("no orientation: provide Omega in the datum or --omega")
    return datum, omega


def _root_table(args):
    """The datum and orientation of the arguments, and their root-module
    table over the rationals."""
    datum, omega = _load_datum(args)
    return datum, omega, functors.all_root_modules(hmod.HAlgebraSpec(datum, omega, RATIONALS))


def _int_list(flag, text):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise BadArgumentError(f"{flag} {text!r} is not a list of integers") from None


def _prime_set(args, default):
    """The primes of --prime-set as given, or default when it is absent."""
    primes = _int_list("--prime-set", args.prime_set) if args.prime_set else default
    bad = [p for p in primes if not _is_prime(p)]
    if bad:
        raise BadArgumentError(f"--prime-set {args.prime_set!r}: {bad[0]} is not prime")
    return primes


def _prime_pool(args):
    user = tuple(sorted(set(_prime_set(args, ()))))
    return user + tuple(p for p in grassmann.PRIME_POOL if p > max(user, default=0))


def _engine(args):
    return grassmann.EulerEngine(pool=_prime_pool(args))


def _emit(args, payload, csv_rows=None, table_rows=None):
    if args.format == "csv" and csv_rows is not None:
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    elif args.format == "table" and table_rows is not None:
        widths = [max(len(str(r[i])) for r in table_rows) for i in range(len(table_rows[0]))]
        for row in table_rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip())
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _write_transcripts(args, engine):
    if not args.results_dir:
        return
    os.makedirs(args.results_dir, exist_ok=True)
    out = {}
    for label, poly in engine.transcripts.items():
        if isinstance(poly, int):  # answered by grassmann.coordinate_counts
            out[label] = {"coordinate_count": poly}
            continue
        out[label] = {
            "coefficients": list(poly.coefficients),
            "samples": [list(s) for s in poly.samples],
            "held_out": list(poly.held_out),
        }
        if poly.variety:  # a Grassmannian fit, on the torus-fixed locus
            out[label]["variety"] = poly.variety
    path = os.path.join(args.results_dir, "transcripts.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(out, sort_keys=True, separators=(",", ":")))


# --- commands ----------------------------------------------------------------


def cmd_roots(args):
    datum, _ = _load_datum(args)
    roots = cartan.positive_roots(datum)
    payload = {"count": len(roots), "roots": [list(r) for r in roots]}
    rows = [list(r) for r in roots]
    _emit(args, payload, csv_rows=rows, table_rows=[["root"]] + [[r] for r in roots])
    return 0


def cmd_forms(args):
    datum, omega = _load_datum(args)
    fd = cartan.forms(datum, omega)
    payload = {
        "gram_sym": [list(r) for r in fd.gram_sym],
        "gram_euler": [list(r) for r in fd.gram_euler],
        "R": [list(r) for r in fd.R],
        "coxeter_mat": [list(r) for r in fd.coxeter_mat],
    }
    _emit(args, payload)
    return 0


def cmd_coxeter_check(args):
    datum, omega = _load_datum(args)
    orientations = cartan.all_orientations(datum) if args.all_orientations else [omega]
    symmetrizers = [list(datum.D)]
    if args.include_doubled:
        symmetrizers.append([2 * d for d in datum.D])
    checked = 0
    for D in symmetrizers:
        varied = cartan.validate_datum([list(r) for r in datum.C], D)
        for om in orientations:
            cartan.forms(varied, om)  # raises InternalMismatchError on failure
            checked += 1
    # the admissible w0 word is part of the check and needs Dynkin type
    _, w0 = cartan.admissible_words(datum, omega)
    cartan.beta_gamma_sequences(datum, w0)
    payload = {"checked": checked, "w0_length": len(w0),
               "w0_word": [i + 1 for i in w0], "ok": True}
    _emit(args, payload)
    return 0


def cmd_root_modules(args):
    _, _, table = _root_table(args)
    entries = []
    for beta, m in zip(table.betas, table.modules):
        rigid = functors.is_rigid(m)
        entry = {"beta": list(beta), "dims": list(m.dims), "rigid": rigid}
        if args.full:
            entry["module"] = json.loads(hmod.module_to_json(m))
        entries.append(entry)
        if not rigid:
            print(f"violated: Ext^1(M({beta}), M({beta})) != 0", file=sys.stderr)
            return 1
    payload = {"word": [i + 1 for i in table.word], "modules": entries}
    rows = [[e["beta"], e["dims"], e["rigid"]] for e in entries]
    _emit(args, payload, csv_rows=[["beta", "dims", "rigid"]] + rows,
          table_rows=[["beta", "dims", "rigid"]] + rows)
    return 0


def cmd_homext_table(args):
    _, _, table = _root_table(args)
    measured = functors.homext_table(table)  # raises on mismatch with the form
    payload = {
        "betas": [list(b) for b in table.betas],
        "table": [[list(cell) for cell in row] for row in measured],
        "ok": True,
    }
    csv_rows = [["i", "j", "hom", "ext"]]
    for i, row in enumerate(measured):
        for j, (h, e) in enumerate(row):
            csv_rows.append([i + 1, j + 1, h, e])
    _emit(args, payload, csv_rows=csv_rows, table_rows=csv_rows)
    return 0


def cmd_tau_orbits(args):
    datum, omega, table = _root_table(args)
    fd = cartan.forms(datum, omega)
    orbits = []
    for beta, m in zip(table.betas, table.modules):
        chain = [list(beta)]
        current = m
        while current.total_dim() > 0:
            current = functors.tau(current)
            rk = hmod.is_locally_free(current)
            if current.total_dim() == 0:
                break
            expected = tuple(sum(fd.coxeter_mat[i][j] * chain[-1][j]
                                 for j in range(datum.n)) for i in range(datum.n))
            if rk != expected:
                print(f"violated: rk tau != coxeter_mat * rk at {chain[-1]}",
                      file=sys.stderr)
                return 1
            chain.append(list(rk))
            if len(chain) > 64:
                break
        orbits.append({"start": list(beta), "chain": chain})
    _emit(args, {"orbits": orbits},
          csv_rows=[["start", "chain"]] + [[o["start"], o["chain"]] for o in orbits])
    return 0


def cmd_fpoly(args):
    _, _, table = _root_table(args)
    engine = _engine(args)
    entries = []
    for beta, m in zip(table.betas, table.modules):
        terms = engine.f_polynomial(m)
        entries.append({
            "rank": list(beta),
            "terms": [{"e": list(e), "coeff": c} for e, c in sorted(terms.items())],
            "g": list(grassmann.g_vector(m)),
        })
    _write_transcripts(args, engine)
    _emit(args, entries)
    return 0


def cmd_cluster_match(args):
    datum, omega, table = _root_table(args)
    engine = _engine(args)
    module_side = [(beta, engine.f_polynomial(m), grassmann.g_vector(m))
                   for beta, m in zip(table.betas, table.modules)]
    report = cluster.match_report(datum, omega, module_side)
    total = len(module_side)
    print(f"{len(report['matched'])}/{total} matched")
    _emit(args, {"matched": [list(b) for b in report["matched"]],
                 "missed": [list(b) for b in report["missed"]],
                 "sign": cluster.SIGN,
                 "cluster_variable_count": report["cluster_variable_count"]})
    return 0 if not report["missed"] else 1


def cmd_pbw_check(args):
    datum, _, table = _root_table(args)
    bound = _int_list("--weight-bound", args.weight_bound)
    if len(bound) != datum.n or min(bound) < 0:
        raise BadArgumentError(f"--weight-bound {args.weight_bound!r} needs {datum.n} "
                               f"non-negative integers, one per vertex")
    engine = grassmann.PBWEngine(table, pool=_prime_pool(args))
    vectors = verify.pbw_multiplicity_vectors(table, bound)
    entries = []
    ok = True
    for m, n, value in verify.pbw_pairing_matrix(engine, vectors):
        expected = Fraction(1) if m == n else Fraction(0)
        if value != expected:
            ok = False
            print(f"violated: pairing({m},{n}) = {value} != {expected}", file=sys.stderr)
        if value != 0:
            entries.append({"m": list(m), "n": list(n), "value": str(value)})
    _emit(args, {"weight_bound": list(bound), "nonzero_entries": entries,
                 "identity": ok})
    return 0 if ok else 1


def cmd_serre_check(args):
    datum, omega = _load_datum(args)
    rng = random.Random(args.seed)
    spec = hmod.HAlgebraSpec(datum, omega, RATIONALS)
    power = 1 - datum.C[0][1]
    rank = tuple([power if v == 0 else (1 if v == 1 else 0) for v in range(datum.n)])
    combo = grassmann.serre_commutator(0, 1, power)
    engine = _engine(args)
    failures = []
    for _ in range(args.samples):
        m = hmod.random_locally_free(spec, rank, rng.randrange(10 ** 9))
        value = engine.theta_eval(combo, m)
        if value != 0:
            failures.append(str(value))
    _emit(args, {"rank": list(rank), "samples": args.samples,
                 "nonzero_values": failures, "ok": not failures})
    if failures:
        print(f"violated: Serre commutator nonzero on {len(failures)} samples",
              file=sys.stderr)
        return 1
    return 0


def cmd_pi_check(args):
    datum, omega = _load_datum(args)
    rng = random.Random(args.seed)
    spec = hmod.HAlgebraSpec(datum, omega, prime_field_spec(7))
    seqs = [(0, 1), (1, 0), (0, 1, 0), (1, 0, 0), (0,), (1,)]
    stats = {"relations": 0, "e_filtered": 0, "crystal": 0, "ext_symmetric": 0}
    for _ in range(args.samples):
        a = pimod.random_E_filtered(spec, rng.choice(seqs), rng.randrange(10 ** 9))
        b = pimod.random_E_filtered(spec, rng.choice(seqs), rng.randrange(10 ** 9))
        if pimod.check_pi_relations(a):
            print("violated: relations fail on a generated module", file=sys.stderr)
            return 1
        stats["relations"] += 1
        flag, _w = pimod.is_E_filtered(a)
        if not flag:
            print("violated: generated module is not E-filtered", file=sys.stderr)
            return 1
        stats["e_filtered"] += 1
        if pimod.is_crystal_module(a):
            stats["crystal"] += 1
        if pimod.ext1_pi(a, b) != pimod.ext1_pi(b, a):
            print("violated: Ext symmetry fails", file=sys.stderr)
            return 1
        stats["ext_symmetric"] += 1
    _emit(args, {"samples": args.samples, **stats, "ok": True})
    return 0


def cmd_nofilt_check(args):
    _, _, table = _root_table(args)
    primes = _prime_set(args, (5, 7, 11))
    engine = grassmann.PBWEngine(table)
    results = []
    ok = True
    r = len(table.betas)
    for k in range(r):
        target = table.betas[k]
        for m in _decompositions(table.betas, target, k):
            increasing = [(j, m[j]) for j in range(r) if m[j]]
            decreasing = list(reversed(increasing))
            up = engine.filtration_exists(table.modules[k], increasing, primes=primes)
            down = engine.filtration_exists(table.modules[k], decreasing, primes=primes)
            entry = {"beta": list(target), "multiplicities": list(m),
                     "increasing": {str(p): v for p, v in sorted(up.items())},
                     "decreasing": {str(p): v for p, v in sorted(down.items())}}
            results.append(entry)
            if not all(up.values()) or any(down.values()):
                ok = False
                print(f"violated: filtration order asymmetry at beta={target}, m={m}",
                      file=sys.stderr)
    _emit(args, {"results": results, "ok": ok})
    return 0 if ok else 1


def _decompositions(betas, target, k):
    """Multiplicity vectors m with sum m_j beta_j = target and m_k = 0."""
    bound = [0 if j == k else max(target) for j in range(len(betas))]
    return [m for m in grassmann._weight_splits(betas, target, bound) if any(m)]


def cmd_verify(args):
    if args.criterion == "all":
        failures = verify.run_all()
        return 0 if not failures else 1
    number = int(args.criterion)
    ok, label, detail = verify.run_criterion(number)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{status}] {label}: {detail}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symquiv",
        description="Exact computations for symmetrizable Cartan data: roots, "
                    "locally free modules, Grassmannian Euler characteristics "
                    "and cluster-algebra cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags beyond --datum, --omega and --format, each on the commands that read it
    for name, fn, extras in [
        ("roots", cmd_roots, ()),
        ("forms", cmd_forms, ()),
        ("coxeter-check", cmd_coxeter_check, ("coxeter",)),
        ("root-modules", cmd_root_modules, ("rootmod",)),
        ("homext-table", cmd_homext_table, ()),
        ("tau-orbits", cmd_tau_orbits, ()),
        ("fpoly", cmd_fpoly, ("primes", "results")),
        ("cluster-match", cmd_cluster_match, ("primes",)),
        ("pbw-check", cmd_pbw_check, ("primes", "pbw")),
        ("serre-check", cmd_serre_check, ("primes", "seed", "samples")),
        ("pi-check", cmd_pi_check, ("seed", "samples")),
        ("nofilt-check", cmd_nofilt_check, ("primes",)),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--datum", help="path to a datum JSON file")
        p.add_argument("--omega", help="orientation override, e.g. '1,2;2,3' (1-based)")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        if "primes" in extras:
            p.add_argument("--prime-set", help="comma-separated sample primes (extendable)")
        if "seed" in extras:
            p.add_argument("--seed", type=int, required=True, help="RNG seed")
        if "results" in extras:
            p.add_argument("--results-dir", help="persist counting transcripts here")
        if "coxeter" in extras:
            p.add_argument("--all-orientations", action="store_true")
            p.add_argument("--include-doubled", action="store_true",
                           help="also check the doubled symmetrizer")
        if "rootmod" in extras:
            p.add_argument("--full", action="store_true", help="serialize the modules")
        if "pbw" in extras:
            p.add_argument("--weight-bound", default="2,2")
        if "samples" in extras:
            p.add_argument("--samples", type=int, default=50)
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify", help="run an acceptance criterion (1-13 or 'all')")
    p.add_argument("--criterion", default="all")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 2
    except RESOURCE_ERRORS as exc:
        print(f"resources exhausted: {exc}", file=sys.stderr)
        code = 3
    except SymquivError as exc:
        print(f"violated: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
