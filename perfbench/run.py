"""symquiv benchmark: four exact-math workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serre --seed 1 --seconds 20 --trace 0

With `--trace 0` the run first times the set-up `SETUP_REPEATS` times, each
in a fresh interpreter, then answers the workload's fixed query set in
rounds (fresh engines each round) until the next round would end more than
`--seconds` after the first probe started, with at least `MIN_ROUNDS`
rounds; a workload whose rounds are long therefore overruns `--seconds`.
It reports:

  wall_s         median time of one round (the whole query set)
  setup_s        median set-up time: imports, algebra specs, root-module
                 tables and seeded inputs, from the first line of a fresh
                 interpreter to the first query
  query_p50_ms   median over the queries of each query's median time
  query_tail_ms  the highest percentile of those per-query times that has
                 at least 10 queries beyond it
  peak_rss_mb    ru_maxrss after the last round, before the answer checks
  solved_frac    share of queries that did not raise TooLargeError or
                 InterpolationError (1 - failed_frac)

A line starting with `#` reports the number of rounds, the number N of
queries and which percentile the tail is.

With `--trace 1` the run answers one untraced round, then installs the
tracer (perfbench/tracing.py), repeats the set-up and answers one traced
round, and reports the per-layer metrics of `tracing.layer_metrics`, with
trace.overhead_frac = traced round / untraced round - 1.  The amount of work
is fixed, so `--seconds` is not used and every count repeats exactly.
Spans are written to `.perfbench-traces/<workload>.spans`.

Every answer is checked exactly, outside the timed region; a wrong answer
or an unexpected exception exits with status 1 and prints no result.  The
last line of standard output is the JSON result.
"""

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-traces"

SETUP_REPEATS = 11
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # the tail percentile must have this many samples beyond it


def _load_library():
    """Import the workloads against the checkout's own `src/`, or exit 2."""
    if not (SRC / "symquiv" / "__init__.py").is_file():
        print(f"error: no symquiv sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))  # ahead of any installed copy
    import workloads

    return workloads


def probe_setup(workload, seed):
    """Set-up time measured in a fresh interpreter running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(wl_mod, wl, tracer=None):
    """Answer every query once with fresh engines; returns
    (round wall seconds, per-query seconds, answers)."""
    gc.collect()
    start = time.perf_counter()
    state = wl.new_round()
    times, answers = [], []
    for i, q in enumerate(wl.queries):
        if tracer is not None:
            tracer.query = i
        t = time.perf_counter()
        try:
            answer = wl.run(state, q)
        except wl_mod.QUERY_FAILURES as exc:
            answer = wl_mod.Failed(exc)
        times.append(time.perf_counter() - t)
        answers.append(answer)
    return time.perf_counter() - start, times, answers


def tail_percentile(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; refuses when there are too few samples."""
    n = len(values)
    k = n - 1 - TAIL_BEYOND
    if k < 0:
        raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} beyond any percentile")
    return sorted(values)[k], 100.0 * (k + 1) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl_mod, name, seed, seconds):
    start = time.perf_counter()
    setups = [probe_setup(name, seed) for _ in range(SETUP_REPEATS)]
    wl = wl_mod.WORKLOADS[name]()
    wl.setup(seed)
    walls, per_query, first = [], [[] for _ in wl.queries], None
    while True:
        wall, times, answers = run_round(wl_mod, wl)
        walls.append(wall)
        for acc, t in zip(per_query, times):
            acc.append(t)
        if first is None:
            first = answers
        elif answers != first:
            raise wl_mod.WrongAnswer("answers differ between two rounds of the same input")
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ROUNDS and elapsed + statistics.median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check(first)
    failed = sum(isinstance(a, wl_mod.Failed) for a in first) * len(walls)
    attempted = len(wl.queries) * len(walls)
    query_ms = [statistics.median(ts) * 1000.0 for ts in per_query]
    tail, pct = tail_percentile(query_ms)
    print(f"# {name} seed={seed}: {len(walls)} rounds of N={len(query_ms)} queries; "
          f"tail = p{pct:.1f} of per-query medians; rounds {[round(w, 3) for w in walls]} s; "
          f"setups {[round(s, 3) for s in setups]} s")
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "query_p50_ms": metric(statistics.median(query_ms), "ms"),
        "query_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "solved_frac": metric(1.0 - failed / attempted, "ratio"),
    }
    return attempted, failed, metrics


def measure_traced(wl_mod, name, seed):
    from tracing import Tracer, layer_metrics

    wl = wl_mod.WORKLOADS[name]()
    wl.setup(seed)
    untraced_wall, _, untraced = run_round(wl_mod, wl)
    del wl
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_phase("setup")
        wl = wl_mod.WORKLOADS[name]()
        wl.setup(seed)
        tracer.set_phase("queries")
        traced_wall, _, answers = run_round(wl_mod, wl, tracer)
    finally:
        tracer.uninstall()
    if answers != untraced:
        raise wl_mod.WrongAnswer("the traced round answered differently from the untraced one")
    wl.check(answers)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write_spans(TRACE_DIR / f"{name}.spans")
    failed = sum(isinstance(a, wl_mod.Failed) for a in answers)
    print(f"# {name} seed={seed}: traced {tracer.span_count()} spans; "
          f"untraced round {untraced_wall:.3f} s, traced round {traced_wall:.3f} s")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = metric(traced_wall / untraced_wall - 1.0, "ratio")
    return len(answers), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl_mod = _load_library()
    if args.workload not in wl_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl_mod.WORKLOADS)}")
    if args.probe_setup:
        wl_mod.WORKLOADS[args.workload]().setup(args.seed)
        print(repr(time.perf_counter() - _SCRIPT_START))
        return 0
    try:
        if args.trace:
            attempted, failed, metrics = measure_traced(wl_mod, args.workload, args.seed)
        else:
            attempted, failed, metrics = measure(wl_mod, args.workload, args.seed, args.seconds)
    except wl_mod.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
