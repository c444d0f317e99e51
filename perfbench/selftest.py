"""Determinism self-test of the traced benchmark run.

Runs each workload traced twice with seed 1, under PYTHONHASHSEED=1 and
PYTHONHASHSEED=2, and requires every count metric (calls, candidates,
submodules, generators, fits, primes per fit, isomorphism outcomes, budget
exhaustions) and the attempted/failed totals to repeat exactly.  Each
traced run also checks that its answers equal those of an untraced round
and the exact expectations, and exits nonzero otherwise.

It also checks the bypass predictions the workloads were chosen for:
`fpoly` and `preproj` make no isomorphism tests, `serre` and `preproj`
enumerate no free submodules, and only `preproj` calls `pimod`.

Run from the root of a checkout (about three minutes on a 2-core box):

    python3 perfbench/selftest.py

Exit status 0 when every count repeats and every prediction holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("serre", "fpoly", "pbw", "preproj")
SEED = 1
HASH_SEEDS = ("1", "2")
# (metric, workloads on which it must be 0)
BYPASSES = (
    ("hmod.is_isomorphic.calls", ("fpoly", "preproj")),
    ("grassmann.lf_candidates", ("serre", "preproj")),
    ("pimod.calls", ("serre", "fpoly", "pbw")),
)


def traced_run(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
           "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=600,
                          cwd=RUN.parent.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} under PYTHONHASHSEED={hash_seed} failed:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result):
    """Everything in a traced result that is not a time."""
    out = {"attempted": result["attempted"], "failed": result["failed"]}
    for name, m in result["metrics"].items():
        if m["unit"] != "s" and name != "trace.overhead_frac":
            out[name] = m["value"]
    return out


def main():
    ok = True
    for workload in WORKLOADS:
        first, second = (counts(traced_run(workload, h)) for h in HASH_SEEDS)
        diff = sorted(k for k in first if first[k] != second.get(k))
        if diff:
            ok = False
            for k in diff:
                print(f"{workload}: {k} = {first[k]} vs {second.get(k)}")
        else:
            print(f"{workload}: {len(first)} counts repeat exactly")
        for name, bypassed in BYPASSES:
            if workload in bypassed and first[name] != 0:
                ok = False
                print(f"{workload}: {name} = {first[name]}, predicted 0")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
