"""Steadiness check: two sets of runs of one workload, compared.

    python3 upsilon_bench/steady.py --workload coset-heavy

Runs run.py (untraced) RUNS_PER_SET times with seeds 1, 2, ... (set A) and
then RUNS_PER_SET times more with the following seeds (set B), one run at a
time, each for run_seconds of BENCHMARK.json.  For each end-to-end metric of
BENCHMARK.json it prints each set's median and quartiles, the spread of all
runs (interquartile distance over the median), and how much worse set B's
median is than set A's, against the metric's bound.  The spread of setup_s is shown but not held to its bound.
The last line is the whole result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_PER_SET = 5


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative when better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    sets = ([], [])
    for s in range(2):
        for i in range(RUNS_PER_SET):
            seed = 1 + s * RUNS_PER_SET + i
            result = one_run(args.workload, seed, seconds)
            sets[s].append(result)
            print(f"set {'AB'[s]} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), file=sys.stderr)

    ok = all(r["correct"] for r in sets[0] + sets[1])
    shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
    ok = ok and len(shares[0] | shares[1]) == 1
    report = {"workload": args.workload, "runs_per_set": RUNS_PER_SET, "seconds": seconds,
              "failed_share": sorted(shares[0] | shares[1]), "metrics": {}}
    print(f"{'metric':14s} {'set A q1/med/q3':>32s} {'set B q1/med/q3':>32s} "
          f"{'spread':>7s} {'B worse':>8s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        name = m["name"]
        a = [r["metrics"][name]["value"] for r in sets[0]]
        b = [r["metrics"][name]["value"] for r in sets[1]]
        qa, qb = quartiles(a), quartiles(b)
        sp = spread(a + b)
        worse = worse_by(qa[1], qb[1], m["better"])
        held = worse <= m["bound"] and (name == "setup_s" or sp <= m["bound"])
        ok = ok and held
        report["metrics"][name] = {"set_a": qa, "set_b": qb, "spread": sp,
                                   "b_worse_by": worse, "bound": m["bound"], "held": held}
        print(f"{name:14s} {'%.4g / %.4g / %.4g' % qa:>32s} {'%.4g / %.4g / %.4g' % qb:>32s} "
              f"{sp:7.3f} {worse:8.3f} {m['bound']:6.2f}{'' if held else '  OVER'}")
    report["ok"] = ok
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
