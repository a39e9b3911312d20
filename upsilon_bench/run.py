"""Benchmark of the involutive Upsilon pipeline: one workload, one process.

    python3 upsilon_bench/run.py --workload coset-heavy --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run builds its inputs from the seed, then feeds the corpus
one knot at a time in a closed loop, pass after pass, until --seconds have
passed (at least MIN_PASSES whole passes).  Every output is checked against
the oracles of oracle.py.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics (knots_per_s, knot_p50_s,
knot_tail_s, peak_rss_mb, setup_s).  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics; it writes the spans to
.bench_out/trace-<workload>-seed<n>.json.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_PER_GAP = 2


def _import_package() -> None:
    if not (SRC / "involutive_upsilon" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import involutive_upsilon  # noqa: F401


def _setup(workload: str, seed: int, work_dir: Path) -> list:
    """Input generation; with the package import before it, what setup_s times."""
    import corpus
    work_dir.mkdir(parents=True, exist_ok=True)
    return corpus.build(workload, seed, work_dir)


class SetupTimer:
    """Wall time of fresh interpreters doing the set-up, sampled across the run.

    The machine's speed drifts over seconds, so the samples are spread out:
    one untimed run first fills the bytecode caches (as any earlier use
    would), then SETUP_PER_GAP runs follow each pass, while nothing is timed.
    setup_s is their median.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
                     "--seed", str(seed)]
        self.samples: list = []
        self.once()

    def once(self) -> float:
        start = time.perf_counter()
        subprocess.run(self.argv, check=True)
        return time.perf_counter() - start

    def sample(self) -> None:
        for _ in range(SETUP_PER_GAP):
            self.samples.append(self.once())

    def median(self) -> float:
        return statistics.median(self.samples)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it."""
    return math.floor(100 * (n - 10) / n)


def nearest_rank(values: list, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


class Run:
    """The timed phase of one workload over one corpus, and its checks."""

    def __init__(self, wl, knots: list):
        self.wl = wl
        self.knots = knots
        self.times = [[] for _ in knots]
        self.first = [None] * len(knots)
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _fail(self, knot, what: str) -> None:
        print(f"{knot.label}: {what}", file=sys.stderr)

    def _record(self, i: int, output) -> None:
        if self.first[i] is None:
            self.first[i] = output
        elif output != self.first[i]:
            self.correct = False
            self._fail(self.knots[i], "output differs from the first pass")

    def untraced_pass(self) -> float:
        """One pass over the corpus; returns the summed time of its knots."""
        total = 0.0
        for i, knot in enumerate(self.knots):
            self.attempted += 1
            try:
                start = time.perf_counter()
                raw = self.wl.call(knot)
                elapsed = time.perf_counter() - start
                output = self.wl.collect(knot, raw)
            except Exception:  # a failed knot is counted, the run goes on
                self.failed += 1
                self._fail(knot, traceback.format_exc())
                continue
            self.times[i].append(elapsed)
            total += elapsed
            self._record(i, output)
        return total

    def traced_pass(self, tracer, probe) -> float:
        tracer.begin_pass()
        tracer.knot("probe", probe, tracer)
        total = 0.0
        for i, knot in enumerate(self.knots):
            self.attempted += 1
            try:
                start = time.perf_counter()
                output = tracer.knot(knot.label, self.wl.trace, knot, tracer)
                total += time.perf_counter() - start
            except Exception:
                self.failed += 1
                self._fail(knot, traceback.format_exc())
                continue
            self._record(i, output)
        return total

    def check(self) -> None:
        import oracle
        for knot, output in zip(self.knots, self.first):
            if output is None:
                continue
            try:
                self.wl.check(knot, output)
            except oracle.CheckFailure as e:
                self.correct = False
                self._fail(knot, f"check failed: {e}")

    def knot_medians(self) -> list:
        return [statistics.median(ts) for ts in self.times if ts]


def end_to_end(run: Run, seconds: float, workload: str, setup: SetupTimer) -> dict:
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        run.untraced_pass()
        passes += 1
        setup.sample()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    medians = run.knot_medians()
    pct = tail_percentile(len(medians))
    print(f"{workload}: {len(run.knots)} knots, {passes} passes, tail = p{pct} of "
          f"{len(medians)} per-knot medians", file=sys.stderr)
    return {
        "knots_per_s": (len(medians) / sum(medians), "1/s"),
        "knot_p50_s": (statistics.median(medians), "s"),
        "knot_tail_s": (nearest_rank(medians, pct), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup.median(), "s"),
    }


def per_layer(run: Run, seconds: float, workload: str, seed: int, work_dir: Path) -> dict:
    import workloads
    tracer = workloads.Tracer()

    def probe(t):
        workloads.probe(t, work_dir)

    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        plain.append(run.untraced_pass())
        traced.append(run.traced_pass(tracer, probe))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    layers = tracer.layer_seconds()
    metrics = {name: (statistics.median(p[name] for p in layers), "s")
               for name in workloads.LAYERS}
    counts = tracer.counts[0]
    for name in workloads.COUNTS:
        if any(c[name] != counts[name] for c in tracer.counts):
            run.correct = False
            print(f"count {name} differs between passes", file=sys.stderr)
        metrics[name] = (counts[name], "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    print(f"{workload}: {len(traced)} traced passes, tracing overhead "
          f"{100 * overhead:.1f} %", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("coset-heavy", "reduce-long", "sweep-small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_package()
    work_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            _setup(args.workload, args.seed, work_dir)
            return 0
        setup = None if args.trace else SetupTimer(args.workload, args.seed)
        knots = _setup(args.workload, args.seed, work_dir)
        import workloads
        out_dir = work_dir / "csv"
        out_dir.mkdir()
        run = Run(workloads.make(args.workload, out_dir), knots)
        if args.trace:
            metrics = per_layer(run, args.seconds, args.workload, args.seed, work_dir)
        else:
            metrics = end_to_end(run, args.seconds, args.workload, setup)
        start = time.perf_counter()
        run.check()
        print(f"{args.workload}: checks took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
