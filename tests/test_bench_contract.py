"""The benchmark's call path through the package, in tier-1.

`upsilon_bench/workloads.py` drives the package through its public API; a
break there would otherwise show only as failed knots in a benchmark run.
On the first and last two knots of each workload's seed-1 corpus this runs
the timed call with its collection and oracle checks, and the traced path
with its checks, and the traced output must equal the untraced one, as the
harness requires.  The probe knot runs once.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "upsilon_bench"))

import corpus  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["coset-heavy", "reduce-long", "sweep-small"])
def test_workload_call_and_trace(workload, tmp_path):
    knots = corpus.build(workload, 1, tmp_path)
    out_dir = tmp_path / "csv"
    out_dir.mkdir()
    wl = workloads.make(workload, out_dir)
    for knot in knots[:2] + knots[-2:]:
        output = wl.collect(knot, wl.call(knot))
        wl.check(knot, output)
        tracer = workloads.Tracer()
        tracer.begin_pass()
        traced = tracer.knot(knot.label, wl.trace, knot, tracer)
        wl.check(knot, traced)
        assert traced == output, knot.label


def test_probe(tmp_path):
    tracer = workloads.Tracer()
    tracer.begin_pass()
    tracer.knot("probe", workloads.probe, tracer, tmp_path)
    assert tracer.counts[0]["reduction.eliminated_pairs"] > 0
