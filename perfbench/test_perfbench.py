"""Quick self-test of the benchmark on tiny versions of its workloads:
the checker counts a wrong answer as a failure, and a run reports
exactly the metrics BENCHMARK.json declares, with the declared units."""

import json
from pathlib import Path

import pytest

from perfbench.engine import Checker, Passes, Run
from perfbench.workloads import BwtCount, SmallblockBuild, Uniform8Query
from waveletforest.wtree import WaveletTree

ROOT = Path(__file__).resolve().parent.parent
PER_ROUND = {"access": 20, "rank": 20, "select": 10, "count": 10}
QUICK = Passes(min_rounds=1, load_seconds=0, locality=20,
               block_checks=8)


def tiny_workloads():
    return [Uniform8Query(n=20_000, block_bytes=(1000, 5000), fm_n=4096,
                          fm_block=512, chunks=2, per_round=PER_ROUND),
            BwtCount(n=5000, base=500, block_len=256, chunks=2,
                     per_round=PER_ROUND),
            SmallblockBuild(n_bytes=4096, fm_n=2048, fm_block=256, chunks=2,
                            per_round=PER_ROUND)]


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_checker_counts_wrong_answers_and_errors():
    check = Checker()
    check.answers("access", [1, 2, 3], [1, 2, 3])
    assert (check.attempted, check.failed) == (3, 0)
    check.answers("access", [1, 5, ValueError("boom")], [1, 2, 3])
    check.property("round trip", False)
    assert (check.attempted, check.failed) == (7, 3)
    assert "boom" in check.notes[0]


def test_a_wrong_library_answer_fails_the_run(monkeypatch):
    access = WaveletTree.access
    calls = []

    def first_one_wrong(self, i, trace=None, base=0):
        calls.append(i)
        return access(self, i, trace, base) + (len(calls) == 1)

    monkeypatch.setattr(WaveletTree, "access", first_one_wrong)
    run = Run(tiny_workloads()[0], seed=1, seconds=0, trace=False, passes=QUICK)
    run.run()
    assert len(calls) > 1
    assert run.check.failed == 1


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_runs_report_the_declared_metrics(trace):
    want = declared("per_layer" if trace else "end_to_end")
    for workload in tiny_workloads():
        run = Run(workload, seed=3, seconds=0, trace=trace, passes=QUICK)
        metrics = run.run()
        assert run.check.failed == 0, run.check.notes
        assert {name: unit for name, (_, unit) in metrics.items()} == want
