"""tools/bench_pairs.py: the summary of paired runs, on synthetic runs (no
benchmark is run here)."""

import importlib.util
import statistics
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"heavy_p50_ms": "lower", "jobs_per_s": "higher"}


def runs(workload, heavy, jobs, failed=(0, 0), correct=True):
    """One run per pair and side: heavy[side][i] and jobs[side][i] in pair i;
    each run attempts 100 operations, failed[side] of them in pair 0 fail."""
    out = []
    for i in range(len(heavy[0])):
        for s, side in enumerate(bench_pairs.SIDES):
            out.append({"workload": workload, "pair": i, "side": side,
                        "correct": correct or s == 0, "attempted": 100,
                        "failed": failed[s] if i == 0 else 0,
                        "metrics": {"heavy_p50_ms": {"value": heavy[s][i], "unit": "ms"},
                                    "jobs_per_s": {"value": jobs[s][i], "unit": "1/s"}}})
    return out


def test_summary_of_a_clear_gain():
    parent_heavy = [10.0, 11.0, 10.5, 10.2, 10.8, 10.4, 10.9, 10.1, 10.6, 10.3]
    change_heavy = [h - 2 for h in parent_heavy]
    parent_jobs = [100.0 + i for i in range(10)]
    change_jobs = [150.0 + i for i in range(10)]
    summary = bench_pairs.summarize(
        runs("eps-depth", (parent_heavy, change_heavy), (parent_jobs, change_jobs)), BETTER)
    heavy = summary["eps-depth"]["heavy_p50_ms"]
    assert heavy["parent_median"] == round(statistics.median(parent_heavy), 4) == 10.45
    assert heavy["change_median"] == 8.45
    q1, _, q3 = statistics.quantiles(parent_heavy, n=4)
    assert heavy["parent_quartiles"] == [round(q1, 4), round(q3, 4)]
    assert heavy["change_worse_by"] == round(-2 / 10.45, 4) < 0
    assert heavy["change_wins"] == "10/10"
    assert heavy["every_change_run_beats_every_parent_run"] is True  # 9.0 < 10.0
    jobs = summary["eps-depth"]["jobs_per_s"]
    # higher is better: a rise is a negative worsening, and a win
    assert jobs["change_worse_by"] == round(-(154.5 - 104.5) / 104.5, 4)
    assert jobs["change_wins"] == "10/10"
    assert jobs["every_change_run_beats_every_parent_run"] is True
    assert summary["eps-depth"]["failed"] == {"parent": "0/1000", "change": "0/1000"}
    assert summary["eps-depth"]["correct"] is True


def test_summary_of_ties_losses_and_failures():
    """Ties count for neither side, a loss in the direction of worse is a
    positive change_worse_by, workloads keep their order, and failed runs
    and incorrect checks are reported."""
    heavy = ([5.0, 5.0, 5.0, 5.0], [5.0, 6.0, 4.0, 6.0])
    jobs = ([10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 9.0])
    records = (runs("super-calculus", heavy, jobs, failed=(0, 3), correct=False)
               + runs("eps-depth", heavy, jobs))
    summary = bench_pairs.summarize(records, BETTER)
    assert list(summary) == ["super-calculus", "eps-depth"]
    out = summary["super-calculus"]
    assert out["heavy_p50_ms"]["change_wins"] == "1/4"
    assert out["heavy_p50_ms"]["change_worse_by"] == 0.1
    assert out["jobs_per_s"]["change_wins"] == "1/4"
    assert out["jobs_per_s"]["change_worse_by"] == 0.05
    assert not out["heavy_p50_ms"]["every_change_run_beats_every_parent_run"]
    assert out["failed"] == {"parent": "0/400", "change": "3/400"}
    assert out["correct"] is False
    assert summary["eps-depth"]["correct"] is True
