"""Non-timing smoke test for the PR-4 benchmark report harness.

Runs :mod:`tools.bench_report`'s measurement machinery on a shrunken
workload so tier-1 catches breakage in the benchmarked code paths (and
in the report script itself) without paying for stable medians.  The
real timings come from ``make bench-report``.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_report():
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO_ROOT / "tools" / "bench_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TINY_WORKLOAD = dict(
    dataset={"num_users": 30, "num_items": 40, "num_groups": 12, "seed": 7},
    model={"embedding_dim": 8, "num_layers": 1, "num_neighbors": 3, "seed": 7},
    warmup_epochs=0,
    train_epoch_reps=1,
    validate_reps=1,
    sampler_reps=1,
    compiled_pair_reps=1,
)


@pytest.fixture(scope="module")
def tiny_measurement(bench_report):
    original = dict(bench_report.WORKLOAD)
    bench_report.WORKLOAD.update(_TINY_WORKLOAD)
    try:
        yield bench_report.measure()
    finally:
        bench_report.WORKLOAD.clear()
        bench_report.WORKLOAD.update(original)


_TINY_PARALLEL = {
    "dataset": {
        "num_users": 30,
        "num_items": 40,
        "num_groups": 12,
        "observed_interaction_fraction": 0.2,
        "seed": 7,
    },
    "model": {
        "embedding_dim": 8,
        "num_layers": 1,
        "num_neighbors": 3,
        "batch_size": 16,
        "seed": 7,
    },
    "split_rng_seed": 7,
    "workers": [1, 2],
    # One warmup epoch so every point's compiled executor traces before
    # the timed rep.
    "warmup_epochs": 1,
    "reps": 1,
}


@pytest.fixture(scope="module")
def tiny_parallel(bench_report):
    original = bench_report.WORKLOAD["parallel"]
    bench_report.WORKLOAD["parallel"] = _TINY_PARALLEL
    try:
        yield bench_report.measure_parallel()
    finally:
        bench_report.WORKLOAD["parallel"] = original


@pytest.fixture(scope="module")
def tiny_pair(bench_report):
    original = dict(bench_report.WORKLOAD)
    # One warmup epoch so the compiled side traces (and verifies its
    # first replay) before the timed rep — the smoke then proves a real
    # replay executes end to end, not just the trace.
    bench_report.WORKLOAD.update(_TINY_WORKLOAD, warmup_epochs=2)
    try:
        yield bench_report.measure_compiled_pair()
    finally:
        bench_report.WORKLOAD.clear()
        bench_report.WORKLOAD.update(original)


class TestMeasure:
    def test_records_every_benchmark(self, tiny_measurement):
        for key in (
            "train_epoch",
            "validate",
            "sampler_stratified",
            "sampler_uniform",
        ):
            timing = tiny_measurement[key]
            assert math.isfinite(timing["min_s"]) and timing["min_s"] > 0.0, key
            assert timing["min_s"] <= timing["median_s"], key

    def test_profiler_table_attributes_hot_ops(self, tiny_measurement):
        ops = {row["op"] for row in tiny_measurement["top_ops"]}
        assert ops, "profiled epoch recorded no tape ops"
        shares = [row["share"] for row in tiny_measurement["top_ops"]]
        assert all(0.0 <= share <= 1.0 for share in shares)
        assert shares == sorted(shares, reverse=True)

    def test_environment_stamp(self, tiny_measurement):
        assert tiny_measurement["numpy"]
        assert tiny_measurement["python"]


class TestCompiledPair:
    def test_records_both_sides(self, tiny_pair):
        for key in ("train_epoch_dynamic", "train_epoch_compiled"):
            timing = tiny_pair[key]
            assert math.isfinite(timing["min_s"]) and timing["min_s"] > 0.0, key
            assert timing["min_s"] <= timing["median_s"], key

    def test_compiled_side_replayed_without_fallback(self, tiny_pair):
        stats = tiny_pair["compile_stats"]
        assert stats["traces"] >= 1
        assert stats["replays"] >= 1
        assert stats["fallbacks"] == 0

    def test_program_metadata_recorded(self, tiny_pair):
        programs = tiny_pair["programs"]
        assert programs, "no compiled program captured"
        for program in programs:
            assert program["num_ops"] > 0
            assert 0 < program["arena_bytes"] <= program["requested_bytes"]

    def test_merge_pair_computes_speedup(self, bench_report):
        report = bench_report._merge_pair(
            {},
            {
                "train_epoch_dynamic": {"min_s": 0.3},
                "train_epoch_compiled": {"min_s": 0.2},
            },
        )
        assert report["speedups"]["train_epoch_compiled"] == pytest.approx(1.5)
        assert report["pair"]["train_epoch_dynamic"]["min_s"] == 0.3


class TestParallelCurve:
    def test_records_every_worker_point(self, tiny_parallel):
        curve = tiny_parallel["train_epoch_workers"]
        assert sorted(curve) == ["1", "2"]
        for workers, timing in curve.items():
            assert math.isfinite(timing["min_s"]) and timing["min_s"] > 0.0, workers
            assert timing["min_s"] <= timing["median_s"], workers

    def test_stamps_cpu_count(self, tiny_parallel):
        assert tiny_parallel["cpu_count"] >= 1

    def test_merge_parallel_computes_speedups_vs_one_worker(self, bench_report):
        report = bench_report._merge_parallel(
            {},
            {
                "train_epoch_workers": {
                    "1": {"min_s": 1.0},
                    "2": {"min_s": 0.5},
                    "4": {"min_s": 0.4},
                }
            },
        )
        speedups = report["speedups"]
        assert speedups["train_epoch_workers2"] == pytest.approx(2.0)
        assert speedups["train_epoch_workers4"] == pytest.approx(2.5)
        assert "train_epoch_workers1" not in speedups


class TestMerge:
    def test_speedups_need_both_sides(self, bench_report):
        report = bench_report._merge({}, "after", {"train_epoch": {"min_s": 1.0}})
        assert "speedups" not in report

    def test_speedups_are_before_over_after(self, bench_report):
        report = {}
        bench_report._merge(
            report,
            "before",
            {"train_epoch": {"min_s": 0.5}, "validate": {"min_s": 0.7}},
        )
        bench_report._merge(
            report,
            "after",
            {"train_epoch": {"min_s": 0.25}, "validate": {"min_s": 0.1}},
        )
        assert report["speedups"]["train_epoch"] == pytest.approx(2.0)
        assert report["speedups"]["validate"] == pytest.approx(7.0)

    def test_merge_round_trips_through_json(self, bench_report, tiny_measurement):
        report = bench_report._merge({}, "after", tiny_measurement)
        assert json.loads(json.dumps(report))["after"] == tiny_measurement


def test_committed_report_clears_acceptance_bars():
    """The committed BENCH_PR4.json must demonstrate the PR-4 targets:
    >=2x train-epoch and >=5x validation speedup, with both sides
    measured by the same harness."""
    path = REPO_ROOT / "BENCH_PR4.json"
    report = json.loads(path.read_text())
    assert {"before", "after", "speedups"} <= set(report)
    assert report["speedups"]["train_epoch"] >= 2.0
    assert report["speedups"]["validate"] >= 5.0
    assert report["after"]["top_ops"], "profiler top-op table missing"


def test_committed_pr8_report_clears_acceptance_bar():
    """The committed BENCH_PR8.json must demonstrate the PR-8 target:
    compiled replay >=1.5x the dynamic tape on the canonical workload
    (a trainer against an identical one whose step stays on the dynamic
    tape), with every timed compiled step a pure replay (zero fallbacks)."""
    path = REPO_ROOT / "BENCH_PR8.json"
    report = json.loads(path.read_text())
    assert {"workload", "pair", "speedups"} <= set(report)
    assert report["speedups"]["train_epoch_compiled"] >= 1.5
    pair = report["pair"]
    assert pair["compile_stats"]["fallbacks"] == 0
    assert pair["compile_stats"]["replays"] >= 1
    assert pair["programs"], "compiled program metadata missing"


def test_committed_pr9_report_clears_acceptance_bar():
    """The committed BENCH_PR9.json must demonstrate the PR-9 target:
    >=1.8x train-epoch speedup at ``workers=4`` over the 1-worker path
    on the worker-scaling workload (every point compiled), with
    the full 1/2/4/8 curve and the machine's core count recorded."""
    path = REPO_ROOT / "BENCH_PR9.json"
    report = json.loads(path.read_text())
    assert {"workload", "parallel", "speedups"} <= set(report)
    assert report["speedups"]["train_epoch_workers4"] >= 1.8
    curve = report["parallel"]["train_epoch_workers"]
    assert sorted(curve, key=int) == ["1", "2", "4", "8"]
    assert report["parallel"]["cpu_count"] >= 1


def test_committed_serve_report_clears_acceptance_bar():
    """The committed BENCH_SERVE.json must demonstrate the serving-pool
    target: >=2x sustained QPS at ``workers=4`` over the single-process
    server on the canonical closed-loop workload, with client-side
    p50/p95/p99 from repro.obs histograms and the fleet-side cross-check
    recorded for every point."""
    path = REPO_ROOT / "BENCH_SERVE.json"
    report = json.loads(path.read_text())
    assert {"workload", "environment", "load", "speedups"} <= set(report)
    assert report["speedups"]["workers4"] >= 2.0
    assert sorted(report["load"], key=int) == ["1", "2", "4"]
    for workers, point in report["load"].items():
        assert point["qps"] > 0, workers
        assert set(point["latency_ms"]) == {"p50", "p95", "p99"}, workers
        assert set(point["server_latency_ms"]) == {"p50", "p95", "p99"}, workers
        assert point["errors"] == 0, workers
        assert point["server_requests"] >= point["served"], workers
    assert report["environment"]["cpu_count"] >= 1
    assert report["workload"]["admission"]["max_inflight"] >= 1
