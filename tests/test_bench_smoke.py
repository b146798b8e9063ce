"""Acceptance bar of the committed serving-pool report.

``BENCH_SERVE.json`` is written by ``make bench-load``
(``benchmarks/bench_load.py``).  Training speed is measured end to end
by ``perfbench/`` (``python3 perfbench/run.py``) and the benchmark
bodies under ``benchmarks/`` run in ``make bench-smoke``.
"""

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


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
