"""Closed-loop load harness: sustained QPS across pool worker counts.

Drives a :class:`~repro.serve.pool.ServingPool` at 1, 2 and 4 workers
with a fixed fleet of keep-alive HTTP clients (raw sockets, one request
in flight per client — a classic closed loop) and reports sustained QPS
plus p50/p95/p99 latency from :mod:`repro.obs` histograms: the client
side observes every response into a
:class:`~repro.obs.metrics.Histogram`, and the server side is
cross-checked via the pool's merged per-worker histogram buckets
(:func:`~repro.obs.metrics.merge_snapshots` +
:func:`~repro.obs.metrics.quantile_from_snapshot`).

Why multi-process wins: one process runs its scoring, JSON and HTTP
work under one GIL, so it keeps one core busy however many the box
has; N workers are N interpreters, each on a core of its own.  The gain
therefore tops out near the box's core count (recorded as
``cpu_count``).  The committed acceptance bar is >= 2x sustained QPS at
4 workers vs 1.

Two entry points:

* ``pytest benchmarks/bench_load.py --benchmark-disable`` — a
  correctness-only pass of the harness machinery (tiny burst);
* ``python benchmarks/bench_load.py`` (``make bench-load``) — the full
  recorder; writes ``BENCH_SERVE.json`` at the repo root (the committed
  artifact; regenerate after touching the serving hot path).
"""

import argparse
import json
import os
import platform
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import KGAG, KGAGConfig  # noqa: E402
from repro.data import (  # noqa: E402
    MovieLensLikeConfig,
    movielens_like,
    split_interactions,
)
from repro.obs.metrics import Histogram  # noqa: E402
from repro.rng import ensure_rng  # noqa: E402
from repro.serve import AdmissionConfig, ServingPool, build_index  # noqa: E402

WORKLOAD = {
    "dataset": {"num_users": 30, "num_items": 64, "num_groups": 16, "seed": 7},
    "model": {
        "embedding_dim": 8,
        "num_layers": 1,
        "num_neighbors": 2,
        "seed": 7,
        "uniform_neighbor_weights": True,
    },
    "service": {
        "cache_capacity": 0,
        "deadline_ms": 250.0,
        "scorer_threads": 2,
    },
    "admission": {"max_inflight": 64, "max_queue": 128, "queue_timeout_ms": 250.0},
    "workers": [1, 2, 4],
    "clients": 16,
    "seconds": 6.0,
    "warmup_seconds": 0.75,
    "reps": 3,
}


def build_artifact(directory: Path) -> Path:
    """Build the canonical workload's index artifact on disk."""
    spec = WORKLOAD["dataset"]
    dataset = movielens_like("rand", MovieLensLikeConfig(**spec))
    split = split_interactions(dataset.group_item, rng=ensure_rng(spec["seed"]))
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        KGAGConfig(**WORKLOAD["model"]),
    )
    index = build_index(
        model, train_interactions=split.train, user_interactions=dataset.user_item
    )
    return index.save(directory / "bench_index.npz")


def run_load(
    port: int, clients: int, seconds: float, num_groups: int, histogram: Histogram
) -> dict:
    """Closed-loop burst: ``clients`` keep-alive connections, one request
    in flight each, for ``seconds``.  Every response latency is observed
    into ``histogram``; returns counts + sustained QPS."""
    served = [0] * clients
    shed = [0] * clients
    errors = [0] * clients
    stop_at = time.monotonic() + seconds

    def client(slot: int) -> None:
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = b""
        group = slot
        try:
            while time.monotonic() < stop_at:
                request = (
                    f"GET /recommend?group={group % num_groups}&k=1 HTTP/1.1\r\n"
                    f"Host: bench\r\n\r\n"
                ).encode()
                begin = time.perf_counter()
                sock.sendall(request)
                while b"\r\n\r\n" not in buffer:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionResetError("server closed mid-response")
                    buffer += chunk
                head, _, buffer = buffer.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                while len(buffer) < length:
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionResetError("server closed mid-body")
                    buffer += chunk
                buffer = buffer[length:]
                histogram.observe((time.perf_counter() - begin) * 1000.0)
                status = head.split(b" ", 2)[1]
                if status == b"200":
                    served[slot] += 1
                elif status == b"429":
                    shed[slot] += 1
                else:
                    errors[slot] += 1
                group += 7
        finally:
            sock.close()

    threads = [
        threading.Thread(target=client, args=(slot,), name=f"bench-client-{slot}")
        for slot in range(clients)
    ]
    begin = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - begin
    return {
        "served": int(sum(served)),
        "shed": int(sum(shed)),
        "errors": int(sum(errors)),
        "wall_s": wall,
        "qps": sum(served) / wall if wall > 0 else 0.0,
    }


def measure_pool(
    artifact: Path,
    workers: int,
    *,
    clients: int,
    seconds: float,
    warmup_seconds: float,
    reps: int,
) -> dict:
    """QPS + latency percentiles for one pool size (median of ``reps``)."""
    num_groups = WORKLOAD["dataset"]["num_groups"]
    pool = ServingPool(
        artifact,
        workers=workers,
        service_config=dict(WORKLOAD["service"]),
        admission=AdmissionConfig(**WORKLOAD["admission"]),
    )
    try:
        if warmup_seconds > 0:
            run_load(
                pool.port,
                clients,
                warmup_seconds,
                num_groups,
                Histogram("warmup"),
            )
        runs = []
        for _ in range(reps):
            histogram = Histogram("client/latency_ms")
            outcome = run_load(pool.port, clients, seconds, num_groups, histogram)
            outcome["p50_ms"] = histogram.percentile(0.50)
            outcome["p95_ms"] = histogram.percentile(0.95)
            outcome["p99_ms"] = histogram.percentile(0.99)
            runs.append(outcome)
        fleet = pool.stats()["aggregate"]
    finally:
        pool.close()
    median = sorted(runs, key=lambda run: run["qps"])[len(runs) // 2]
    return {
        "workers": workers,
        "qps": median["qps"],
        "qps_all_reps": [round(run["qps"], 1) for run in runs],
        "served": median["served"],
        "shed": median["shed"],
        "errors": median["errors"],
        "latency_ms": {
            "p50": round(median["p50_ms"], 3),
            "p95": round(median["p95_ms"], 3),
            "p99": round(median["p99_ms"], 3),
        },
        # Cross-check: fleet-side percentiles from the merged per-worker
        # repro.obs histograms (the client's estimator, server-side).
        "server_latency_ms": fleet["latency_ms"],
        "server_requests": fleet["requests"],
    }


def measure(
    *,
    workers=None,
    clients=None,
    seconds=None,
    warmup_seconds=None,
    reps=None,
) -> dict:
    """The full worker-count sweep; parameters default to WORKLOAD."""
    workers = workers or WORKLOAD["workers"]
    clients = clients or WORKLOAD["clients"]
    seconds = seconds or WORKLOAD["seconds"]
    warmup_seconds = (
        WORKLOAD["warmup_seconds"] if warmup_seconds is None else warmup_seconds
    )
    reps = reps or WORKLOAD["reps"]
    with tempfile.TemporaryDirectory() as tmp:
        artifact = build_artifact(Path(tmp))
        points = {
            str(count): measure_pool(
                artifact,
                count,
                clients=clients,
                seconds=seconds,
                warmup_seconds=warmup_seconds,
                reps=reps,
            )
            for count in workers
        }
    base = points[str(workers[0])]["qps"]
    speedups = {
        f"workers{count}": round(points[str(count)]["qps"] / base, 3) if base else 0.0
        for count in workers
    }
    return {"points": points, "speedups": speedups}


def record(out_path: Path) -> dict:
    results = measure()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    payload = {
        "workload": WORKLOAD,
        "environment": {
            "commit": commit,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "load": results["points"],
        "speedups": results["speedups"],
    }
    out_path.write_text(json.dumps(payload, indent=1) + "\n")
    return payload


def test_load_harness_machinery():
    """Correctness-only pass: tiny burst through a 1-worker pool."""
    results = measure(workers=[1], clients=4, seconds=0.5, warmup_seconds=0.2, reps=1)
    point = results["points"]["1"]
    assert point["served"] > 0, point
    assert point["errors"] == 0, point
    assert point["qps"] > 0, point
    assert set(point["latency_ms"]) == {"p50", "p95", "p99"}, point
    assert point["server_requests"] >= point["served"], point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_SERVE.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    payload = record(args.out)
    for count, point in payload["load"].items():
        latency = point["latency_ms"]
        print(
            f"workers={count}: qps={point['qps']:.0f} "
            f"p50={latency['p50']:.2f}ms p95={latency['p95']:.2f}ms "
            f"p99={latency['p99']:.2f}ms (reps {point['qps_all_reps']})"
        )
    print(f"speedups: {payload['speedups']} -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
