"""Hot-path benchmark report for the fused training/eval work (PR 4).

Times the canonical PR-4 workload — a mid-size ``movielens_like``
dataset with a 2-layer KGAG — and records per-benchmark medians and
minima plus a :class:`~repro.obs.TapeProfiler` top-op table into a
JSON report (``BENCH_PR4.json`` by default).

The script deliberately restricts itself to the API surface shared by
the pre- and post-optimisation trees (``KGAGTrainer.train_epoch`` /
``.evaluate`` with default constructor flags, ``NeighborSampler``), so
the *same harness* produces both sides of the comparison::

    # baseline, from a worktree of the pre-PR commit:
    PYTHONPATH=/path/to/seed/src python tools/bench_report.py --record before
    # optimised tree:
    make bench-report          # == --record after

Each run merges its side into the existing report; once both sides are
present, ``speedups`` holds the before/after ratios of the per-rep
minima.  Timings are wall-clock and therefore load-sensitive — record
both sides in the same sitting on an otherwise idle machine.

Benchmarks
----------
``train_epoch``
    One full training epoch (forward + backward + SGD over every
    group-item batch).  The fused pair scoring, einsum attention
    contractions, gradient donation, and segment-sum scatter all land
    here.
``validate``
    One full-ranking validation pass (``evaluate`` on the validation
    split, k=5).  The tape-free engine path lands here.
``sampler_build``
    ``NeighborSampler`` table construction (stratified and uniform) —
    the vectorised builder.

PR-8 compiled pair
------------------
``--record compiled-pair`` (default output ``BENCH_PR8.json``) times a
second comparison on the *same* canonical workload: a ``KGAGTrainer``
(which steps every KGAG through the compiled executor) against an
otherwise identical trainer whose step stays on the dynamic tape.
Warmup epochs absorb the trace and the verified first replay, so the
timed compiled epochs are pure replays of the captured program.  The acceptance bar
(``tests/test_bench_smoke.py``) fails if the committed report's
``speedups.train_epoch_compiled`` drops below 1.5x or if any step fell
back to the dynamic tape.

PR-9 worker-scaling curve
-------------------------
``--record parallel`` (default output ``BENCH_PR9.json``) times one
training epoch at each worker count in ``WORKLOAD["parallel"]
["workers"]`` on a sparse, embedding-heavy workload (large entity
table, tiny batches).  Every point trains through the compiled
executor, so the curve isolates what ``workers=N`` buys on top of it.
Both paths apply the same row-sparse Adam with L2 on the touched rows,
so what is left to the pool is that N-batch rounds amortise the
optimiser step.  The report stamps ``cpu_count`` — the
committed curve comes from a single-core container, recorded while
the sequential path still ran dense Adam and a full-table L2 term, so
its speedup is algorithmic, not core-parallelism (docs/parallelism.md).  The acceptance bar
(``tests/test_bench_smoke.py``) fails if ``speedups
.train_epoch_workers4`` drops below 1.8x.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

# The fixed workload: large enough for stable medians, small enough to
# keep `make bench-report` under a couple of minutes.
WORKLOAD = {
    "dataset": {"num_users": 120, "num_items": 160, "num_groups": 40, "seed": 7},
    "model": {"embedding_dim": 32, "num_layers": 2, "num_neighbors": 4, "seed": 7},
    "split_rng_seed": 7,
    "warmup_epochs": 2,
    "train_epoch_reps": 11,
    "validate_reps": 7,
    "sampler_reps": 5,
    "evaluate_k": 5,
    "compiled_pair_reps": 9,
    # The PR-9 worker-scaling workload: a large entity table with tiny
    # batches, so a batch touches a small share of the embedding rows.
    "parallel": {
        "dataset": {
            "num_users": 100,
            "num_items": 24000,
            "num_groups": 2,
            "observed_interaction_fraction": 0.005,
            "seed": 7,
        },
        "model": {
            "embedding_dim": 96,
            "num_layers": 2,
            "num_neighbors": 4,
            "batch_size": 8,
            "seed": 7,
        },
        "split_rng_seed": 7,
        "workers": [1, 2, 4, 8],
        "warmup_epochs": 1,
        "reps": 3,
    },
}


def _tape_trainer_class():
    """A ``KGAGTrainer`` whose KGAG step stays on the dynamic tape.

    It runs the step the compiled executor falls back to: the same
    plan, scored and backpropagated on the tape.
    """
    from repro.core import KGAGTrainer

    class TapeTrainer(KGAGTrainer):
        def _forward_backward(self, batch):
            self.optimizer.zero_grad()
            triplets = batch.group_triplets
            plan = self.model.train_step_plan(
                triplets[:, 0],
                triplets[:, 1],
                triplets[:, 2],
                user_pairs=batch.user_pairs,
            )
            return self._dynamic_step_from_plan(plan)

    return TapeTrainer


def _build_world(trainer_class=None):
    from repro.core import KGAG, KGAGConfig, KGAGTrainer
    from repro.data import MovieLensLikeConfig, movielens_like, split_interactions

    spec = WORKLOAD["dataset"]
    dataset = movielens_like("rand", MovieLensLikeConfig(**spec))
    split = split_interactions(
        dataset.group_item, rng=np.random.default_rng(WORKLOAD["split_rng_seed"])
    )
    config = KGAGConfig(**WORKLOAD["model"])
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    trainer = (trainer_class or KGAGTrainer)(
        model,
        split.train,
        dataset.user_item,
        group_validation=split.validation,
    )
    return dataset, split, trainer


def _time_reps(fn, reps: int) -> dict:
    """Median and minimum wall-clock over ``reps`` calls.

    The median describes the typical run; the minimum is the standard
    least-interference estimate (cf. ``timeit``) and is what
    ``speedups`` compares, since scheduler noise only ever adds time.
    """
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "reps": reps,
    }


def _profile_epoch(trainer, top: int = 12) -> list[dict]:
    """One extra profiled epoch (never part of the timed reps)."""
    try:
        from repro.obs import TapeProfiler
    except ImportError:  # pragma: no cover - seed trees always have obs
        return []
    with TapeProfiler() as profile:
        trainer.train_epoch()
    total = profile.attributed_seconds or 1.0
    return [
        {
            "op": op.name,
            "calls": op.forward_calls + op.backward_calls,
            "total_ms": round(op.total_seconds * 1e3, 3),
            "share": round(op.total_seconds / total, 4),
        }
        for op in profile.top(top)
    ]


def _sampler_build_seconds(dataset, stratify: bool) -> float:
    from repro.kg import NeighborSampler

    k = WORKLOAD["model"]["num_neighbors"]

    def build():
        NeighborSampler(
            dataset.kg,
            num_neighbors=k,
            rng=np.random.default_rng(0),
            stratify_by_relation=stratify,
        )

    return _time_reps(build, WORKLOAD["sampler_reps"])


def measure() -> dict:
    dataset, split, trainer = _build_world()
    for _ in range(WORKLOAD["warmup_epochs"]):
        trainer.train_epoch()

    k = WORKLOAD["evaluate_k"]
    result = {
        "commit": _git_commit(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "train_epoch": _time_reps(trainer.train_epoch, WORKLOAD["train_epoch_reps"]),
        "validate": _time_reps(
            lambda: trainer.evaluate(split.validation, k=k),
            WORKLOAD["validate_reps"],
        ),
        "sampler_stratified": _sampler_build_seconds(dataset, True),
        "sampler_uniform": _sampler_build_seconds(dataset, False),
        "top_ops": _profile_epoch(trainer),
    }
    return result


def measure_compiled_pair() -> dict:
    """Time the compiled-vs-dynamic train-step pair (PR 8).

    Both sides run ``train_epoch`` on the canonical workload; the
    trainers are constructed identically, and the dynamic side's step
    runs the compiled side's plan on the tape, so the ratio isolates
    exactly what the executor buys (trace-once/replay-many tape
    execution; the per-step plan build is shared).  Warmup epochs
    absorb the one-time trace and the bit-exactness-verified first
    replay; every timed compiled epoch is a pure replay — confirmed by
    requiring zero recorded fallbacks.
    """
    reps = WORKLOAD["compiled_pair_reps"]
    measured: dict = {
        "commit": _git_commit(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    for side, trainer_class in (
        ("dynamic", _tape_trainer_class()),
        ("compiled", None),
    ):
        _, _, trainer = _build_world(trainer_class)
        for _ in range(WORKLOAD["warmup_epochs"]):
            trainer.train_epoch()
        measured[f"train_epoch_{side}"] = _time_reps(trainer.train_epoch, reps)
        if trainer_class is None:
            measured["compile_stats"] = dict(trainer.compile_stats)
            programs = [
                program
                for program in trainer._programs.values()
                if getattr(program, "num_ops", None)
            ]
            measured["programs"] = [
                {
                    "num_ops": program.num_ops,
                    "arena_bytes": program.arena_nbytes,
                    "requested_bytes": program.requested_nbytes,
                }
                for program in programs
            ]
    return measured


def _build_parallel_world(workers: int):
    from repro.core import KGAG, KGAGConfig, KGAGTrainer
    from repro.data import MovieLensLikeConfig, movielens_like, split_interactions

    spec = WORKLOAD["parallel"]
    dataset = movielens_like("rand", MovieLensLikeConfig(**spec["dataset"]))
    split = split_interactions(
        dataset.group_item, rng=np.random.default_rng(spec["split_rng_seed"])
    )
    config = KGAGConfig(**spec["model"])
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    return KGAGTrainer(
        model,
        split.train,
        dataset.user_item,
        group_validation=split.validation,
        workers=workers,
    )


def measure_parallel() -> dict:
    """Time one training epoch at each worker count (PR 9).

    Every point runs ``KGAGTrainer(workers=w)`` on the
    ``WORKLOAD["parallel"]`` world, freshly built per point so no state
    leaks between worker counts.  ``cpu_count`` is stamped because the
    curve's meaning depends on it: on a single core the speedup is
    purely algorithmic (rounds amortise the optimiser step).
    """
    spec = WORKLOAD["parallel"]
    measured: dict = {
        "commit": _git_commit(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "train_epoch_workers": {},
    }
    for workers in spec["workers"]:
        trainer = _build_parallel_world(workers)
        try:
            for _ in range(spec["warmup_epochs"]):
                trainer.train_epoch()
            timed = _time_reps(trainer.train_epoch, spec["reps"])
        finally:
            trainer.close()
        measured["train_epoch_workers"][str(workers)] = timed
        print(
            f"[parallel] workers={workers}  train_epoch "
            f"{timed['min_s']:.4f}s (min of {timed['reps']})"
        )
    return measured


def _merge_parallel(report: dict, measured: dict) -> dict:
    report.setdefault("workload", WORKLOAD)
    report["parallel"] = measured
    curve = measured["train_epoch_workers"]
    base = curve["1"]["min_s"]
    speedups = report.setdefault("speedups", {})
    for workers, timed in curve.items():
        if workers != "1":
            speedups[f"train_epoch_workers{workers}"] = round(
                base / timed["min_s"], 3
            )
    return report


def _merge_pair(report: dict, measured: dict) -> dict:
    report.setdefault("workload", WORKLOAD)
    report["pair"] = measured
    dynamic = measured["train_epoch_dynamic"]["min_s"]
    compiled = measured["train_epoch_compiled"]["min_s"]
    report.setdefault("speedups", {})["train_epoch_compiled"] = round(
        dynamic / compiled, 3
    )
    return report


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


_RATIO_KEYS = (
    "train_epoch",
    "validate",
    "sampler_stratified",
    "sampler_uniform",
)


def _merge(report: dict, side: str, measured: dict) -> dict:
    report.setdefault("workload", WORKLOAD)
    report[side] = measured
    before, after = report.get("before"), report.get("after")
    if before and after:
        report["speedups"] = {
            key: round(before[key]["min_s"] / after[key]["min_s"], 3)
            for key in _RATIO_KEYS
            if before.get(key, {}).get("min_s") and after.get(key, {}).get("min_s")
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record",
        choices=("before", "after", "compiled-pair", "parallel"),
        default="after",
        help="which comparison this run measures: a before/after side of "
        "the PR-4 report, the PR-8 compiled-vs-dynamic pair, or the PR-9 "
        "worker-scaling curve",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="report file to merge into (default: BENCH_PR4.json for "
        "before/after, BENCH_PR8.json for compiled-pair, BENCH_PR9.json "
        "for parallel)",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        name = {
            "compiled-pair": "BENCH_PR8.json",
            "parallel": "BENCH_PR9.json",
        }.get(args.record, "BENCH_PR4.json")
        args.output = REPO_ROOT / name

    report = {}
    if args.output.exists():
        report = json.loads(args.output.read_text())
    if args.record == "parallel":
        measured = measure_parallel()
        report = _merge_parallel(report, measured)
        print(f"[parallel] curve recorded -> {args.output}")
    elif args.record == "compiled-pair":
        measured = measure_compiled_pair()
        report = _merge_pair(report, measured)
        print(
            f"[compiled-pair] train_epoch dynamic "
            f"{measured['train_epoch_dynamic']['min_s']:.4f}s  compiled "
            f"{measured['train_epoch_compiled']['min_s']:.4f}s (min)  "
            f"-> {args.output}"
        )
    else:
        measured = measure()
        report = _merge(report, args.record, measured)
        print(
            f"[{args.record}] train_epoch {measured['train_epoch']['min_s']:.4f}s  "
            f"validate {measured['validate']['min_s']:.4f}s (min)  -> {args.output}"
        )
    args.output.write_text(json.dumps(report, indent=1) + "\n")

    for key, ratio in report.get("speedups", {}).items():
        print(f"  speedup {key}: {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
