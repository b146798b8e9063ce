"""Graph-health report: ``python -m repro.analysis.report``.

Builds a small synthetic KGAG instance, runs one forward/backward of the
combined objective under the :class:`~repro.analysis.sanitizer.TapeSanitizer`,
verifies the tape topology, and prints a health summary:

* tape statistics (nodes, edges, depth, trainable leaves),
* structural issues (cycles, malformed nodes, post-backward leaks),
* sanitizer anomalies (non-finite values, dtype drift),
* parameter coverage (how many parameters backward actually touched).

``--concurrency`` switches to the concurrency health probe instead: the
static lock-discipline rules (RL101-RL105) over ``src/`` plus a short
multi-thread stress run of the serve/obs stack under the lockset race
detector (:mod:`repro.analysis.race_smoke`).

Exit code 0 means healthy; 1 means at least one structural issue or
error-severity anomaly was found.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from ..core import KGAG, KGAGConfig
from ..core.losses import combined_loss
from ..data import MovieLensLikeConfig, movielens_like
from ..data.loader import MixedBatchLoader
from ..data.splits import split_interactions
from ..nn import Tensor
from .graph import checked_backward
from .sanitizer import TapeSanitizer

__all__ = ["build_small_kgag_loss", "run_report", "run_concurrency_report", "main"]


def build_small_kgag_loss(seed: int = 0):
    """One mixed-batch KGAG loss on a tiny synthetic dataset.

    Returns ``(model, loss)`` with the tape still attached to ``loss``.
    """
    config = KGAGConfig(
        embedding_dim=8,
        num_layers=1,
        num_neighbors=3,
        epochs=1,
        batch_size=64,
        patience=0,
        seed=seed,
    )
    dataset = movielens_like(
        "rand",
        MovieLensLikeConfig(num_users=30, num_items=40, num_groups=12, seed=seed),
    )
    split = split_interactions(
        dataset.group_item, rng=np.random.default_rng(seed)
    )
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    loader = MixedBatchLoader(
        split.train,
        dataset.user_item,
        batch_size=config.batch_size,
        rng=np.random.default_rng(seed),
    )
    batch = next(iter(loader.epoch()))
    triplets = batch.group_triplets
    pos = model.group_item_scores(triplets[:, 0], triplets[:, 1])
    neg = model.group_item_scores(triplets[:, 0], triplets[:, 2])
    user_scores = user_labels = None
    if len(batch.user_pairs):
        user_scores = model.user_item_scores(
            batch.user_pairs[:, 0], batch.user_pairs[:, 1]
        )
        user_labels = Tensor(batch.user_pairs[:, 2].astype(np.float64))
    loss = combined_loss(
        pos,
        neg,
        user_scores,
        user_labels,
        beta=config.beta,
        loss_kind=config.loss,
        margin=config.margin,
    )
    return model, loss


def run_report(seed: int = 0, stream=None) -> int:
    """Run the forward/backward health probe; returns the exit code."""
    stream = stream or sys.stdout

    def emit(line: str) -> None:
        print(line, file=stream)

    emit("repro.analysis.report — KGAG tape health summary")
    emit(f"seed: {seed}")

    with TapeSanitizer(raise_on_anomaly=False) as tape:
        model, loss = build_small_kgag_loss(seed=seed)
        report, leaks = checked_backward(loss)
        tape.check_parameters(model.named_parameters())

    emit("")
    emit(report.render())
    emit("")
    emit(tape.summary())

    named = list(model.named_parameters())
    untouched = [a.op for a in tape.anomalies if a.kind == "untouched-parameter"]
    emit("")
    emit(
        f"parameter coverage: {len(named) - len(untouched)}/{len(named)} "
        "parameters received gradient"
    )
    for name in untouched:
        emit(f"  untouched: {name}")

    errors = [a for a in tape.anomalies if a.severity == "error"]
    healthy = report.ok and not errors and not leaks
    emit("")
    emit(f"verdict: {'HEALTHY' if healthy else 'UNHEALTHY'}")
    return 0 if healthy else 1


def run_concurrency_report(stream=None) -> int:
    """Static RL101-RL105 pass over ``src`` + a short lockset stress run."""
    stream = stream or sys.stdout

    def emit(line: str) -> None:
        print(line, file=stream)

    from .lint import lint_paths
    from .race_smoke import run_stress

    emit("repro.analysis.report — concurrency health summary")
    emit("")
    rules = ["RL101", "RL102", "RL103", "RL104", "RL105"]
    result = lint_paths(["src"], select=rules)
    emit(
        f"static rules ({', '.join(rules)}): "
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
    )
    for finding in result.findings:
        emit(f"  {finding.render()}")

    stress = run_stress(threads=4, iterations=50, detect=True)
    emit(
        f"lockset stress: 4 threads x 50 iterations in "
        f"{stress.elapsed * 1e3:.1f} ms, "
        f"{len(stress.violations)} violation(s)"
    )
    for violation in stress.violations:
        emit(violation.render())

    healthy = not result.findings and stress.ok
    emit("")
    emit(f"verdict: {'HEALTHY' if healthy else 'UNHEALTHY'}")
    return 0 if healthy else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.report",
        description="Print a tape/graph health summary for a small KGAG "
        "forward/backward pass, or (with --concurrency) a lock-discipline "
        "and race-detector summary.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="run the concurrency report (static rules + lockset stress)",
    )
    args = parser.parse_args(argv)
    if args.concurrency:
        return run_concurrency_report()
    return run_report(seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
