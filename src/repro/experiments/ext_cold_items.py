"""Extension experiment — cold-item group recommendation.

Not a table in the paper, but the sharpest test of its thesis: if the
knowledge graph really transfers preference information between items,
a KG-aware model should rank items that have **zero observed user-item
interactions** far better than a model without the KG (whose embedding
for a cold item is untrained noise).

Protocol: build the -Rand dataset, hold out a fraction of items as
*cold* by deleting every observed user-item interaction involving them
(group-item positives are untouched), train KGAG and KGAG-KG, then
evaluate only on test group-item pairs whose item is cold.

Shape target: KGAG degrades gracefully on cold items; KGAG-KG collapses
toward chance.

Run: ``python -m repro.experiments.ext_cold_items [--profile quick]``
"""

from __future__ import annotations

import argparse

import numpy as np

from ..core import KGAG, KGAGTrainer, evaluate_model
from ..data import InteractionTable, split_interactions
from .profiles import ExperimentProfile, get_profile
from .reporting import format_table
from .runner import build_dataset

__all__ = ["run", "render", "main"]

DATASET = "movielens-rand"
VARIANTS = ("KGAG", "KGAG-KG")


def _make_cold_items(
    user_item: InteractionTable, fraction: float, rng: np.random.Generator
) -> tuple[InteractionTable, np.ndarray]:
    """Delete all interactions of a random ``fraction`` of items."""
    num_items = user_item.num_cols
    cold = rng.choice(num_items, size=max(1, int(num_items * fraction)), replace=False)
    cold_set = set(cold.tolist())
    keep = [i for i, (_, item) in enumerate(user_item.pairs) if int(item) not in cold_set]
    return user_item.subset(keep), np.sort(cold)


def run(
    profile: ExperimentProfile, cold_fraction: float = 0.25, progress=None
) -> dict[str, dict[str, float]]:
    """Seed-averaged cold-item metrics for KGAG and KGAG-KG."""
    accumulator: dict[str, list[dict[str, float]]] = {v: [] for v in VARIANTS}
    for seed in profile.seeds:
        dataset = build_dataset(DATASET, profile, seed)
        rng = np.random.default_rng(seed + 1000)
        observed, cold_items = _make_cold_items(
            dataset.user_item, cold_fraction, rng
        )
        split = split_interactions(dataset.group_item, rng=np.random.default_rng(seed))
        # Restrict the test set to pairs whose item is cold.
        cold_set = set(cold_items.tolist())
        cold_rows = [
            i for i, (_, item) in enumerate(split.test.pairs) if int(item) in cold_set
        ]
        if not cold_rows:
            continue  # this seed produced no cold test pairs
        cold_test = split.test.subset(cold_rows)

        for variant in VARIANTS:
            config = profile.model_for_seed(seed)
            if variant == "KGAG-KG":
                config = config.ablate_kg()
            model = KGAG(
                dataset.kg,
                dataset.num_users,
                dataset.num_items,
                observed.pairs,
                dataset.groups,
                config,
            )
            KGAGTrainer(model, split.train, observed, split.validation).fit()
            metrics = evaluate_model(model, cold_test, profile.k, split.train)
            accumulator[variant].append(metrics)
            if progress is not None:
                progress(variant, DATASET, seed, metrics)
    if not any(accumulator.values()):
        raise RuntimeError("no seed produced cold test pairs; raise cold_fraction")
    return {
        variant: {
            "rec@5": float(np.mean([m["rec@5"] for m in runs])) if runs else float("nan"),
            "hit@5": float(np.mean([m["hit@5"] for m in runs])) if runs else float("nan"),
            "num_runs": len(runs),
        }
        for variant, runs in accumulator.items()
    }


def render(results: dict[str, dict[str, float]]) -> str:
    rows = [
        [variant, results[variant]["rec@5"], results[variant]["hit@5"]]
        for variant in VARIANTS
    ]
    return format_table(
        ["", "cold rec@5", "cold hit@5"],
        rows,
        title="Extension: group recommendation of interaction-less (cold) items",
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="default", help="quick | default | full")
    parser.add_argument("--cold-fraction", type=float, default=0.25)
    args = parser.parse_args(argv)
    profile = get_profile(args.profile)

    def progress(model, dataset, seed, metrics):
        print(f"  [seed {seed}] {model:8s} rec@5 {metrics['rec@5']:.4f}", flush=True)

    results = run(profile, cold_fraction=args.cold_fraction, progress=progress)
    print()
    print(render(results))


if __name__ == "__main__":
    main()
