"""Shared experiment machinery: model factory, train-eval loop, seed averaging.

Every Table II method is constructed by name through :func:`build_model`,
trained with the shared :class:`~repro.core.trainer.KGAGTrainer` (the
paper's fair-comparison protocol: every method optimizes the combined
loss of Eq. 20), and evaluated with the all-items ranking protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    AggregatedGroupRecommender,
    KGCN,
    MatrixFactorization,
    MoSAN,
)
from ..core import KGAG, KGAGConfig, KGAGTrainer, evaluate_model
from ..data import (
    GroupRecommendationDataset,
    Split,
    movielens_like,
    split_interactions,
    yelp_like,
)
from .profiles import ExperimentProfile

__all__ = [
    "TABLE2_MODELS",
    "build_model",
    "build_dataset",
    "train_and_evaluate",
    "SeedAveraged",
    "run_seed_averaged",
]

TABLE2_MODELS = (
    "CF+LM",
    "CF+MP",
    "CF+AVG",
    "KGCN+LM",
    "KGCN+MP",
    "KGCN+AVG",
    "MoSAN",
    "KGAG",
)


def build_model(name: str, dataset: GroupRecommendationDataset, config: KGAGConfig):
    """Instantiate a Table II method by its paper name.

    ``name`` also accepts the Table III ablations (``KGAG-KG``,
    ``KGAG-SP``, ``KGAG-PI``, ``KGAG(BPR)``).
    """
    if name.startswith("CF+") or name.startswith("KGCN+"):
        family, strategy = name.split("+")
        if family == "CF":
            base = MatrixFactorization(dataset.num_users, dataset.num_items, config)
        else:
            base = KGCN(dataset.kg, dataset.num_users, dataset.num_items, config)
        return AggregatedGroupRecommender(base, dataset.groups, strategy.lower())
    if name == "MoSAN":
        return MoSAN(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            config,
        )
    kgag_configs = {
        "KGAG": config,
        "KGAG-KG": config.ablate_kg(),
        "KGAG-SP": config.ablate_sp(),
        "KGAG-PI": config.ablate_pi(),
        "KGAG(BPR)": config.with_bpr_loss(),
    }
    if name in kgag_configs:
        return KGAG(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            kgag_configs[name],
        )
    raise ValueError(f"unknown model name {name!r}")


def build_dataset(
    kind: str, profile: ExperimentProfile, seed: int
) -> GroupRecommendationDataset:
    """Generate one of the three paper datasets at the profile's scale."""
    if kind == "movielens-rand":
        return movielens_like("rand", profile.movielens_for_seed(seed))
    if kind == "movielens-simi":
        return movielens_like("simi", profile.movielens_for_seed(seed))
    if kind == "yelp":
        return yelp_like(profile.yelp_for_seed(seed))
    raise ValueError(f"unknown dataset kind {kind!r}")


def train_and_evaluate(
    model_name: str,
    dataset: GroupRecommendationDataset,
    split: Split,
    config: KGAGConfig,
    k: int = 5,
) -> dict[str, float]:
    """Train one model on one split and return its test metrics."""
    model = build_model(model_name, dataset, config)
    trainer = KGAGTrainer(model, split.train, dataset.user_item, split.validation)
    trainer.fit()
    return evaluate_model(model, split.test, k, split.train)


@dataclass
class SeedAveraged:
    """Mean and per-seed metrics for one (model, dataset) cell."""

    model: str
    dataset: str
    per_seed: list[dict[str, float]] = field(default_factory=list)

    def mean(self, metric: str) -> float:
        return float(np.mean([m[metric] for m in self.per_seed]))

    def std(self, metric: str) -> float:
        return float(np.std([m[metric] for m in self.per_seed]))


def run_seed_averaged(
    model_name: str,
    dataset_kind: str,
    profile: ExperimentProfile,
    config: KGAGConfig | None = None,
    progress=None,
) -> SeedAveraged:
    """Train/evaluate one model on one dataset for every profile seed.

    ``config`` overrides the profile's model config (used by the
    hyper-parameter sweeps); the per-seed model seed is always applied.
    """
    result = SeedAveraged(model=model_name, dataset=dataset_kind)
    for seed in profile.seeds:
        dataset = build_dataset(dataset_kind, profile, seed)
        split = split_interactions(
            dataset.group_item, rng=np.random.default_rng(seed)
        )
        seed_config = (config or profile.model).with_overrides(seed=seed)
        metrics = train_and_evaluate(
            model_name, dataset, split, seed_config, k=profile.k
        )
        result.per_seed.append(metrics)
        if progress is not None:
            progress(model_name, dataset_kind, seed, metrics)
    return result
