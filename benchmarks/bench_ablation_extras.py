"""Benchmark: the extra design-choice ablations of DESIGN.md §4.

Beyond the paper's Table III, this quantifies four implementation
decisions the paper leaves implicit:

1. sigmoid-squashed margin loss (Eq. 16) vs margin on raw scores;
2. relation-stratified neighbor sampling vs plain uniform sampling
   (our approximation of the paper's full-neighborhood attention);
3. the interaction-object relation attention π of Eq. 2 vs uniform 1/K
   neighbor weights;
4. mixed user+group training (Eq. 20) vs group-only training (β = 1).
"""

import numpy as np
import pytest

from repro.core import KGAG, KGAGTrainer, evaluate_model
from repro.data import split_interactions
from repro.experiments import build_dataset
from repro.kg import NeighborSampler

from conftest import run_once

DATASET = "movielens-rand"


def _train_eval(dataset, split, config):
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    KGAGTrainer(model, split.train, dataset.user_item, split.validation).fit()
    return evaluate_model(model, split.test, train_interactions=split.train)


def _run_variants(profile, variants):
    results = {name: [] for name in variants}
    for seed in profile.seeds:
        dataset = build_dataset(DATASET, profile, seed)
        split = split_interactions(dataset.group_item, rng=np.random.default_rng(seed))
        for name, config in variants.items():
            metrics = _train_eval(dataset, split, config.with_overrides(seed=seed))
            results[name].append(metrics["rec@5"])
    return {name: float(np.mean(values)) for name, values in results.items()}


def test_margin_squashing_ablation(benchmark, profile):
    variants = {
        "sigmoid-margin (paper)": profile.model,
        "raw margin": profile.model.with_overrides(loss="margin_raw"),
    }
    means = run_once(benchmark, _run_variants, profile, variants)
    benchmark.extra_info.update(means)
    print()
    for name, value in means.items():
        print(f"  {name}: rec@5 {value:.4f}")
    assert all(np.isfinite(v) for v in means.values())


def test_uniform_neighbor_weight_ablation(benchmark, profile):
    variants = {
        "relation attention (Eq. 2)": profile.model,
        "uniform 1/K weights": profile.model.with_overrides(
            uniform_neighbor_weights=True
        ),
    }
    means = run_once(benchmark, _run_variants, profile, variants)
    benchmark.extra_info.update(means)
    print()
    for name, value in means.items():
        print(f"  {name}: rec@5 {value:.4f}")
    assert all(np.isfinite(v) for v in means.values())


def test_group_only_training_ablation(benchmark, profile):
    variants = {
        "mixed loss (beta from profile)": profile.model,
        "group-only (beta = 1)": profile.model.with_overrides(beta=1.0),
    }
    means = run_once(benchmark, _run_variants, profile, variants)
    benchmark.extra_info.update(means)
    print()
    for name, value in means.items():
        print(f"  {name}: rec@5 {value:.4f}")
    # The paper's sparsity argument: dropping the user-item signal should
    # not help.  Only asserted at the calibrated profiles — the quick
    # profile's single tiny seed cannot resolve the ordering.
    assert all(np.isfinite(v) for v in means.values())
    if profile.name in ("default", "full"):
        assert (
            means["mixed loss (beta from profile)"]
            >= means["group-only (beta = 1)"] - 0.05
        )


def test_pi_pooling_ablation(benchmark, profile):
    """Paper's concat PI (Eq. 10) vs the size-agnostic mean-pooled PI."""
    variants = {
        "concat peers (Eq. 10)": profile.model,
        "mean-pooled peers": profile.model.with_overrides(pi_pooling="mean"),
    }
    means = run_once(benchmark, _run_variants, profile, variants)
    benchmark.extra_info.update(means)
    print()
    for name, value in means.items():
        print(f"  {name}: rec@5 {value:.4f}")
    assert all(np.isfinite(v) for v in means.values())


def test_neighbor_sampling_k_sweep(benchmark, profile):
    """Accuracy and cost of the fixed-K receptive field."""
    ks = (2, 4, 8)

    def sweep():
        out = {}
        for k in ks:
            config = profile.model.with_overrides(num_neighbors=k)
            dataset = build_dataset(DATASET, profile, profile.seeds[0])
            split = split_interactions(
                dataset.group_item, rng=np.random.default_rng(profile.seeds[0])
            )
            metrics = _train_eval(dataset, split, config)
            out[k] = metrics["rec@5"]
        return out

    means = run_once(benchmark, sweep)
    benchmark.extra_info.update({f"K={k}": v for k, v in means.items()})
    print()
    for k, value in means.items():
        print(f"  K={k}: rec@5 {value:.4f}")
    assert set(means) == set(ks)


def test_stratified_sampling_covers_rare_relations(benchmark, profile):
    """Structural check + timing of the stratified sampler on a hub graph."""
    dataset = build_dataset(DATASET, profile, profile.seeds[0])
    from repro.kg import build_collaborative_graph

    ckg = build_collaborative_graph(
        dataset.kg, dataset.num_users, dataset.user_item.pairs
    )

    def build():
        return NeighborSampler(
            ckg, 4, rng=np.random.default_rng(0), stratify_by_relation=True
        )

    sampler = benchmark(build)
    # On a hub item (many Interact edges + few attribute edges) the
    # stratified sampler must still surface attribute relations.
    item_counts = np.bincount(
        dataset.user_item.pairs[:, 1], minlength=dataset.num_items
    )
    hub_item = int(np.argmax(item_counts))
    _, relations = sampler.sampled_neighbors(np.array([hub_item]))
    assert len(set(relations.ravel().tolist())) >= 2, (
        "stratified sampling should cover more than one relation type on a hub"
    )
