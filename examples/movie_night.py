#!/usr/bin/env python
"""Movie night: compare group recommenders for similar-taste friend groups.

The scenario the paper's introduction motivates: groups of friends with
shared tastes (a film club) want one movie everybody will enjoy.  This
example builds the MovieLens-like-**Simi** dataset (members must have
Pearson correlation >= 0.27, exactly the paper's protocol), then pits the
classic least-misery strategy (CF+LM) against KGAG, and shows how the
knowledge graph makes a difference for a cold-ish item.

Run: ``python examples/movie_night.py``
"""

import numpy as np

from repro import (
    GroupRecommender,
    KGAG,
    KGAGConfig,
    KGAGTrainer,
    MovieLensLikeConfig,
    movielens_like,
    split_interactions,
)
from repro.baselines import AggregatedGroupRecommender, MatrixFactorization
from repro.core import evaluate_model


def main() -> None:
    print("building the MovieLens-like-Simi dataset (PCC >= 0.27 groups) ...")
    dataset = movielens_like(
        "simi", MovieLensLikeConfig(num_users=60, num_items=80, num_groups=30, seed=11)
    )
    stats = dataset.stats()
    print(
        f"  {stats['total_groups']:.0f} friend groups of {stats['group_size']:.0f}, "
        f"{stats['interactions_per_group']:.1f} movies agreed per group on average"
    )
    split = split_interactions(dataset.group_item, rng=np.random.default_rng(11))

    config = KGAGConfig(
        embedding_dim=16,
        num_layers=2,
        num_neighbors=4,
        epochs=12,
        batch_size=128,
        patience=4,
        seed=11,
    )

    print("\ntraining CF+LM (least misery over matrix factorization) ...")
    cf_lm = AggregatedGroupRecommender(
        MatrixFactorization(dataset.num_users, dataset.num_items, config),
        dataset.groups,
        "lm",
    )
    KGAGTrainer(cf_lm, split.train, dataset.user_item, split.validation).fit()

    print("training KGAG (knowledge graph + SP/PI attention) ...")
    kgag = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    KGAGTrainer(kgag, split.train, dataset.user_item, split.validation).fit()

    print("\ntest-split comparison:")
    for name, model in (("CF+LM", cf_lm), ("KGAG ", kgag)):
        metrics = evaluate_model(model, split.test, train_interactions=split.train)
        print(f"  {name}  hit@5 = {metrics['hit@5']:.4f}  rec@5 = {metrics['rec@5']:.4f}")

    group = int(split.test.pairs[0, 0])
    print(f"\nmovie night for group {group} (members {dataset.groups[group].tolist()}):")
    recommender = GroupRecommender(kgag, split.train)
    for rec in recommender.recommend(group, k=3):
        kg_neighbors = [
            f"{dataset.kg.relation_name(r)} -> {dataset.kg.entity_name(t)}"
            for r, t in dataset.kg.neighbors(rec.item)
            if t >= dataset.num_items  # attribute entities only
        ][:3]
        print(f"  item {rec.item} (p = {rec.probability:.3f}); KG facts: {kg_neighbors}")
    explanation = recommender.explain(group, recommender.recommend(group, k=1)[0].item)
    print(f"\n  {explanation.summary()}")


if __name__ == "__main__":
    main()
