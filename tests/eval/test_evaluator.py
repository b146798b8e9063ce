"""Unit tests for the all-items ranking evaluation protocol."""

import numpy as np
import pytest

from repro.data import InteractionTable
from repro.eval import evaluate_group_recommender, score_all_items


def oracle_scorer(positives: InteractionTable):
    """Scores 1.0 for true positives and 0.0 elsewhere."""
    truth = {tuple(p) for p in positives.pairs}

    def score(group_ids, item_ids):
        return np.array(
            [1.0 if (int(g), int(v)) in truth else 0.0 for g, v in zip(group_ids, item_ids)]
        )

    return score


class TestScoreAllItems:
    def test_covers_every_item(self):
        table = InteractionTable(3, 7, [(0, 1), (2, 3)])
        scores = score_all_items(oracle_scorer(table), np.array([0, 2]), 7)
        assert set(scores) == {0, 2}
        assert all(len(v) == 7 for v in scores.values())

    def test_chunking_matches_unchunked(self, monkeypatch):
        import repro.eval.evaluator as evaluator

        table = InteractionTable(4, 10, [(0, 1), (1, 2), (3, 9)])
        scorer = oracle_scorer(table)
        groups = np.array([0, 1, 3])
        monkeypatch.setattr(evaluator, "PAIR_CHUNK", 4)
        small = score_all_items(scorer, groups, 10)
        monkeypatch.setattr(evaluator, "PAIR_CHUNK", 10_000)
        large = score_all_items(scorer, groups, 10)
        for group in (0, 1, 3):
            np.testing.assert_allclose(small[group], large[group])

    def test_duplicate_groups_deduplicated(self):
        table = InteractionTable(2, 3, [(0, 0)])
        scores = score_all_items(oracle_scorer(table), np.array([0, 0, 0]), 3)
        assert list(scores) == [0]

    def test_prebuilt_index_matches_model_scorer(self):
        from repro.core import KGAG, KGAGConfig
        from repro.data import MovieLensLikeConfig, movielens_like
        from repro.serve import RankingEngine, build_index
        from tests.serve.test_catalog_properties import assert_same_top5

        dataset = movielens_like(
            "rand",
            MovieLensLikeConfig(num_users=20, num_items=15, num_groups=4, seed=3),
        )
        model = KGAG(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            KGAGConfig(embedding_dim=6, num_layers=1, num_neighbors=2, seed=3),
        )
        groups = np.arange(dataset.groups.num_groups)
        direct = score_all_items(
            lambda g, v: model.group_item_scores(g, v).numpy(),
            groups,
            dataset.num_items,
        )
        index = build_index(model)
        # The tape equals the engine's pair path bit for bit over the
        # full cross product...
        pairs = RankingEngine(index).score_pairs(
            np.repeat(groups, dataset.num_items),
            np.tile(np.arange(dataset.num_items), len(groups)),
        ).reshape(len(groups), dataset.num_items)
        tape = np.stack([direct[int(group)] for group in groups])
        np.testing.assert_array_equal(tape, pairs)
        # ...and the full-catalog path agrees with it to round-off.
        indexed = score_all_items(
            None, groups, dataset.num_items, engine=RankingEngine(index)
        )
        catalog = np.stack([indexed[int(group)] for group in groups])
        np.testing.assert_allclose(catalog, pairs, atol=1e-9, rtol=0)
        assert_same_top5(catalog, pairs)


class TestEvaluateGroupRecommender:
    def test_oracle_achieves_perfect_metrics(self):
        test = InteractionTable(5, 20, [(g, g) for g in range(5)])
        out = evaluate_group_recommender(oracle_scorer(test), test, k=5)
        assert out["hit@5"] == 1.0
        assert out["rec@5"] == 1.0

    def test_random_scorer_near_chance(self):
        rng = np.random.default_rng(0)
        test = InteractionTable(50, 100, [(g, int(rng.integers(100))) for g in range(50)])

        def random_scorer(group_ids, item_ids):
            return rng.normal(size=len(group_ids))

        out = evaluate_group_recommender(random_scorer, test, k=5)
        # Chance hit@5 with one positive in 100 items is ~5%.
        assert out["hit@5"] < 0.25

    def test_train_positives_masked(self):
        # The scorer loves item 0 for everyone, but item 0 is a *train*
        # positive for group 0, so it must not count as that group's hit.
        train = InteractionTable(2, 5, [(0, 0)])
        test = InteractionTable(2, 5, [(0, 1), (1, 0)])

        def scorer(group_ids, item_ids):
            return (np.asarray(item_ids) == 0).astype(float)

        masked = evaluate_group_recommender(scorer, test, k=1, train_interactions=train)
        unmasked = evaluate_group_recommender(scorer, test, k=1)
        assert masked["hit@1"] != unmasked["hit@1"]

    def test_empty_test_rejected(self):
        with pytest.raises(ValueError):
            evaluate_group_recommender(
                lambda g, v: np.zeros(len(g)), InteractionTable(2, 2, []), k=1
            )

    def test_num_groups_counts_test_groups(self):
        test = InteractionTable(10, 5, [(0, 1), (7, 2)])
        out = evaluate_group_recommender(oracle_scorer(test), test, k=2)
        assert out["num_groups"] == 2
