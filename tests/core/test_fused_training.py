"""Parity tests for the fused training/eval hot path.

The fused paths are pure reorderings of the same math, so they must be
indistinguishable from the reference paths:

* :meth:`KGAG.group_item_scores_pair` (one shared-receptive-field
  propagation for the positive and negative candidates) vs two
  :meth:`KGAG.group_item_scores` calls — scores within 1e-9 and
  parameter gradients equal to summation-order round-off;
* a seeded :class:`TrainingHistory` with ``fused=True`` reproduces the
  unfused losses;
* tape-free validation (``tape_free_eval=True``, through the serving
  engine over live weights) returns the same metrics and the same
  top-K rankings as the tape path, across the supported config matrix;
* ``KGAGTrainer._gradient_norm`` equals the naive two-pass formula.
"""

import numpy as np
import pytest

from repro.core import KGAG, KGAGConfig, KGAGTrainer
from repro.core.trainer import combined_loss
from repro.data import MovieLensLikeConfig, movielens_like, split_interactions

from .conftest import build_model


@pytest.fixture(scope="module")
def world():
    dataset = movielens_like(
        "rand", MovieLensLikeConfig(num_users=40, num_items=50, num_groups=15, seed=3)
    )
    split = split_interactions(dataset.group_item, rng=np.random.default_rng(0))
    return dataset, split


def make_batch(dataset, seed=0, size=32):
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, dataset.groups.num_groups, size)
    pos = rng.integers(0, dataset.num_items, size)
    neg = rng.integers(0, dataset.num_items, size)
    return groups, pos, neg


class TestFusedPairScoring:
    def test_scores_match_two_call_path(self, world):
        dataset, _ = world
        model = build_model(
            dataset, KGAGConfig(embedding_dim=8, num_layers=2, num_neighbors=3, seed=5)
        )
        groups, pos, neg = make_batch(dataset)
        pos_fused, neg_fused = model.group_item_scores_pair(groups, pos, neg)
        pos_ref = model.group_item_scores(groups, pos)
        neg_ref = model.group_item_scores(groups, neg)
        np.testing.assert_allclose(pos_fused.data, pos_ref.data, atol=1e-9, rtol=0)
        np.testing.assert_allclose(neg_fused.data, neg_ref.data, atol=1e-9, rtol=0)

    def test_parameter_gradients_match(self, world):
        dataset, _ = world
        model = build_model(
            dataset, KGAGConfig(embedding_dim=8, num_layers=2, num_neighbors=3, seed=5)
        )
        groups, pos, neg = make_batch(dataset, seed=1)

        def grads(fused):
            model.zero_grad()
            if fused:
                pos_s, neg_s = model.group_item_scores_pair(groups, pos, neg)
            else:
                pos_s = model.group_item_scores(groups, pos)
                neg_s = model.group_item_scores(groups, neg)
            loss = combined_loss(
                pos_s, neg_s, None, None, beta=1.0
            )
            loss.backward()
            return {
                name: parameter.grad.copy()
                for name, parameter in model.named_parameters()
                if parameter.grad is not None
            }

        fused, unfused = grads(True), grads(False)
        assert fused.keys() == unfused.keys()
        for name in fused:
            np.testing.assert_allclose(
                fused[name], unfused[name], atol=1e-11, rtol=1e-9,
                err_msg=f"gradient mismatch for {name}",
            )

    def test_rejects_misaligned_batches(self, world):
        dataset, _ = world
        model = build_model(
            dataset, KGAGConfig(embedding_dim=8, num_layers=1, num_neighbors=3, seed=5)
        )
        with pytest.raises(ValueError):
            model.group_item_scores_pair(np.arange(3), np.arange(3), np.arange(2))

    def test_training_history_reproduced(self, world):
        dataset, split = world
        config = KGAGConfig(
            embedding_dim=8, num_layers=2, num_neighbors=3,
            epochs=3, batch_size=64, patience=10, seed=0,
        )

        def fit(fused):
            model = build_model(dataset, config)
            trainer = KGAGTrainer(
                model, split.train, dataset.user_item,
                group_validation=split.validation, fused=fused,
            )
            return trainer.fit()

        fused, unfused = fit(True), fit(False)
        np.testing.assert_allclose(fused.losses, unfused.losses, rtol=1e-7)
        assert fused.best_epoch == unfused.best_epoch
        for left, right in zip(fused.validation, unfused.validation):
            assert left == right


# The supported engine matrix: every ablation and architecture toggle
# the tape-free evaluation path claims to mirror.
CONFIG_MATRIX = [
    {},
    {"aggregator": "graphsage"},
    {"uniform_neighbor_weights": True},
    {"use_kg": False},
    {"use_sp": False},
    {"use_pi": False},
    {"pi_pooling": "mean"},
    {"num_layers": 1},
]


class TestTapeFreeEvaluation:
    @pytest.mark.parametrize(
        "override", CONFIG_MATRIX, ids=lambda o: "-".join(f"{k}" for k in o) or "base"
    )
    def test_metrics_match_tape_path(self, world, override):
        dataset, split = world
        base = dict(embedding_dim=8, num_layers=2, num_neighbors=3, seed=11)
        base.update(override)
        config = KGAGConfig(**base)
        model = build_model(dataset, config)
        trainer = KGAGTrainer(
            model, split.train, dataset.user_item, group_validation=split.validation
        )
        tape_free = trainer.evaluate(split.validation, k=5)
        trainer.tape_free_eval = False
        tape = trainer.evaluate(split.validation, k=5)
        assert tape_free == tape

    def test_top_k_matches_tape_scores(self, world):
        from repro.nn import no_grad

        dataset, split = world
        model = build_model(
            dataset, KGAGConfig(embedding_dim=8, num_layers=2, num_neighbors=3, seed=11)
        )
        trainer = KGAGTrainer(model, split.train, dataset.user_item)
        engine = trainer._ranking_engine()
        assert engine is not None
        group_ids = np.arange(dataset.groups.num_groups)
        engine_scores = engine.score_matrix(group_ids)
        with no_grad():
            items = np.arange(dataset.num_items)
            tape_scores = np.stack(
                [
                    model.group_item_scores(
                        np.full(dataset.num_items, g), items
                    ).numpy()
                    for g in group_ids
                ]
            )
        np.testing.assert_allclose(engine_scores, tape_scores, atol=1e-9, rtol=0)
        np.testing.assert_array_equal(
            np.argsort(-engine_scores, axis=1, kind="stable")[:, :5],
            np.argsort(-tape_scores, axis=1, kind="stable")[:, :5],
        )

    def test_unsupported_model_falls_back(self, world):
        dataset, split = world
        model = build_model(
            dataset, KGAGConfig(embedding_dim=8, num_layers=1, num_neighbors=3, seed=2)
        )
        trainer = KGAGTrainer(model, split.train, dataset.user_item)
        # Break the support contract (on a field only the engine checks,
        # so the tape path still works): the trainer must quietly fall
        # back rather than crash.
        object.__setattr__(model.config, "aggregator", "bogus")
        assert trainer._ranking_engine() is None
        metrics = trainer.evaluate(split.validation, k=5)
        assert set(metrics) >= {"hit@5", "rec@5"}


class TestGradientNorm:
    def test_matches_naive_formula(self, world):
        dataset, split = world
        model = build_model(
            dataset, KGAGConfig(embedding_dim=8, num_layers=1, num_neighbors=3, seed=4)
        )
        trainer = KGAGTrainer(model, split.train, dataset.user_item)
        groups, pos, neg = make_batch(dataset, seed=3)
        pos_s, neg_s = model.group_item_scores_pair(groups, pos, neg)
        combined_loss(
            pos_s, neg_s, None, None, beta=1.0
        ).backward()
        naive = float(
            np.sqrt(
                sum(
                    float((parameter.grad**2).sum())
                    for parameter in model.parameters()
                    if parameter.grad is not None
                )
            )
        )
        assert trainer._gradient_norm() == pytest.approx(naive, rel=1e-12)
        assert naive > 0.0
