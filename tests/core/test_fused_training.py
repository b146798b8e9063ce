"""Parity tests for the KGAG training/eval hot path against its oracles.

The trainer's KGAG step and evaluation are pure reorderings of the
model's tape math, so they must be indistinguishable from the reference
paths kept here as test-local oracles:

* :meth:`KGAG.group_item_scores_pair` (one shared-receptive-field
  propagation for the positive and negative candidates) vs two
  :meth:`KGAG.group_item_scores` calls — scores within 1e-9 and
  parameter gradients equal to summation-order round-off;
* a seeded :class:`TrainingHistory` reproduces the losses of a trainer
  whose step makes two ``group_item_scores`` calls;
* evaluation (through the serving engine over live weights) returns the
  same metrics and the same top-K rankings as the tape scorer, across
  the config matrix;
* across that matrix, the engine's pair path equals the tape exactly,
  and its ``explain`` and catalog path agree to round-off;
* a baseline model trains with the two-call step (never the compiled
  executor) and evaluates on the tape, without building an engine;
* ``KGAGTrainer._gradient_norm`` equals the naive two-pass formula.
"""

import numpy as np
import pytest

from repro.baselines import AggregatedGroupRecommender, MatrixFactorization
from repro.core import KGAG, KGAGConfig, KGAGTrainer
from repro.core.trainer import combined_loss
from repro.data import MovieLensLikeConfig, movielens_like, split_interactions
from repro.eval import evaluate_group_recommender
from repro.nn import Tensor, no_grad
from repro.serve import RankingEngine

from .conftest import build_model


@pytest.fixture(scope="module")
def world():
    dataset = movielens_like(
        "rand", MovieLensLikeConfig(num_users=40, num_items=50, num_groups=15, seed=3)
    )
    split = split_interactions(dataset.group_item, rng=np.random.default_rng(0))
    return dataset, split


def tape_metrics(model, interactions, train_interactions, k=5):
    """The reference evaluation: rank every item through the model's tape."""
    model.eval()
    with no_grad():
        return evaluate_group_recommender(
            lambda g, v: model.group_item_scores(g, v).numpy(),
            interactions,
            k=k,
            train_interactions=train_interactions,
        )


def cf_avg(dataset, config):
    """The CF+AVG baseline of Table II: no pair step, no engine mirror."""
    return AggregatedGroupRecommender(
        MatrixFactorization(dataset.num_users, dataset.num_items, config),
        dataset.groups,
        "avg",
    )


class TwoCallTrainer(KGAGTrainer):
    """The reference step: positives and negatives in two tape calls."""

    def _forward_backward(self, batch):
        self.optimizer.zero_grad()
        triplets = batch.group_triplets
        pos_scores = self.model.group_item_scores(triplets[:, 0], triplets[:, 1])
        neg_scores = self.model.group_item_scores(triplets[:, 0], triplets[:, 2])
        user_scores, user_labels = None, None
        if len(batch.user_pairs):
            user_scores = self.model.user_item_scores(
                batch.user_pairs[:, 0], batch.user_pairs[:, 1]
            )
            user_labels = Tensor(batch.user_pairs[:, 2].astype(np.float64))
        loss = combined_loss(
            pos_scores,
            neg_scores,
            user_scores,
            user_labels,
            beta=self.config.beta,
            loss_kind=self.config.loss,
            margin=self.config.margin,
        )
        loss.backward()
        return loss


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

        def fit(trainer_class):
            model = build_model(dataset, config)
            trainer = trainer_class(
                model, split.train, dataset.user_item,
                group_validation=split.validation,
            )
            return trainer.fit()

        fused, unfused = fit(KGAGTrainer), fit(TwoCallTrainer)
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
        assert tape_free == tape_metrics(model, split.validation, split.train)

    def test_top_k_matches_tape_scores(self, world):
        dataset, split = world
        model = build_model(
            dataset, KGAGConfig(embedding_dim=8, num_layers=2, num_neighbors=3, seed=11)
        )
        engine = RankingEngine.from_model(model)
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

    @pytest.mark.parametrize(
        "override", CONFIG_MATRIX, ids=lambda o: "-".join(f"{k}" for k in o) or "base"
    )
    def test_engine_matches_tape_scores(self, world, override):
        # The tape is the oracle for every engine the program serves
        # from: the live-weights view and a frozen index.  The pair
        # path equals it exactly, explain within 1e-12 (as in
        # tests/serve/test_engine_parity.py), and the catalog path to
        # round-off, with the same top-5.
        from repro.serve import build_index
        from tests.serve.test_catalog_properties import assert_same_top5

        dataset, split = world
        base = dict(embedding_dim=8, num_layers=2, num_neighbors=3, seed=11)
        model = build_model(dataset, KGAGConfig(**{**base, **override}))
        group_ids = np.arange(dataset.groups.num_groups)
        items = np.arange(dataset.num_items)
        model.eval()
        with no_grad():
            tape_scores = np.stack(
                [
                    model.group_item_scores(
                        np.full(dataset.num_items, g), items
                    ).numpy()
                    for g in group_ids
                ]
            )
            tape_explain = model.explain(1, 2)
        engines = [RankingEngine.from_model(model), RankingEngine(build_index(model))]
        for engine in engines:
            pair_scores = engine.score_pairs(
                np.repeat(group_ids, dataset.num_items),
                np.tile(items, len(group_ids)),
            ).reshape(tape_scores.shape)
            np.testing.assert_array_equal(pair_scores, tape_scores)
            # explain is a one-pair call, and propagated float sums
            # depend on the batch shape: one-pair and batched scores
            # differ in the last bit for some pairs, on the tape and the
            # engine alike.  So the engine matches the tape call of the
            # same shape, except under uniform weights: there it reads
            # entity_final, propagated once over every entity, while the
            # tape propagates the one pair alone.  Hence 1e-12 here.
            served = engine.explain(1, 2)
            assert served["members"] == tape_explain["members"]
            for key in ("attention", "sp", "pi"):
                np.testing.assert_allclose(
                    served[key], tape_explain[key], atol=1e-12, rtol=0
                )
            assert served["score"] == pytest.approx(tape_explain["score"], abs=1e-12)
            engine_scores = engine.score_matrix(group_ids)
            np.testing.assert_allclose(engine_scores, tape_scores, atol=1e-9, rtol=0)
            assert_same_top5(engine_scores, tape_scores)

    def test_unsupported_model_falls_back(self, world, monkeypatch):
        # A baseline has no pair step and no engine mirror: fit() trains
        # it with two group_item_scores calls and validates on the tape.
        dataset, split = world
        model = cf_avg(
            dataset,
            KGAGConfig(embedding_dim=8, epochs=2, batch_size=64, patience=10, seed=2),
        )
        engines = []
        original_init = RankingEngine.__init__

        def counting_init(self, *args, **kwargs):
            engines.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(RankingEngine, "__init__", counting_init)
        trainer = KGAGTrainer(
            model, split.train, dataset.user_item, group_validation=split.validation
        )
        history = trainer.fit()
        assert engines == []
        assert history.num_epochs == 2
        # fit() restored the best epoch's weights, so that epoch's
        # validation record is the tape evaluation of the model as is.
        best = history.validation[history.best_epoch]
        assert best == tape_metrics(model, split.validation, split.train)
        with pytest.raises(TypeError, match="AggregatedGroupRecommender"):
            RankingEngine.from_model(model)

    def test_baseline_compile_rejected(self, world):
        # The compiled step scores through KGAG's pair plan, so a
        # baseline never reaches it: it trains on the two-call tape,
        # traces nothing and holds no program.
        dataset, split = world
        model = cf_avg(
            dataset, KGAGConfig(embedding_dim=8, epochs=1, batch_size=64, seed=2)
        )
        trainer = KGAGTrainer(model, split.train, dataset.user_item)
        oracle = TwoCallTrainer(
            cf_avg(
                dataset, KGAGConfig(embedding_dim=8, epochs=1, batch_size=64, seed=2)
            ),
            split.train,
            dataset.user_item,
        )
        assert trainer.train_epoch() == oracle.train_epoch()
        assert trainer.compile_stats == {"traces": 0, "replays": 0, "fallbacks": 0}
        assert trainer._programs == {}


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
