"""Microbenchmarks for the performance-critical components.

These are classic pytest-benchmark timing runs (many rounds) rather than
table regenerations: the autograd matmul path, embedding gather +
scatter-add, the propagation block forward/backward, the attention
block, and full-catalog scoring — the operations that dominate training
and evaluation wall-clock.
"""

import numpy as np
import pytest

from repro.core import KGAG, KGAGConfig
from repro.core.attention import PreferenceAggregation
from repro.core.propagation import InformationPropagation
from repro.data import movielens_like, MovieLensLikeConfig
from repro.kg import NeighborSampler, random_kg
from repro.nn import Embedding, Linear, Tensor, no_grad

RNG = np.random.default_rng(0)


@pytest.fixture(scope="module")
def dataset():
    return movielens_like(
        "rand", MovieLensLikeConfig(num_users=60, num_items=80, num_groups=20, seed=0)
    )


@pytest.fixture(scope="module")
def model(dataset):
    return KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        KGAGConfig(embedding_dim=32, num_layers=2, num_neighbors=4, seed=0),
    )


def test_autograd_linear_forward_backward(benchmark):
    layer = Linear(128, 128, rng=RNG)
    x = Tensor(RNG.normal(size=(256, 128)))

    def step():
        layer.zero_grad()
        layer(x).sum().backward()

    benchmark(step)


def test_embedding_gather_scatter(benchmark):
    table = Embedding(10_000, 64, rng=RNG)
    indices = RNG.integers(0, 10_000, size=4096)

    def step():
        table.zero_grad()
        table(indices).sum().backward()

    benchmark(step)


def test_propagation_forward(benchmark):
    kg = random_kg(500, 6, 3000, rng=np.random.default_rng(1))
    sampler = NeighborSampler(kg, 4, rng=np.random.default_rng(2))
    block = InformationPropagation(
        kg.num_entities, sampler.num_relation_slots, 32, 2, rng=np.random.default_rng(3)
    )
    seeds = RNG.integers(0, 500, size=256)
    queries = Tensor(RNG.normal(size=(256, 32)))

    def step():
        with no_grad():
            block(seeds, queries, sampler)

    benchmark(step)


def test_propagation_backward(benchmark):
    kg = random_kg(500, 6, 3000, rng=np.random.default_rng(1))
    sampler = NeighborSampler(kg, 4, rng=np.random.default_rng(2))
    block = InformationPropagation(
        kg.num_entities, sampler.num_relation_slots, 32, 2, rng=np.random.default_rng(3)
    )
    seeds = RNG.integers(0, 500, size=128)
    queries = Tensor(RNG.normal(size=(128, 32)))

    def step():
        block.zero_grad()
        block(seeds, queries, sampler).sum().backward()

    benchmark(step)


def test_attention_forward(benchmark):
    block = PreferenceAggregation(32, 8, rng=np.random.default_rng(0))
    members = Tensor(RNG.normal(size=(256, 8, 32)))
    items = Tensor(RNG.normal(size=(256, 32)))

    def step():
        with no_grad():
            block(members, items)

    benchmark(step)


def test_group_scoring_throughput(benchmark, model, dataset):
    """Pairs/second of the full KGAG scoring path (eval workload)."""
    groups = RNG.integers(0, dataset.groups.num_groups, size=256)
    items = RNG.integers(0, dataset.num_items, size=256)

    def step():
        with no_grad():
            model.group_item_scores(groups, items)

    benchmark(step)


def test_training_step(benchmark, model, dataset):
    """One optimizer step on a 64-triplet batch (training workload).

    Runs with the default no-op metrics registry — the baseline the
    instrumented variant below is compared against (the disabled path
    must stay within noise of this number).
    """
    from repro.core.trainer import KGAGTrainer
    from repro.data import split_interactions

    split = split_interactions(dataset.group_item, rng=np.random.default_rng(0))
    trainer = KGAGTrainer(model, split.train, dataset.user_item)
    batch = next(iter(trainer.loader.epoch()))

    benchmark(lambda: trainer.train_step(batch))


def test_training_step_with_metrics(benchmark, model, dataset):
    """The same step with a live MetricsRegistry attached.

    The delta against ``test_training_step`` is the full observability
    overhead: step timing, loss gauge, and the pre-clip gradient-norm
    reduction that only runs when metrics are enabled.
    """
    from repro.core.trainer import KGAGTrainer
    from repro.data import split_interactions
    from repro.obs import MetricsRegistry

    split = split_interactions(dataset.group_item, rng=np.random.default_rng(0))
    trainer = KGAGTrainer(
        model, split.train, dataset.user_item, metrics=MetricsRegistry()
    )
    batch = next(iter(trainer.loader.epoch()))

    benchmark(lambda: trainer.train_step(batch))


def test_evaluate(benchmark, model, dataset):
    """Per-epoch validation: full-catalog ranking on the serving engine."""
    from repro.core import evaluate_model
    from repro.data import split_interactions

    split = split_interactions(dataset.group_item, rng=np.random.default_rng(0))
    benchmark(lambda: evaluate_model(model, split.validation, 5, split.train))


def _cache_workload(cache):
    for i in range(256):
        key = (i % 32, "v0")
        if cache.get(key) is None:
            cache.put(key, float(i))
    cache.stats()


def test_score_cache_untracked(benchmark):
    """ScoreCache ops with the race detector off — the zero-overhead claim.

    The assertion pins the claim structurally: an untracked instance has
    its pristine class, so no ``__getattribute__`` hook is on the path.
    """
    from repro.serve.cache import ScoreCache

    cache = ScoreCache(capacity=32)
    assert "__racecheck_tracked__" not in type(cache).__dict__
    benchmark(lambda: _cache_workload(cache))


def test_score_cache_racechecked(benchmark):
    """The same ScoreCache ops under lockset tracking.

    The delta against ``test_score_cache_untracked`` is the full cost of
    the race detector: per-access ``__getattribute__``/``__setattr__``
    interception plus the Eraser lockset intersection (stack capture
    disabled, as in ``make race-smoke``).
    """
    from repro.analysis.racecheck import RaceDetector
    from repro.serve.cache import ScoreCache

    cache = ScoreCache(capacity=32)
    with RaceDetector(capture_stacks=False) as detector:
        detector.track(cache)
        benchmark(lambda: _cache_workload(cache))
        assert detector.ok
