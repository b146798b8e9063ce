"""Serving-path benchmarks: indexed engine vs naive per-request model path.

Three questions, answered with numbers:

1. How much faster is one ``top_k`` answer through the frozen
   :class:`~repro.serve.index.EmbeddingIndex` + tape-free
   :class:`~repro.serve.engine.RankingEngine` than scoring the catalog
   through the full autograd model (``KGAG.group_item_scores``)?
2. What does the score cache buy on a skewed (Zipf-like) request
   stream — the realistic serving workload?
3. What are the end-to-end service latency percentiles (p50/p95)
   through :class:`~repro.serve.server.RecommendationService`,
   including cache, batching bookkeeping and the resilience wrapper?

The p50/p95 numbers for (3) are stored in ``extra_info`` so
``--benchmark-json`` output records them alongside the timing stats.
"""

import numpy as np
import pytest

from repro.core import KGAG, KGAGConfig
from repro.data import MovieLensLikeConfig, movielens_like, split_interactions
from repro.eval import score_all_items
from repro.nn import no_grad
from repro.serve import (
    RankingEngine,
    RecommendationService,
    ScoreCache,
    build_index,
)


@pytest.fixture(scope="module")
def dataset():
    return movielens_like(
        "rand",
        MovieLensLikeConfig(num_users=120, num_items=200, num_groups=30, seed=0),
    )


@pytest.fixture(scope="module")
def split(dataset):
    return split_interactions(dataset.group_item, rng=np.random.default_rng(0))


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


@pytest.fixture(scope="module")
def index(model, dataset, split):
    return build_index(
        model, train_interactions=split.train, user_interactions=dataset.user_item
    )


@pytest.fixture(scope="module")
def skewed_groups(dataset):
    # Zipf-ish skew: a few hot groups dominate, like real serving traffic.
    rng = np.random.default_rng(7)
    raw = rng.zipf(1.5, size=400)
    return ((raw - 1) % dataset.groups.num_groups).astype(np.int64)


def test_naive_model_top_k(benchmark, model, split):
    def tape_top_k(group, k):
        model.eval()
        with no_grad():
            scores = score_all_items(
                lambda g, v: model.group_item_scores(g, v).numpy(),
                np.array([group]),
                model.num_items,
            )[group]
        return RankingEngine.rank(scores, split.train.items_of(group), k)

    benchmark(tape_top_k, 3, 10)


def test_indexed_engine_top_k(benchmark, index):
    engine = RankingEngine(index)
    benchmark(engine.top_k, 3, 10)


def test_indexed_engine_top_k_cached(benchmark, index):
    engine = RankingEngine(index, cache=ScoreCache(64))
    engine.top_k(3, 10)  # warm the cache: steady-state hot-group latency
    benchmark(engine.top_k, 3, 10)


def test_skewed_stream_no_cache(benchmark, index, skewed_groups):
    engine = RankingEngine(index)

    def stream():
        for group in skewed_groups:
            engine.top_k(int(group), 10)

    benchmark.pedantic(stream, iterations=1, rounds=3)


def test_skewed_stream_with_cache(benchmark, index, skewed_groups):
    def stream():
        cache = ScoreCache(64)
        engine = RankingEngine(index, cache=cache)
        for group in skewed_groups:
            engine.top_k(int(group), 10)
        return cache.stats()

    stats = benchmark.pedantic(stream, iterations=1, rounds=3)
    benchmark.extra_info["cache_hit_rate"] = round(stats.hit_rate, 4)
    assert stats.hit_rate > 0.5  # the skewed stream must actually hit


def test_service_latency_percentiles(benchmark, index, skewed_groups):
    def serve_stream():
        service = RecommendationService(index, deadline_ms=None)
        try:
            for group in skewed_groups:
                service.recommend(int(group), k=10)
            return service.stats()
        finally:
            service.close()

    stats = benchmark.pedantic(serve_stream, iterations=1, rounds=3)
    benchmark.extra_info["latency_ms"] = stats["latency_ms"]
    benchmark.extra_info["cache_hit_rate"] = stats["cache"]["hit_rate"]
    assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"]
