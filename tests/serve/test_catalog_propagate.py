"""Catalog propagation: both layer-0 orders against the pair path.

``_catalog_propagate`` runs its first aggregation layer projection-first
(GEMM over the K neighbor rows, then mix) when the catalog axis Q
exceeds K, and mix-first otherwise.  Both orders must equal
:func:`propagate` over the explicit ``M x S x Q`` cross product to
round-off, for every aggregator, weighting and depth.  Also pins the
live-view versioning that keeps a shared score cache coherent across
training.
"""

import numpy as np
import pytest

from repro.core import KGAG, KGAGConfig, KGAGTrainer
from repro.serve import RankingEngine, ScoreCache
from repro.serve.engine import LiveModelIndex, _catalog_propagate, propagate

K = 3
_INDEXES: dict = {}


def build_model(dataset, **overrides):
    base = {"embedding_dim": 8, "num_layers": 2, "num_neighbors": K, "seed": 11}
    config = KGAGConfig(**{**base, **overrides})
    return KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )


def live_index(dataset, aggregator, uniform, num_layers):
    key = (aggregator, uniform, num_layers)
    if key not in _INDEXES:
        model = build_model(
            dataset,
            aggregator=aggregator,
            uniform_neighbor_weights=uniform,
            num_layers=num_layers,
        )
        index = LiveModelIndex(model)
        # Uniform weights precompute entity_final; drop it so propagate
        # runs the layers instead of gathering their cached output.
        index.entity_final = None
        _INDEXES[key] = index
    return _INDEXES[key]


def seed_rows(index, side):
    if side == "members":  # (M=2 groups, S members)
        return index.user_entity_offset + index.group_members[:2]
    return index.item_entities[:5].reshape(-1, 1)  # (M=5 items, S=1)


@pytest.mark.parametrize("side", ["members", "items"])
@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("uniform", [False, True], ids=["attentive", "uniform"])
@pytest.mark.parametrize("aggregator", ["gcn", "graphsage"])
@pytest.mark.parametrize("q_rows", [1, K, K + 1], ids=["Q=1", "Q=K", "Q=K+1"])
def test_matches_propagate_over_cross_product(
    dataset, q_rows, aggregator, uniform, num_layers, side
):
    index = live_index(dataset, aggregator, uniform, num_layers)
    seeds = seed_rows(index, side)
    rng = np.random.default_rng(q_rows)
    queries = rng.normal(size=(q_rows, index.dim))
    table = index.entity_embeddings.copy()

    got = _catalog_propagate(index, seeds, queries)

    m_rows, size = seeds.shape
    flat_seeds = np.broadcast_to(seeds[:, :, None], (m_rows, size, q_rows))
    flat_queries = np.broadcast_to(queries, (m_rows, size, q_rows, index.dim))
    expected = propagate(
        index, flat_seeds.reshape(-1), flat_queries.reshape(-1, index.dim)
    ).reshape(m_rows, size, q_rows, index.dim)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
    # The in-place epilogues write only to scratch buffers.
    np.testing.assert_array_equal(index.entity_embeddings, table)


def test_live_views_get_fresh_versions(model):
    assert LiveModelIndex(model).version != LiveModelIndex(model).version


def test_cached_engine_sees_trained_weights(dataset, split):
    model = build_model(dataset, num_layers=1, batch_size=64, seed=5)
    trainer = KGAGTrainer(model, split.train, dataset.user_item)
    cache = ScoreCache()
    before = RankingEngine.from_model(model, cache=cache).scores_for_group(0).copy()
    trainer.train_epoch()
    after = RankingEngine.from_model(model, cache=cache).scores_for_group(0)
    fresh = RankingEngine.from_model(model).scores_for_group(0)
    assert not np.allclose(after, before)
    np.testing.assert_array_equal(after, fresh)
