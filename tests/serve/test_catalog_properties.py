"""Differential property test: catalog scoring vs the pair path.

Hypothesis draws tiny worlds — a hand-made knowledge graph whose
entities may have fewer KG neighbors than K (or none), catalogs as
small as one item, groups of two or three — and model configs across
the engine's supported matrix with the KG on (``use_kg=False`` skips
propagation; ``tests/core/test_fused_training.py`` covers it), then
checks that
:meth:`RankingEngine.score_matrix` (shared receptive fields, either
layer-0 order, one- or multi-group blocks) equals
:meth:`RankingEngine.score_pairs` over the explicit cross product, with
the same stable top-5.  Top-5 lists may differ only by swapping items
whose scores tie to round-off: items with mirror-image receptive fields
score equal in exact arithmetic, and the two paths break such ties by
different last-bit noise (pinned below).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import KGAG, KGAGConfig
from repro.data.groups import GroupSet
from repro.kg.graph import KnowledgeGraph
from repro.serve import RankingEngine


@st.composite
def worlds(draw):
    num_items = draw(st.integers(1, 7))
    num_entities = num_items + draw(st.integers(0, 4))
    num_relations = draw(st.integers(1, 3))
    entity = st.integers(0, num_entities - 1)
    triples = draw(
        st.lists(
            st.tuples(entity, st.integers(0, num_relations - 1), entity), max_size=12
        )
    )
    kg = KnowledgeGraph(num_entities, num_relations, triples)

    size = draw(st.integers(2, 3))
    num_users = size + draw(st.integers(0, 3))
    num_groups = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    members = np.stack(
        [rng.choice(num_users, size, replace=False) for _ in range(num_groups)]
    )
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1)),
            max_size=10,
        )
    )
    return kg, num_users, num_items, GroupSet(members, num_users), np.array(pairs)


configs = st.builds(
    KGAGConfig,
    embedding_dim=st.integers(2, 6),
    num_layers=st.integers(1, 2),
    num_neighbors=st.integers(1, 5),
    aggregator=st.sampled_from(["gcn", "graphsage"]),
    use_sp=st.booleans(),
    use_pi=st.booleans(),
    pi_pooling=st.sampled_from(["concat", "mean"]),
    uniform_neighbor_weights=st.booleans(),
    seed=st.integers(0, 2**16),
)


def assert_same_top5(matrix, pair_scores):
    """Same stable top-5 as the pair path, up to round-off ties."""
    ours = np.argsort(-matrix, axis=1, kind="stable")[:, :5]
    theirs = np.argsort(-pair_scores, axis=1, kind="stable")[:, :5]
    rows = np.arange(len(matrix))[:, None]
    # Where the lists differ, the swapped items must tie in the pair
    # path itself; anything wider is a real ranking difference.
    np.testing.assert_allclose(
        pair_scores[rows, ours], pair_scores[rows, theirs], atol=1e-12, rtol=0
    )


def catalog_and_pair_scores(world, config, chunk_size):
    kg, num_users, num_items, groups, pairs = world
    model = KGAG(kg, num_users, num_items, pairs.reshape(-1, 2), groups, config)
    engine = RankingEngine.from_model(model, chunk_size=chunk_size)
    group_ids = np.arange(groups.num_groups)
    matrix = engine.score_matrix(group_ids)
    pair_scores = engine.score_pairs(
        np.repeat(group_ids, num_items), np.tile(np.arange(num_items), len(group_ids))
    ).reshape(len(group_ids), num_items)
    return matrix, pair_scores


# derandomize: tier-1 replays the same 60 worlds on every run; widen the
# search locally by raising max_examples.
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(world=worlds(), config=configs, chunk_size=st.integers(1, 40))
def test_score_matrix_matches_pair_path(world, config, chunk_size):
    matrix, pair_scores = catalog_and_pair_scores(world, config, chunk_size)
    np.testing.assert_allclose(matrix, pair_scores, atol=1e-9, rtol=0)
    assert_same_top5(matrix, pair_scores)


def test_mirror_items_tie_up_to_round_off():
    # Found by the property above: items 0 and 2 are each other's only
    # KG neighbor and the members are isolated, so the two items score
    # equal in exact arithmetic.  The pair path scores them in chunks
    # of different shapes and lands 2e-19 apart; stable top-5 then
    # breaks the tie differently from the catalog path.
    kg = KnowledgeGraph(3, 1, [(0, 0, 2)])
    groups = GroupSet([[0, 1]], num_users=2)
    config = KGAGConfig(
        embedding_dim=2, num_layers=1, num_neighbors=1, use_sp=False, use_pi=False, seed=72
    )
    world = (kg, 2, 3, groups, np.zeros((0, 2), dtype=np.int64))
    matrix, pair_scores = catalog_and_pair_scores(world, config, chunk_size=2)
    np.testing.assert_allclose(matrix, pair_scores, atol=1e-9, rtol=0)
    assert abs(pair_scores[0, 0] - pair_scores[0, 2]) < 1e-15
    assert_same_top5(matrix, pair_scores)


@st.composite
def crowded_worlds(draw):
    """A :func:`worlds` world re-grouped into 2-12 groups over its <= 6
    users, so most users fill several group slots."""
    kg, num_users, num_items, groups, pairs = draw(worlds())
    size = groups.members.shape[1]
    num_groups = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    members = np.stack(
        [rng.choice(num_users, size, replace=False) for _ in range(num_groups)]
    )
    return kg, num_users, num_items, GroupSet(members, num_users), pairs


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(world=crowded_worlds(), config=configs, chunk_size=st.integers(1, 40))
def test_shared_member_matrix_matches_pairs_and_single_groups(world, config, chunk_size):
    # Item-major scoring propagates each distinct user once per item
    # chunk and gathers its vectors into every group slot it fills;
    # chunk_size 1-40 covers chunks of one item and calls with more
    # groups than chunk_size.
    matrix, pair_scores = catalog_and_pair_scores(world, config, chunk_size)
    np.testing.assert_allclose(matrix, pair_scores, atol=1e-9, rtol=0)
    assert_same_top5(matrix, pair_scores)

    kg, num_users, num_items, groups, pairs = world
    model = KGAG(kg, num_users, num_items, pairs.reshape(-1, 2), groups, config)
    engine = RankingEngine.from_model(model, chunk_size=chunk_size)
    single = np.vstack(
        [engine.score_matrix([group]) for group in range(groups.num_groups)]
    )
    np.testing.assert_allclose(matrix, single, atol=1e-9, rtol=0)
    assert_same_top5(matrix, single)


def test_each_distinct_member_propagates_once_per_item_chunk(monkeypatch):
    import repro.serve.engine as engine_module

    kg = KnowledgeGraph(9, 2, [(0, 0, 1), (1, 1, 2), (3, 0, 7), (5, 1, 6), (8, 0, 4)])
    members = np.array([[0, 1, 2], [1, 2, 3], [0, 3, 4], [2, 4, 0], [1, 2, 3]])
    groups = GroupSet(members, num_users=6)  # user 5 is in no group
    config = KGAGConfig(embedding_dim=4, num_layers=2, num_neighbors=2, seed=3)
    model = KGAG(kg, 6, 7, np.array([[0, 1], [3, 4], [4, 6]]), groups, config)
    engine = RankingEngine.from_model(model, chunk_size=10)  # chunks of 10 // 5 = 2 items
    offset = engine.index.user_entity_offset

    member_seeds, item_seeds = [], []
    inner = engine_module._catalog_propagate

    def counting(index, seed_rows, queries):
        (member_seeds if seed_rows.min() >= offset else item_seeds).append(seed_rows)
        return inner(index, seed_rows, queries)

    monkeypatch.setattr(engine_module, "_catalog_propagate", counting)
    engine.score_matrix(np.arange(5))
    assert len(member_seeds) == len(item_seeds) == 4  # ceil(7 / 2) item chunks
    for seeds in member_seeds:  # users 0-4 once each, not the 15 slots
        np.testing.assert_array_equal(np.sort(seeds.reshape(-1)), offset + np.arange(5))
    assert [len(seeds) for seeds in item_seeds] == [2, 2, 2, 1]

    member_seeds.clear()
    engine.score_matrix([1])  # one group: its own (distinct) members, as given
    assert len(member_seeds) == 1
    np.testing.assert_array_equal(member_seeds[0].reshape(-1), offset + members[1])
