"""Property-based tests (hypothesis) for knowledge-graph invariants."""

import tracemalloc
from collections import defaultdict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kg import KnowledgeGraph, NeighborSampler, Triple, random_kg

# Allocation bound for building a KnowledgeGraph from an int64 array
# (test_build_memory_stays_near_the_triple_array): ~1.8x the measured
# 56 B/triple, far below a per-triple Python adjacency (~430 B/triple).
MAX_BUILD_BYTES_PER_TRIPLE = 100


@st.composite
def graphs(draw):
    num_entities = draw(st.integers(2, 20))
    num_relations = draw(st.integers(1, 4))
    num_triples = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    heads = rng.integers(0, num_entities, num_triples)
    relations = rng.integers(0, num_relations, num_triples)
    tails = rng.integers(0, num_entities, num_triples)
    triples = list(zip(heads.tolist(), relations.tolist(), tails.tolist()))
    return KnowledgeGraph(num_entities, num_relations, triples)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_triples_are_unique(kg):
    if kg.num_triples:
        assert len(np.unique(kg.triples, axis=0)) == kg.num_triples


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_bidirectional_adjacency_is_symmetric(kg):
    """If t is a neighbor of h, then h is a neighbor of t."""
    for head, _, tail in kg.triples:
        assert any(n == head for _, n in kg.neighbors(int(tail)))
        assert any(n == tail for _, n in kg.neighbors(int(head)))


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_degree_sum_counts_each_edge_twice(kg):
    """Bidirectional adjacency: every non-self-loop triple adds 2 degree."""
    self_loops = int((kg.triples[:, 0] == kg.triples[:, 2]).sum()) if kg.num_triples else 0
    expected = 2 * (kg.num_triples - self_loops) + self_loops
    assert kg.degrees().sum() == expected


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_merge_with_self_is_identity(kg):
    merged = kg.merge(kg)
    np.testing.assert_array_equal(merged.triples, kg.triples)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_bfs_distances_satisfy_triangle_steps(kg):
    """BFS distance increases by at most one per hop from any neighbor."""
    if kg.num_entities == 0:
        return
    distances = kg.bfs_distances(0)
    for entity, distance in distances.items():
        for _, neighbor in kg.neighbors(entity):
            if neighbor in distances:
                assert abs(distances[neighbor] - distance) <= 1


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(1, 5), st.integers(0, 1000))
def test_sampler_outputs_in_range(kg, k, seed):
    sampler = NeighborSampler(kg, k, rng=np.random.default_rng(seed))
    entities = np.arange(kg.num_entities)
    neighbor_entities, neighbor_relations = sampler.sampled_neighbors(entities)
    assert neighbor_entities.shape == (kg.num_entities, k)
    assert (neighbor_entities >= 0).all()
    assert (neighbor_entities < kg.num_entities).all()
    assert (neighbor_relations >= 0).all()
    assert (neighbor_relations < sampler.num_relation_slots).all()


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(1, 3), st.integers(0, 2), st.integers(0, 1000))
def test_receptive_field_shapes(kg, k, depth, seed):
    sampler = NeighborSampler(kg, k, rng=np.random.default_rng(seed))
    batch = min(3, kg.num_entities)
    seeds = np.arange(batch)
    field = sampler.receptive_field(seeds, depth)
    assert field.depth == depth
    for hop in range(depth + 1):
        assert field.entities[hop].shape == ((batch,) if hop == 0 else (batch, k**hop))


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(1, 4))
def test_sampled_neighbors_are_real_neighbors_or_self_loops(kg, k):
    sampler = NeighborSampler(kg, k, rng=np.random.default_rng(0))
    for entity in range(kg.num_entities):
        edges = set(kg.neighbors(entity))
        sampled_e, sampled_r = sampler.sampled_neighbors(np.array([entity]))
        for relation, neighbor in zip(sampled_r[0], sampled_e[0]):
            if edges:
                assert (int(relation), int(neighbor)) in edges
            else:
                assert neighbor == entity
                assert relation == sampler.self_relation


def test_random_kg_respects_bounds():
    kg = random_kg(10, 2, 50, rng=np.random.default_rng(0))
    assert kg.triples[:, 0].max() < 10
    assert kg.triples[:, 1].max() < 2


# ---------------------------------------------------------------------------
# Parity with the per-triple loops the store used to run.  The oracles
# below are the former constructor, adjacency and degree code, kept
# verbatim as the reference for the array implementation.
# ---------------------------------------------------------------------------


def _loop_graph(triples, bidirectional):
    """``(unique triples, adjacency dict)`` as the per-triple loops built them."""
    rows = []
    for triple in triples:
        if isinstance(triple, Triple):
            head, relation, tail = triple.head, triple.relation, triple.tail
        else:
            head, relation, tail = triple
        rows.append((int(head), int(relation), int(tail)))
    if rows:
        array = np.array(rows, dtype=np.int64)
    else:
        array = np.zeros((0, 3), dtype=np.int64)
    unique = np.unique(array, axis=0) if len(array) else array
    adjacency = defaultdict(list)
    for head, relation, tail in unique:
        adjacency[int(head)].append((int(relation), int(tail)))
        if bidirectional and head != tail:
            adjacency[int(tail)].append((int(relation), int(head)))
    return unique, {k: tuple(v) for k, v in adjacency.items()}


def _loop_degrees(adjacency, num_entities):
    out = np.zeros(num_entities, dtype=np.int64)
    for entity, edges in adjacency.items():
        out[entity] = len(edges)
    return out


def _loop_bfs(adjacency, source, max_hops=None):
    distances = {int(source): 0}
    frontier = [int(source)]
    hops = 0
    while frontier and (max_hops is None or hops < max_hops):
        hops += 1
        next_frontier = []
        for entity in frontier:
            for _, neighbor in adjacency.get(entity, ()):
                if neighbor not in distances:
                    distances[neighbor] = hops
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances


INPUT_FORMS = ("array", "list", "generator", "triples")


def _as_form(rows, form):
    if form == "array":
        return np.array(rows, dtype=np.int64).reshape(-1, 3)
    if form == "list":
        return list(rows)
    if form == "generator":
        return (row for row in rows)
    return [Triple(*row) for row in rows]


@st.composite
def triple_lists(draw):
    """Small vocabularies, so duplicates and self-loops are common."""
    num_entities = draw(st.integers(1, 8))
    num_relations = draw(st.integers(1, 3))
    triple = st.tuples(
        st.integers(0, num_entities - 1),
        st.integers(0, num_relations - 1),
        st.integers(0, num_entities - 1),
    )
    rows = draw(st.lists(triple, max_size=30))
    return num_entities, num_relations, rows


@settings(max_examples=120, deadline=None, derandomize=True)
@given(triple_lists(), st.sampled_from(INPUT_FORMS), st.booleans())
def test_store_matches_the_per_triple_loops(spec, form, bidirectional):
    num_entities, num_relations, rows = spec
    kg = KnowledgeGraph(
        num_entities, num_relations, _as_form(rows, form), bidirectional=bidirectional
    )
    unique, adjacency = _loop_graph(rows, bidirectional)
    assert kg.triples.dtype == np.int64
    np.testing.assert_array_equal(kg.triples, unique)
    assert kg.triples.shape == unique.shape
    for entity in range(-1, num_entities + 1):
        assert kg.neighbors(entity) == adjacency.get(entity, ())
        assert kg.degree(entity) == len(adjacency.get(entity, ()))
    expected = _loop_degrees(adjacency, num_entities)
    assert kg.degrees().dtype == np.int64
    np.testing.assert_array_equal(kg.degrees(), expected)
    described = kg.describe()
    assert described["mean_degree"] == float(expected.mean())
    assert described["max_degree"] == int(expected.max())
    assert described["isolated_entities"] == int((expected == 0).sum())
    for source in range(num_entities):
        assert kg.bfs_distances(source) == _loop_bfs(adjacency, source)
        assert kg.bfs_distances(source, max_hops=1) == _loop_bfs(adjacency, source, 1)


def test_store_past_the_int64_key_range_matches_the_loops():
    """(h·R + r)·E + t overflows int64 here, so the store takes the
    ``np.unique(axis=0)`` path; triples and neighborhoods must not change."""
    num_entities = 3_000_000_000
    rows = [(2_999_999_999, 1, 5), (5, 0, 2_999_999_999), (5, 0, 2_999_999_999), (7, 1, 7)]
    kg = KnowledgeGraph(num_entities, 2, rows)
    unique, adjacency = _loop_graph(rows, True)
    np.testing.assert_array_equal(kg.triples, unique)
    for entity in (5, 7, 2_999_999_999, 0):
        assert kg.neighbors(entity) == adjacency.get(entity, ())


def test_build_memory_stays_near_the_triple_array():
    """A 50k-triple int64 array builds with a bounded allocation peak.

    The store keeps the (n, 3) int64 triples (24 B each) and builds them
    through one sorted int64 key per triple; it measures ~56 B/triple.
    A per-triple Python adjacency measured ~360-650 B/triple.
    """
    num_triples = 50_000
    rng = np.random.default_rng(0)
    array = np.stack(
        [
            rng.integers(0, 10_000, num_triples),
            rng.integers(0, 8, num_triples),
            rng.integers(0, 10_000, num_triples),
        ],
        axis=1,
    )
    tracemalloc.start()
    try:
        kg = KnowledgeGraph(10_000, 8, array)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kg.num_triples > 0.99 * num_triples
    assert peak / num_triples < MAX_BUILD_BYTES_PER_TRIPLE
