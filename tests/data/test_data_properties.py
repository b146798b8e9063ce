"""Property-based tests (hypothesis) for data-layer invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import InteractionTable, NegativeSampler, split_interactions


@st.composite
def tables(draw):
    rows = draw(st.integers(2, 15))
    cols = draw(st.integers(3, 25))
    fill = draw(st.integers(1, min(40, rows * cols - 1)))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < fill:
        pairs.add((int(rng.integers(rows)), int(rng.integers(cols))))
    return InteractionTable(rows, cols, sorted(pairs))


@settings(max_examples=50, deadline=None)
@given(tables(), st.integers(0, 10_000))
def test_split_partitions_exactly(table, seed):
    split = split_interactions(table, rng=np.random.default_rng(seed))
    recombined = np.concatenate(
        [split.train.pairs, split.validation.pairs, split.test.pairs]
    )
    recombined = recombined[np.lexsort((recombined[:, 1], recombined[:, 0]))]
    np.testing.assert_array_equal(recombined, table.pairs)


@settings(max_examples=50, deadline=None)
@given(tables(), st.integers(0, 10_000))
def test_split_ratio_bounds(table, seed):
    split = split_interactions(table, rng=np.random.default_rng(seed))
    n = table.num_interactions
    train, validation, test = split.sizes
    assert validation == int(n * 0.2)
    assert test == int(n * 0.2)
    assert train == n - validation - test


@settings(max_examples=50, deadline=None)
@given(tables(), st.integers(0, 10_000))
def test_negative_sampler_respects_positives_when_possible(table, seed):
    sampler = NegativeSampler(table, rng=np.random.default_rng(seed))
    rows = table.pairs[:, 0]
    negatives = sampler.sample_for_rows(rows)
    for row, negative in zip(rows, negatives):
        positives = set(table.items_of(int(row)).tolist())
        if len(positives) < table.num_cols:
            assert int(negative) not in positives
        assert 0 <= negative < table.num_cols


@settings(max_examples=50, deadline=None)
@given(tables())
def test_row_counts_sum_to_interactions(table):
    assert table.row_counts().sum() == table.num_interactions


@settings(max_examples=50, deadline=None)
@given(tables())
def test_items_of_consistent_with_pairs(table):
    for row in range(table.num_rows):
        items = set(table.items_of(row).tolist())
        expected = {int(c) for r, c in table.pairs if r == row}
        assert items == expected


@settings(max_examples=50, deadline=None)
@given(tables(), st.integers(0, 10_000))
def test_triplet_positives_are_real(table, seed):
    sampler = NegativeSampler(table, rng=np.random.default_rng(seed))
    triplets = sampler.sample_triplets(table.pairs)
    for row, pos, neg in triplets:
        assert (int(row), int(pos)) in table
