"""Property-based tests (hypothesis) for data-layer invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import GroupSet, InteractionTable, NegativeSampler, split_interactions
from repro.rng import generator_state


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


# ---------------------------------------------------------------------------
# Parity with the per-row dicts and sets the data layer used to build.  The
# oracles below are the former items_of index, negative sampler and group
# check, kept as the reference for the sorted-key implementation.
# ---------------------------------------------------------------------------


def _loop_items(pairs):
    """Row -> sorted items, as the lazy per-row table built it."""
    index = {}
    for r, c in pairs:
        index.setdefault(int(r), []).append(int(c))
    return {r: np.array(sorted(cs), dtype=np.int64) for r, cs in index.items()}


class _LoopNegativeSampler:
    """The dict-of-sets rejection sampler, draw for draw."""

    def __init__(self, table, rng, max_resamples):
        self.num_items = table.num_cols
        self.rng = rng
        self.max_resamples = max_resamples
        self._positives = {
            int(row): set(table.items_of(row).tolist())
            for row in np.unique(table.pairs[:, 0])
        } if table.num_interactions else {}

    def sample_for_rows(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        negatives = self.rng.integers(0, self.num_items, size=len(rows))
        for attempt in range(self.max_resamples):
            collisions = np.array(
                [
                    item in self._positives.get(int(row), ())
                    for row, item in zip(rows, negatives)
                ]
            )
            if not collisions.any():
                break
            negatives[collisions] = self.rng.integers(
                0, self.num_items, size=int(collisions.sum())
            )
        else:
            for position, (row, item) in enumerate(zip(rows, negatives)):
                positives = self._positives.get(int(row), ())
                if item in positives and len(positives) < self.num_items:
                    free = np.setdiff1d(np.arange(self.num_items), list(positives))
                    negatives[position] = free[self.rng.integers(len(free))]
        return negatives


@st.composite
def raw_pairs(draw):
    """Pairs with duplicates, absent rows and (often) completely full rows."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    pairs = draw(st.lists(pair, max_size=40))
    full_rows = draw(st.lists(st.integers(0, rows - 1), max_size=2))
    pairs += [(row, col) for row in full_rows for col in range(cols)]
    return rows, cols, pairs


@settings(max_examples=120, deadline=None, derandomize=True)
@given(raw_pairs())
def test_table_matches_the_per_row_index(spec):
    rows, cols, pairs = spec
    table = InteractionTable(rows, cols, pairs)
    expected = np.unique(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=0)
    assert table.pairs.dtype == np.int64
    assert table.pairs.shape == expected.shape
    np.testing.assert_array_equal(table.pairs, expected)
    index = _loop_items(expected)
    for row in range(-2, rows + 2):
        items = table.items_of(row)
        expected_items = index.get(row, np.zeros(0, dtype=np.int64))
        assert items.dtype == np.int64
        np.testing.assert_array_equal(items, expected_items)
        for col in range(-1, cols + 1):
            assert ((row, col) in table) == (col in set(expected_items.tolist()))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(raw_pairs(), st.integers(0, 10_000), st.sampled_from([0, 1, 2, 100]))
def test_negative_draws_match_the_dict_of_sets_sampler(spec, seed, max_resamples):
    """Same seed, same draws: including rows whose budget runs out and
    rows where every item is positive (uniform fallback)."""
    rows, cols, pairs = spec
    table = InteractionTable(rows, cols, pairs)
    sampler = NegativeSampler(
        table, rng=np.random.default_rng(seed), max_resamples=max_resamples
    )
    oracle = _LoopNegativeSampler(table, np.random.default_rng(seed), max_resamples)
    query_rng = np.random.default_rng(seed + 1)
    for size in (0, 1, 7, 33):
        queried = query_rng.integers(0, rows, size=size)
        np.testing.assert_array_equal(
            sampler.sample_for_rows(queried), oracle.sample_for_rows(queried)
        )
    assert sampler.rng_state() == generator_state(oracle.rng)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.integers(0, 6),
    st.integers(2, 5),
    st.integers(2, 9),
    st.integers(0, 10_000),
)
def test_group_set_rejects_exactly_what_the_per_row_check_rejected(
    num_groups, group_size, num_users, seed
):
    members = np.random.default_rng(seed).integers(
        0, num_users, size=(num_groups, group_size)
    )
    rejected_by_rows = any(len(np.unique(row)) != len(row) for row in members)
    try:
        GroupSet(members, num_users)
    except ValueError as error:
        assert rejected_by_rows
        assert "distinct" in str(error)
    else:
        assert not rejected_by_rows
