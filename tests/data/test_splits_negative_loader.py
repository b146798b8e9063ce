"""Unit tests for splitting, negative sampling, and batch loading."""

import numpy as np
import pytest

from repro.data import (
    InteractionTable,
    MixedBatchLoader,
    NegativeSampler,
    iterate_minibatches,
    split_interactions,
)


def dense_table(rows=10, cols=20, fill=60, seed=0):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < fill:
        pairs.add((int(rng.integers(rows)), int(rng.integers(cols))))
    return InteractionTable(rows, cols, sorted(pairs))


class TestSplit:
    def test_partition_is_exhaustive_and_disjoint(self):
        table = dense_table()
        split = split_interactions(table, rng=np.random.default_rng(0))
        total = sum(split.sizes)
        assert total == table.num_interactions
        seen = set()
        for part in (split.train, split.validation, split.test):
            for pair in map(tuple, part.pairs):
                assert pair not in seen
                seen.add(pair)

    def test_ratio_sizes(self):
        table = dense_table(fill=100)
        split = split_interactions(table, (0.6, 0.2, 0.2), np.random.default_rng(1))
        assert split.sizes == (60, 20, 20)

    def test_rounding_goes_to_train(self):
        table = dense_table(fill=7)
        split = split_interactions(table, (0.6, 0.2, 0.2), np.random.default_rng(2))
        assert sum(split.sizes) == 7
        assert split.sizes[0] >= 4

    def test_validation(self):
        table = dense_table()
        with pytest.raises(ValueError):
            split_interactions(table, (0.5, 0.5))
        with pytest.raises(ValueError):
            split_interactions(table, (0.5, 0.4, 0.3))
        with pytest.raises(ValueError):
            split_interactions(table, (1.2, -0.1, -0.1))

    def test_seeded_determinism(self):
        table = dense_table()
        a = split_interactions(table, rng=np.random.default_rng(5))
        b = split_interactions(table, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.test.pairs, b.test.pairs)


class TestNegativeSampler:
    def test_negatives_avoid_positives(self):
        table = InteractionTable(2, 5, [(0, 0), (0, 1), (0, 2), (1, 4)])
        sampler = NegativeSampler(table, rng=np.random.default_rng(0))
        for _ in range(20):
            negatives = sampler.sample_for_rows([0, 0, 1])
            assert all(n not in (0, 1, 2) for n in negatives[:2])
            assert negatives[2] != 4

    def test_triplets_structure(self):
        table = InteractionTable(3, 10, [(0, 1), (2, 5)])
        sampler = NegativeSampler(table, rng=np.random.default_rng(0))
        triplets = sampler.sample_triplets(table.pairs)
        assert triplets.shape == (2, 3)
        np.testing.assert_array_equal(triplets[:, :2], table.pairs)

    def test_labelled_pairs(self):
        table = InteractionTable(2, 10, [(0, 1), (1, 2)])
        sampler = NegativeSampler(table, rng=np.random.default_rng(0))
        labelled = sampler.labelled_pairs(table.pairs, negatives_per_positive=2)
        assert labelled.shape == (6, 3)
        assert (labelled[:2, 2] == 1).all()
        assert (labelled[2:, 2] == 0).all()

    def test_spent_budget_draws_from_complement(self):
        # A row with all but one item positive used to return a positive
        # once the rejection budget ran out (found by hypothesis).
        table = InteractionTable(1, 25, [(0, item) for item in range(25) if item != 7])
        sampler = NegativeSampler(table, rng=np.random.default_rng(3), max_resamples=0)
        assert sampler.sample_for_rows([0] * 50).tolist() == [7] * 50

    def test_row_with_all_items_positive_falls_back(self):
        table = InteractionTable(1, 3, [(0, 0), (0, 1), (0, 2)])
        sampler = NegativeSampler(table, rng=np.random.default_rng(0), max_resamples=5)
        negatives = sampler.sample_for_rows([0])
        assert negatives[0] in (0, 1, 2)  # fallback: cannot avoid


class TestLoader:
    def test_iterate_minibatches_covers_all(self):
        data = np.arange(10).reshape(10, 1)
        chunks = list(iterate_minibatches(data, 3, np.random.default_rng(0)))
        seen = np.sort(np.concatenate(chunks).ravel())
        np.testing.assert_array_equal(seen, np.arange(10))

    def test_epoch_covers_group_table(self):
        group = dense_table(rows=8, cols=15, fill=40, seed=1)
        user = dense_table(rows=20, cols=15, fill=80, seed=2)
        loader = MixedBatchLoader(group, user, batch_size=16, rng=np.random.default_rng(0))
        seen = []
        for batch in loader.epoch():
            assert batch.group_triplets.shape[1] == 3
            assert batch.user_pairs.shape[1] == 3
            seen.append(batch.group_triplets[:, :2])
        seen = np.concatenate(seen)
        assert len(seen) == group.num_interactions

    def test_user_pairs_present_proportionally(self):
        group = dense_table(rows=8, cols=15, fill=40, seed=1)
        user = dense_table(rows=20, cols=15, fill=80, seed=2)
        loader = MixedBatchLoader(group, user, batch_size=16, rng=np.random.default_rng(0))
        user_rows = sum(len(b.user_pairs) for b in loader.epoch())
        # positives + 1 negative each = 2x the user table.
        assert user_rows == pytest.approx(2 * user.num_interactions, rel=0.35)

    def test_num_batches(self):
        group = dense_table(rows=8, cols=15, fill=40, seed=1)
        user = dense_table(rows=20, cols=15, fill=80, seed=2)
        loader = MixedBatchLoader(group, user, batch_size=16)
        assert loader.num_batches() == int(np.ceil(40 / 16))

    def test_empty_group_table_rejected(self):
        user = dense_table()
        with pytest.raises(ValueError):
            MixedBatchLoader(InteractionTable(2, 2, []), user)

    def test_bad_batch_size(self):
        group = dense_table()
        with pytest.raises(ValueError):
            MixedBatchLoader(group, group, batch_size=0)

    def test_group_negative_not_a_group_positive(self):
        group = dense_table(rows=8, cols=15, fill=40, seed=1)
        user = dense_table(rows=20, cols=15, fill=80, seed=2)
        loader = MixedBatchLoader(group, user, batch_size=8, rng=np.random.default_rng(3))
        for batch in loader.epoch():
            for g, pos, neg in batch.group_triplets:
                assert (int(g), int(neg)) not in group
                assert (int(g), int(pos)) in group
