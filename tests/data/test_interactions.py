"""Unit tests for interaction and ratings tables."""

import numpy as np
import pytest

from repro.data import InteractionTable, RatingsTable


class TestInteractionTable:
    def test_basic(self):
        table = InteractionTable(3, 4, [(0, 1), (2, 3)])
        assert table.num_interactions == 2
        assert (0, 1) in table
        assert (1, 1) not in table

    def test_empty(self):
        table = InteractionTable(3, 4, [])
        assert table.num_interactions == 0
        assert table.items_of(0).size == 0
        assert table.density() == 0.0

    def test_duplicates_removed(self):
        table = InteractionTable(2, 2, [(0, 0), (0, 0)])
        assert table.num_interactions == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            InteractionTable(0, 2, [])
        with pytest.raises(ValueError):
            InteractionTable(2, 2, [(2, 0)])
        with pytest.raises(ValueError):
            InteractionTable(2, 2, [(0, 2)])
        with pytest.raises(ValueError):
            InteractionTable(2, 2, np.zeros((1, 3)))

    def test_items_of_sorted(self):
        table = InteractionTable(2, 5, [(0, 3), (0, 1), (0, 4)])
        np.testing.assert_array_equal(table.items_of(0), [1, 3, 4])

    def test_rows_of(self):
        table = InteractionTable(4, 2, [(0, 1), (2, 1), (3, 0)])
        np.testing.assert_array_equal(table.rows_of(1), [0, 2])

    def test_row_counts(self):
        table = InteractionTable(3, 4, [(0, 0), (0, 1), (2, 3)])
        np.testing.assert_array_equal(table.row_counts(), [2, 0, 1])

    def test_density(self):
        table = InteractionTable(2, 2, [(0, 0), (1, 1)])
        assert table.density() == 0.5

    def test_to_dense(self):
        table = InteractionTable(2, 2, [(0, 1)])
        np.testing.assert_array_equal(table.to_dense(), [[0, 1], [0, 0]])

    def test_subset(self):
        table = InteractionTable(3, 3, [(0, 0), (1, 1), (2, 2)])
        sub = table.subset([0, 2])
        assert sub.num_interactions == 2
        assert (1, 1) not in sub

    def test_union(self):
        a = InteractionTable(2, 2, [(0, 0)])
        b = InteractionTable(2, 2, [(1, 1), (0, 0)])
        union = a.union(b)
        assert union.num_interactions == 2

    def test_union_shape_mismatch(self):
        with pytest.raises(ValueError):
            InteractionTable(2, 2, []).union(InteractionTable(3, 2, []))


class TestRatingsTable:
    def make(self):
        return RatingsTable(
            3, 4, users=[0, 0, 1, 2], items=[0, 1, 1, 3], values=[5.0, 2.0, 4.0, 3.0]
        )

    def test_basic(self):
        ratings = self.make()
        assert ratings.num_ratings == 4
        assert len(ratings) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RatingsTable(2, 2, [0], [0], [6.0])  # rating > 5
        with pytest.raises(ValueError):
            RatingsTable(2, 2, [0], [0], [0.5])  # rating < 1
        with pytest.raises(ValueError):
            RatingsTable(2, 2, [2], [0], [3.0])  # user out of range
        with pytest.raises(ValueError):
            RatingsTable(2, 2, [0, 1], [0], [3.0])  # misaligned
        with pytest.raises(ValueError):
            RatingsTable(0, 2, [], [], [])

    def test_to_dense_nan_fill(self):
        dense = self.make().to_dense()
        assert dense[0, 0] == 5.0
        assert np.isnan(dense[0, 2])

    def test_to_dense_custom_fill(self):
        dense = self.make().to_dense(fill=0.0)
        assert dense[0, 2] == 0.0

    def test_implicit_positives_default_threshold(self):
        positives = self.make().implicit_positives()
        assert (0, 0) in positives  # rated 5
        assert (1, 1) in positives  # rated 4
        assert (0, 1) not in positives  # rated 2
        assert (2, 3) not in positives  # rated 3

    def test_implicit_positives_custom_threshold(self):
        positives = self.make().implicit_positives(threshold=3.0)
        assert (2, 3) in positives

    def test_ratings_of(self):
        items, values = self.make().ratings_of(0)
        np.testing.assert_array_equal(items, [0, 1])
        np.testing.assert_array_equal(values, [5.0, 2.0])
