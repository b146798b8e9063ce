"""Interaction tables: the Y^U and Y^G matrices of Sec. III-A.

Implicit-feedback interactions are stored sparsely as ``(row, col)`` pairs
(a user-item or group-item edge list).  Explicit 1-5 star ratings — which
the group-construction protocol needs — live in :class:`RatingsTable`.
"""

from __future__ import annotations

import numpy as np

from ..kg.graph import row_keys, unique_rows

__all__ = ["InteractionTable", "RatingsTable"]


class InteractionTable:
    """Sparse binary interaction matrix as an edge list.

    Parameters
    ----------
    num_rows, num_cols:
        Matrix dimensions (users x items, or groups x items).
    pairs:
        ``(n, 2)`` array-like of ``(row, col)`` indices with implicit
        feedback ``y = 1``.  Duplicates are removed.

    The table keeps the sorted pairs and their sorted int64 keys
    ``row * num_cols + col`` (:func:`~repro.kg.graph.row_keys`); per-row
    lookups and membership tests binary-search those keys instead of
    building per-row dicts or sets.
    """

    def __init__(self, num_rows: int, num_cols: int, pairs):
        if num_rows <= 0 or num_cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        array = np.asarray(pairs, dtype=np.int64)
        if array.size == 0:
            array = np.zeros((0, 2), dtype=np.int64)
        if array.ndim != 2 or array.shape[1] != 2:
            raise ValueError("pairs must have shape (n, 2)")
        if len(array):
            if array[:, 0].min() < 0 or array[:, 0].max() >= num_rows:
                raise ValueError("row index out of range")
            if array[:, 1].min() < 0 or array[:, 1].max() >= num_cols:
                raise ValueError("col index out of range")
        self._pairs, self._keys = unique_rows(array, (self.num_rows, self.num_cols))
        if self._keys is None:
            raise ValueError("num_rows * num_cols exceeds the int64 key range")

    # -- views -----------------------------------------------------------
    @property
    def pairs(self) -> np.ndarray:
        """Deduplicated ``(n, 2)`` edge list, lexicographically sorted."""
        return self._pairs

    @property
    def num_interactions(self) -> int:
        return len(self._pairs)

    def __len__(self) -> int:
        return self.num_interactions

    def __contains__(self, pair) -> bool:
        return bool(self.contains([int(pair[0])], [int(pair[1])])[0])

    def contains(self, rows, cols) -> np.ndarray:
        """Boolean mask: is ``(rows[i], cols[i])`` a stored pair?

        Vectorized membership by binary search over the sorted pair keys;
        ids outside the table's shape are never members.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if not len(self._keys):
            return np.zeros(rows.shape, dtype=bool)
        inside = (rows >= 0) & (rows < self.num_rows)
        inside &= (cols >= 0) & (cols < self.num_cols)
        keys = row_keys((rows, cols), (self.num_rows, self.num_cols))
        positions = np.searchsorted(self._keys, keys)
        return inside & (self._keys.take(positions, mode="clip") == keys)

    def items_of(self, row: int) -> np.ndarray:
        """Columns interacted-with by ``row`` (a user's or group's items).

        A read-only, sorted view of the pairs' column at the row's
        offsets, found by binary search over the pair keys (the row's
        keys span ``[row * num_cols, (row + 1) * num_cols)``); rows with
        no pairs (or outside ``[0, num_rows)``) get an empty array.
        """
        row = int(row)
        if not 0 <= row < self.num_rows:
            return np.zeros(0, dtype=np.int64)
        start, stop = np.searchsorted(
            self._keys, (row * self.num_cols, (row + 1) * self.num_cols)
        )
        items = self._pairs[start:stop, 1]
        items.flags.writeable = False
        return items

    def rows_of(self, col: int) -> np.ndarray:
        """Rows that interacted with ``col``."""
        mask = self._pairs[:, 1] == int(col)
        return np.unique(self._pairs[mask, 0])

    def row_counts(self) -> np.ndarray:
        """Number of interactions per row."""
        counts = np.bincount(self._pairs[:, 0], minlength=self.num_rows)
        return counts.astype(np.int64, copy=False)

    def density(self) -> float:
        """Fraction of filled cells — the sparsity the paper battles."""
        return self.num_interactions / (self.num_rows * self.num_cols)

    # -- conversions -------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Dense 0/1 matrix (small datasets / tests only)."""
        matrix = np.zeros((self.num_rows, self.num_cols))
        if len(self._pairs):
            matrix[self._pairs[:, 0], self._pairs[:, 1]] = 1.0
        return matrix

    # -- manipulation ----------------------------------------------------
    def subset(self, pair_indices) -> "InteractionTable":
        """New table containing only the chosen pair rows."""
        return InteractionTable(
            self.num_rows, self.num_cols, self._pairs[np.asarray(pair_indices)]
        )

    def union(self, other: "InteractionTable") -> "InteractionTable":
        """Union of two tables with identical dimensions."""
        if (self.num_rows, self.num_cols) != (other.num_rows, other.num_cols):
            raise ValueError("cannot union tables of different shapes")
        return InteractionTable(
            self.num_rows,
            self.num_cols,
            np.concatenate([self._pairs, other._pairs], axis=0),
        )


class RatingsTable:
    """Explicit star ratings on a 1-5 scale (MovieLens-style).

    Stored as parallel arrays ``(users, items, values)``.  Provides the
    derived views the reproduction pipeline needs: a dense matrix with NaN
    for missing entries (for Pearson similarity) and thresholded implicit
    feedback (rating >= 4 counts as positive, per Sec. IV-B).
    """

    POSITIVE_THRESHOLD = 4.0

    def __init__(self, num_users: int, num_items: int, users, items, values):
        if num_users <= 0 or num_items <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(users) == len(items) == len(values)):
            raise ValueError("users/items/values must align")
        if len(users):
            if users.min() < 0 or users.max() >= num_users:
                raise ValueError("user index out of range")
            if items.min() < 0 or items.max() >= num_items:
                raise ValueError("item index out of range")
            if values.min() < 1.0 or values.max() > 5.0:
                raise ValueError("ratings must lie in [1, 5]")
        self.users = users
        self.items = items
        self.values = values

    @property
    def num_ratings(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return self.num_ratings

    def to_dense(self, fill=np.nan) -> np.ndarray:
        """Dense ratings matrix with ``fill`` in unrated cells.

        When the same (user, item) appears multiple times the last rating
        wins, matching "latest rating" semantics.
        """
        matrix = np.full((self.num_users, self.num_items), fill, dtype=np.float64)
        matrix[self.users, self.items] = self.values
        return matrix

    def implicit_positives(self, threshold: float | None = None) -> InteractionTable:
        """User-item pairs with rating >= threshold (default 4.0)."""
        threshold = self.POSITIVE_THRESHOLD if threshold is None else threshold
        keep = self.values >= threshold
        pairs = np.stack([self.users[keep], self.items[keep]], axis=1)
        return InteractionTable(self.num_users, self.num_items, pairs)

    def ratings_of(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """``(items, values)`` rated by ``user``."""
        mask = self.users == int(user)
        return self.items[mask], self.values[mask]
