"""Negative sampling for pairwise training.

The group margin loss (Eq. 17) consumes triplets ``(g, v_pos, v_neg)``
where ``v_neg`` was *not* selected by ``g``; the user log loss (Eq. 18)
consumes labelled pairs with sampled negatives.
"""

from __future__ import annotations

import numpy as np

from .interactions import InteractionTable
from ..rng import ensure_rng, generator_state, set_generator_state

__all__ = ["NegativeSampler"]


class NegativeSampler:
    """Uniform negative item sampler that avoids observed positives.

    Parameters
    ----------
    table:
        Observed positives (train split — evaluation positives must *not*
        be excluded, otherwise the sampler leaks test information).
    rng:
        Seeded generator.
    max_resamples:
        Rejection-sampling budget per draw.  Draws still colliding after
        it come from the row's complement; rows that have consumed the
        whole item vocabulary fall back to uniform sampling.

    Collisions are tested with :meth:`InteractionTable.contains`, a
    binary search over the table's sorted pair keys; the sampler keeps
    no per-row sets.
    """

    def __init__(
        self,
        table: InteractionTable,
        rng: np.random.Generator | None = None,
        max_resamples: int = 100,
    ):
        self.table = table
        self.num_items = table.num_cols
        self.rng = ensure_rng(rng)
        self.max_resamples = max_resamples

    def rng_state(self) -> dict:
        """JSON-serializable snapshot of the sampler's generator state."""
        return generator_state(self.rng)

    def set_rng_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`rng_state` (bit-exact resume)."""
        set_generator_state(self.rng, state)

    def sample_for_rows(self, rows) -> np.ndarray:
        """One negative item per row id (vectorized rejection sampling).

        Each attempt re-tests only the positions that collided last time
        (the others keep their draw), so the generator sees the same
        calls as a full re-test would make.
        """
        rows = np.asarray(rows, dtype=np.int64)
        negatives = self.rng.integers(0, self.num_items, size=len(rows))
        pending = np.arange(len(rows))
        for attempt in range(self.max_resamples):
            pending = pending[self.table.contains(rows[pending], negatives[pending])]
            if not len(pending):
                break
            negatives[pending] = self.rng.integers(
                0, self.num_items, size=len(pending)
            )
        else:
            # Budget spent: draw what still collides from the row's
            # complement, unless the row has no item left to avoid.
            pending = pending[self.table.contains(rows[pending], negatives[pending])]
            for position in pending.tolist():
                positives = self.table.items_of(rows[position])
                if len(positives) < self.num_items:
                    free = np.setdiff1d(np.arange(self.num_items), positives)
                    negatives[position] = free[self.rng.integers(len(free))]
        return negatives

    def sample_triplets(self, pairs) -> np.ndarray:
        """Turn ``(row, pos_item)`` pairs into ``(row, pos, neg)`` triplets."""
        pairs = np.asarray(pairs, dtype=np.int64)
        negatives = self.sample_for_rows(pairs[:, 0])
        return np.concatenate([pairs, negatives[:, None]], axis=1)

    def labelled_pairs(self, pairs, negatives_per_positive: int = 1) -> np.ndarray:
        """``(row, item, label)`` rows: observed positives plus sampled 0s."""
        pairs = np.asarray(pairs, dtype=np.int64)
        positives = np.concatenate(
            [pairs, np.ones((len(pairs), 1), dtype=np.int64)], axis=1
        )
        blocks = [positives]
        for _ in range(negatives_per_positive):
            negatives = self.sample_for_rows(pairs[:, 0])
            blocks.append(
                np.stack(
                    [pairs[:, 0], negatives, np.zeros(len(pairs), dtype=np.int64)],
                    axis=1,
                )
            )
        return np.concatenate(blocks, axis=0)
