"""The paper's ranking evaluation protocol (Sec. IV-C).

For every group that has at least one positive in the evaluation split,
score *all* items, rank them, and compute hit@k / rec@k.  A
:class:`GroupScorer` is any callable mapping aligned ``(group_ids,
item_ids)`` arrays to a score array — both KGAG and every baseline
expose that interface, so one evaluator serves the whole Table II.
"""

from __future__ import annotations

import time
from typing import Protocol

import numpy as np

from ..data.interactions import InteractionTable
from ..obs.metrics import NULL_REGISTRY
from ..serve.engine import PAIR_CHUNK
from .metrics import evaluate_rankings

__all__ = ["GroupScorer", "score_all_items", "evaluate_group_recommender"]


class GroupScorer(Protocol):
    """Anything that scores aligned (group, item) id arrays."""

    def __call__(self, group_ids: np.ndarray, item_ids: np.ndarray) -> np.ndarray: ...


def score_all_items(
    scorer: GroupScorer,
    group_ids: np.ndarray,
    num_items: int,
    engine=None,
) -> dict[int, np.ndarray]:
    """Score every item for every group, chunked to bound memory.

    The ``(group, item)`` id pairs are generated per chunk of
    ``PAIR_CHUNK`` pairs (groups-major, items-minor), so peak working
    memory is one chunk plus the returned score matrix — the full
    cross-product index arrays are never materialized.

    Parameters
    ----------
    engine:
        Optional :class:`~repro.serve.engine.RankingEngine`.  When
        given, scoring runs its full-catalog path
        (:meth:`~repro.serve.engine.RankingEngine.score_matrix`) instead
        of calling ``scorer`` per chunk (``scorer`` is ignored): one
        item-major pass in byte-sized item chunks that propagates each
        distinct member user once per chunk.  Scores then agree with the
        model path to float round-off, not bit for bit.

    Returns ``{group_id: (num_items,) score vector}``.
    """
    group_ids = np.unique(np.asarray(group_ids, dtype=np.int64))
    if engine is not None:
        matrix = engine.score_matrix(group_ids)
        return {int(group): matrix[row] for row, group in enumerate(group_ids)}
    scores = np.empty(len(group_ids) * num_items, dtype=np.float64)
    for start in range(0, len(scores), PAIR_CHUNK):
        stop = min(start + PAIR_CHUNK, len(scores))
        flat = np.arange(start, stop, dtype=np.int64)
        scores[start:stop] = np.asarray(
            scorer(group_ids[flat // num_items], flat % num_items)
        )
    return {
        int(group): scores[row * num_items : (row + 1) * num_items]
        for row, group in enumerate(group_ids)
    }


def evaluate_group_recommender(
    scorer: GroupScorer,
    test_interactions: InteractionTable,
    k: int = 5,
    train_interactions: InteractionTable | None = None,
    engine=None,
    metrics=None,
) -> dict[str, float]:
    """hit@k / rec@k of a scorer on a test split.

    Parameters
    ----------
    scorer:
        Score function (see :class:`GroupScorer`).
    test_interactions:
        Ground-truth group-item positives of the evaluation split.
    train_interactions:
        If given, items the group already interacted with in training are
        masked to -inf before ranking (standard protocol: do not
        re-recommend known positives).
    engine:
        Optional :class:`~repro.serve.engine.RankingEngine` that ranks
        the catalog in place of ``scorer``; see :func:`score_all_items`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; maintains
        an ``eval/groups_scored_total`` counter and an
        ``eval/evaluation_seconds`` histogram.  Defaults to the shared
        no-op registry (zero cost).
    """
    if test_interactions.num_interactions == 0:
        raise ValueError("test split is empty")
    metrics = metrics if metrics is not None else NULL_REGISTRY
    eval_start = time.perf_counter() if metrics.enabled else 0.0
    groups = np.unique(test_interactions.pairs[:, 0])
    scores_by_group = score_all_items(
        scorer, groups, test_interactions.num_cols, engine=engine
    )
    if train_interactions is not None:
        for group in groups:
            seen = train_interactions.items_of(int(group))
            if len(seen):
                scores_by_group[int(group)] = scores_by_group[int(group)].copy()
                scores_by_group[int(group)][seen] = -np.inf
    positives_by_group = {
        int(group): test_interactions.items_of(int(group)).tolist() for group in groups
    }
    result = evaluate_rankings(scores_by_group, positives_by_group, k=k)
    if metrics.enabled:
        metrics.counter(
            "eval/groups_scored_total", help="groups ranked by the evaluator"
        ).inc(len(groups))
        metrics.histogram(
            "eval/evaluation_seconds", help="wall time per full evaluation pass"
        ).observe(time.perf_counter() - eval_start)
    return result
