"""Ranking metrics (Sec. IV-C).

* ``hit@k`` (Eq. 21): fraction of groups with at least one test positive
  in their top-k list.
* ``rec@k``: per-group fraction of test positives recovered in top-k,
  averaged over groups.
* ``ndcg@k`` and ``precision@k`` are provided as supplementary metrics
  (not reported in the paper's tables but standard in follow-up work).

All metrics consume a score vector over the candidate items and the set
of ground-truth positive items for one group, or operate in aggregate
via :func:`evaluate_rankings`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "top_k_items",
    "hit_at_k",
    "recall_at_k",
    "precision_at_k",
    "ndcg_at_k",
    "evaluate_rankings",
]


def top_k_items(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest-scoring items, best first.

    Ties break deterministically by item id (stable argsort on -scores).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    return order[:k]


def _hit_ranks(top: np.ndarray, positives: set[int]) -> list[int]:
    """Ranks (0-based) at which ``top`` holds a positive, best first."""
    return [rank for rank, item in enumerate(top) if int(item) in positives]


def _ndcg(hit_ranks: list[int], num_positives: int, k: int) -> float:
    dcg = sum(1.0 / np.log2(rank + 2.0) for rank in hit_ranks)
    ideal_hits = min(num_positives, k)
    idcg = sum(1.0 / np.log2(rank + 2.0) for rank in range(ideal_hits))
    return float(dcg / idcg)


def hit_at_k(scores: np.ndarray, positives: set[int] | Sequence[int], k: int) -> float:
    """1.0 if any positive appears in the top-k, else 0.0."""
    positives = set(int(p) for p in positives)
    if not positives:
        return 0.0
    return 1.0 if _hit_ranks(top_k_items(scores, k), positives) else 0.0


def recall_at_k(scores: np.ndarray, positives: set[int] | Sequence[int], k: int) -> float:
    """Fraction of the positives recovered in the top-k."""
    positives = set(int(p) for p in positives)
    if not positives:
        return 0.0
    return len(_hit_ranks(top_k_items(scores, k), positives)) / len(positives)


def precision_at_k(scores: np.ndarray, positives: set[int] | Sequence[int], k: int) -> float:
    """Fraction of the top-k that are positives."""
    positives = set(int(p) for p in positives)
    top = top_k_items(scores, k)
    if len(top) == 0:
        return 0.0
    return len(_hit_ranks(top, positives)) / len(top)


def ndcg_at_k(scores: np.ndarray, positives: set[int] | Sequence[int], k: int) -> float:
    """Normalized discounted cumulative gain with binary relevance."""
    positives = set(int(p) for p in positives)
    if not positives:
        return 0.0
    return _ndcg(_hit_ranks(top_k_items(scores, k), positives), len(positives), k)


def evaluate_rankings(
    scores_by_group: Mapping[int, np.ndarray],
    positives_by_group: Mapping[int, Sequence[int]],
    k: int = 5,
) -> dict[str, float]:
    """Aggregate hit@k / rec@k / precision@k / ndcg@k over groups.

    Only groups present in ``positives_by_group`` with at least one
    positive are counted (the paper evaluates over test-set groups).
    Each group is ranked once; all four metrics read that one top-k.
    """
    hits, recalls, precisions, ndcgs = [], [], [], []
    for group, positives in positives_by_group.items():
        positives = set(int(p) for p in positives)
        if not positives:
            continue
        top = top_k_items(scores_by_group[group], k)
        ranks = _hit_ranks(top, positives)
        hits.append(1.0 if ranks else 0.0)
        recalls.append(len(ranks) / len(positives))
        precisions.append(len(ranks) / len(top) if len(top) else 0.0)
        ndcgs.append(_ndcg(ranks, len(positives), k))
    if not hits:
        raise ValueError("no group had test positives to evaluate")
    return {
        f"hit@{k}": float(np.mean(hits)),
        f"rec@{k}": float(np.mean(recalls)),
        f"precision@{k}": float(np.mean(precisions)),
        f"ndcg@{k}": float(np.mean(ndcgs)),
        "num_groups": len(hits),
    }
