"""Inference-time API: top-k recommendation and attention explanations.

Wraps a trained :class:`~repro.core.model.KGAG` behind the operations a
serving layer needs — scoring, ranked recommendation with seen-item
masking, and the interpretability report of the paper's case study
(Sec. IV-H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.interactions import InteractionTable
from ..serve.engine import RankingEngine
from .model import KGAG

__all__ = ["Recommendation", "MemberInfluence", "Explanation", "GroupRecommender"]


@dataclass
class Recommendation:
    """One ranked item for a group."""

    item: int
    score: float
    probability: float


@dataclass
class MemberInfluence:
    """One member's role in a group decision (Fig. 6 bar)."""

    user: int
    attention: float
    self_persistence: float
    peer_influence: float


@dataclass
class Explanation:
    """Full interpretability report for one (group, item) pair."""

    group: int
    item: int
    score: float
    probability: float
    influences: list[MemberInfluence]

    def dominant_members(self, mass: float = 0.6) -> list[MemberInfluence]:
        """Smallest prefix of members (by attention) covering ``mass``."""
        ordered = sorted(self.influences, key=lambda m: -m.attention)
        out, total = [], 0.0
        for member in ordered:
            out.append(member)
            total += member.attention
            if total >= mass:
                break
        return out

    def summary(self) -> str:
        """Human-readable explanation (the narrative of Sec. IV-H)."""
        dominant = self.dominant_members()
        names = ", ".join(f"user {m.user} ({m.attention:.2f})" for m in dominant)
        return (
            f"Item {self.item} recommended to group {self.group} with "
            f"probability {self.probability:.4f}; the decision is driven by "
            f"{names}."
        )


class GroupRecommender:
    """Serving-layer wrapper around a trained KGAG model.

    Parameters
    ----------
    model:
        A trained model.  May be ``None`` when ``index`` is given: every
        operation then runs from the frozen index alone.
    train_interactions:
        Known group positives to exclude from recommendations.  When
        omitted but an ``index`` is given, the exclusion mask frozen into
        the index is used instead.
    index:
        Optional :class:`~repro.serve.index.EmbeddingIndex`.  When set,
        every operation scores from the frozen index.

    Every operation runs on the tape-free
    :class:`~repro.serve.engine.RankingEngine`: over ``index``, or over
    the live model via
    :meth:`~repro.serve.engine.RankingEngine.from_model`, as evaluation
    does.  :meth:`score` is bit-exact with the model's tape on the same
    batch and :meth:`explain` agrees with it within 1e-12.
    :meth:`recommend` scores the whole catalog through the engine's
    catalog path, so its scores agree with the tape to float round-off.
    """

    def __init__(
        self,
        model: KGAG | None,
        train_interactions: InteractionTable | None = None,
        index=None,
    ):
        if model is None and index is None:
            raise ValueError("need a model, an index, or both")
        self.model = model
        self.train_interactions = train_interactions
        self.index = index
        self._engine = None
        if index is not None:
            self._engine = RankingEngine(index)

    def _seen_items(self, group_id: int) -> np.ndarray:
        if self.train_interactions is not None:
            return self.train_interactions.items_of(int(group_id))
        if self.index is not None:
            return self.index.seen_items(int(group_id))
        return np.zeros(0, dtype=np.int64)

    def _require_model(self) -> KGAG:
        if self.model is None:
            raise ValueError("this GroupRecommender was built without a model")
        return self.model

    def _scoring_engine(self):
        """The index's engine, or one over a view of the live weights."""
        if self._engine is not None:
            return self._engine
        model = self._require_model()
        model.eval()
        return RankingEngine.from_model(model)

    def score(self, group_ids, item_ids) -> np.ndarray:
        """Raw ŷ scores for aligned id arrays."""
        return self._scoring_engine().score_pairs(group_ids, item_ids)

    def recommend(
        self, group_id: int, k: int = 5, exclude_seen: bool = True
    ) -> list[Recommendation]:
        """Top-k items for one group, best first."""
        return self._recommend(self._scoring_engine(), group_id, k, exclude_seen)

    def explain(self, group_id: int, item_id: int) -> Explanation:
        """Attention-based explanation for one candidate (Fig. 6)."""
        return self._explain(self._scoring_engine(), group_id, item_id)

    def recommend_with_explanations(
        self, group_id: int, k: int = 5
    ) -> list[tuple[Recommendation, Explanation]]:
        """Top-k items each paired with its attention explanation.

        One engine serves the ranking and every explanation, so a live
        model is viewed (and, under uniform weights, propagated) once.
        """
        engine = self._scoring_engine()
        return [
            (rec, self._explain(engine, group_id, rec.item))
            for rec in self._recommend(engine, group_id, k, exclude_seen=True)
        ]

    def _recommend(
        self, engine, group_id: int, k: int, exclude_seen: bool
    ) -> list[Recommendation]:
        if k <= 0:
            raise ValueError("k must be positive")
        scores = engine.scores_for_group(int(group_id))
        seen = self._seen_items(group_id) if exclude_seen else None
        return [
            Recommendation(item=r.item, score=r.score, probability=r.probability)
            for r in engine.rank(scores, seen, k)
        ]

    def _explain(self, engine, group_id: int, item_id: int) -> Explanation:
        raw = engine.explain(group_id, item_id)
        influences = [
            MemberInfluence(
                user=int(user),
                attention=float(raw["attention"][index]),
                self_persistence=float(raw["sp"][index]),
                peer_influence=float(raw["pi"][index]),
            )
            for index, user in enumerate(raw["members"])
        ]
        return Explanation(
            group=int(group_id),
            item=int(item_id),
            score=raw["score"],
            probability=raw["probability"],
            influences=influences,
        )
