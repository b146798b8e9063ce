"""Optimization block (Sec. III-E): the combined KGAG objective.

``L = β L_group + (1-β) L_user + λ ||Θ||²``  (Eq. 20)

where ``L_group`` is the sigmoid-margin pairwise loss of Eq. 17 (or BPR
for the KGAG (BPR) ablation) and ``L_user`` the user-item log loss of
Eq. 18.  :func:`combined_loss` is the data loss, the first two terms.
The regularizer ``λ ||Θ||²`` is not part of the tape: the trainer's Adam
applies its gradient ``2λθ`` as weight decay on the rows a batch touches
(see :mod:`repro.nn.optim`).
"""

from __future__ import annotations

from ..nn import Tensor, bce_with_logits, bpr_loss, sigmoid_margin_loss
from ..nn.losses import margin_loss_raw

__all__ = ["group_ranking_loss", "combined_loss"]


def group_ranking_loss(
    pos_scores: Tensor,
    neg_scores: Tensor,
    kind: str = "margin",
    margin: float = 0.4,
) -> Tensor:
    """L_group: the pairwise ranking loss on group predictions.

    ``kind`` selects the paper's sigmoid-margin loss (Eq. 17), BPR, or the
    raw-margin ablation variant.
    """
    if kind == "margin":
        return sigmoid_margin_loss(pos_scores, neg_scores, margin=margin)
    if kind == "bpr":
        return bpr_loss(pos_scores, neg_scores)
    if kind == "margin_raw":
        return margin_loss_raw(pos_scores, neg_scores, margin=margin)
    raise ValueError(f"unknown group loss kind {kind!r}")


def combined_loss(
    group_pos_scores: Tensor | None,
    group_neg_scores: Tensor | None,
    user_scores: Tensor | None,
    user_labels,
    beta: float = 0.7,
    loss_kind: str = "margin",
    margin: float = 0.4,
) -> Tensor:
    """Eq. 20's data loss ``β L_group + (1-β) L_user``, empty heads handled.

    A mini-batch may occasionally lack user pairs (tiny datasets); the
    corresponding term is then dropped rather than producing a 0/0.
    """
    total: Tensor | None = None
    if group_pos_scores is not None and group_pos_scores.size:
        group_term = group_ranking_loss(
            group_pos_scores, group_neg_scores, kind=loss_kind, margin=margin
        )
        total = group_term * beta
    if user_scores is not None and user_scores.size:
        user_term = bce_with_logits(user_scores, user_labels)
        scaled = user_term * (1.0 - beta)
        total = scaled if total is None else total + scaled
    if total is None:
        raise ValueError("combined_loss needs at least one non-empty head")
    return total
