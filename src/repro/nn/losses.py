"""Loss functions used by the paper's optimization block (Sec. III-E).

* :func:`bce_with_logits` — the user-item log loss of Eq. 18.
* :func:`bpr_loss` — Bayesian personalized ranking, the KGAG (BPR) ablation.
* :func:`sigmoid_margin_loss` — the paper's novel pairwise loss (Eqs. 16-17):
  ``max(sigma(y_neg) - sigma(y_pos) + M, 0)``.
* :func:`l2_penalty` — ``||Theta||^2`` of Eq. 20 as a dense tape term
  (training applies ``lambda * ||Theta||^2`` as row-sparse weight decay
  in :mod:`repro.nn.optim` instead).
"""

from __future__ import annotations

from typing import Iterable

from .module import Parameter
from .ops import maximum, sigmoid
from .tensor import Tensor, as_tensor

__all__ = [
    "bce_with_logits",
    "bpr_loss",
    "sigmoid_margin_loss",
    "margin_loss_raw",
    "mse_loss",
    "l2_penalty",
]


def bce_with_logits(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Binary cross-entropy on raw scores (numerically stable).

    Implements ``-y log sigma(x) - (1-y) log(1 - sigma(x))`` via the stable
    identity ``max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """
    x = as_tensor(logits)
    targets = as_tensor(targets)
    # Stable identity: max(x, 0) - x*y + log(1 + exp(-|x|)), with the
    # log-term built from primitives so it stays differentiable.  The
    # |x| primitive keeps the graph free of per-batch constant tensors
    # (the old ``x * sign(x)`` idiom baked sign(x) in as a leaf), so the
    # loss is capturable by the compiled executor; values and gradients
    # are bit-identical to the old formulation.
    neg_abs_x = -x.abs()
    softplus_term = (neg_abs_x.exp() + 1.0).log()
    loss = maximum(x, 0.0) - x * targets + softplus_term
    return _reduce(loss, reduction)


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor, reduction: str = "mean") -> Tensor:
    """Bayesian personalized ranking loss: ``-log sigma(pos - neg)``."""
    pos_scores = as_tensor(pos_scores)
    neg_scores = as_tensor(neg_scores)
    diff = pos_scores - neg_scores
    # -log(sigmoid(d)) == softplus(-d), computed stably.
    neg_diff = -diff
    loss = _softplus(neg_diff)
    return _reduce(loss, reduction)


def sigmoid_margin_loss(
    pos_scores: Tensor,
    neg_scores: Tensor,
    margin: float = 0.4,
    reduction: str = "mean",
) -> Tensor:
    """The paper's pairwise loss (Eq. 17).

    Requires ``sigma(pos) - sigma(neg) >= margin``; the hinge
    ``max(sigma(neg) - sigma(pos) + margin, 0)`` penalizes violations.
    """
    if not 0.0 <= margin <= 1.0:
        raise ValueError(
            f"margin must lie in [0, 1] because scores are sigmoid-squashed, got {margin}"
        )
    pos = sigmoid(as_tensor(pos_scores))
    neg = sigmoid(as_tensor(neg_scores))
    loss = maximum(neg - pos + margin, 0.0)
    return _reduce(loss, reduction)


def margin_loss_raw(
    pos_scores: Tensor,
    neg_scores: Tensor,
    margin: float = 0.4,
    reduction: str = "mean",
) -> Tensor:
    """Margin hinge on *raw* scores (no sigmoid squashing).

    Not used by the paper; provided for the ablation in DESIGN.md §4 that
    asks whether the sigmoid normalization in Eq. 16 matters.
    """
    pos = as_tensor(pos_scores)
    neg = as_tensor(neg_scores)
    loss = maximum(neg - pos + margin, 0.0)
    return _reduce(loss, reduction)


def mse_loss(predictions: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Mean squared error — used by the explicit-rating MF reference tests."""
    predictions = as_tensor(predictions)
    targets = as_tensor(targets)
    loss = (predictions - targets) ** 2
    return _reduce(loss, reduction)


def l2_penalty(parameters: Iterable[Parameter]) -> Tensor:
    """Sum of squared parameter values: ``||Theta||^2`` in Eq. 20 (dense)."""
    total: Tensor | None = None
    for parameter in parameters:
        term = (parameter * parameter).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total


def _softplus(x: Tensor) -> Tensor:
    """Numerically stable ``log(1 + exp(x))`` built from primitives."""
    neg_abs_x = -x.abs()  # no data-dependent constant leaf: capturable
    return maximum(x, 0.0) + (neg_abs_x.exp() + 1.0).log()


def _reduce(loss: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
