"""``repro.core`` — the KGAG model, the paper's primary contribution.

* :class:`KGAGConfig` — hyper-parameters and ablation switches,
* :class:`InformationPropagation` — relation-attentive GCN (Sec. III-C),
* :class:`PreferenceAggregation` — SP+PI attention (Sec. III-D),
* :func:`combined_loss` — margin + log loss objective (Sec. III-E),
* :class:`KGAG` — the end-to-end model,
* :class:`KGAGTrainer` — Adam mini-batch training with early stopping,
* :func:`evaluate_model` — the all-items hit@k / rec@k protocol for any
  trained model (KGAG on the serving engine, baselines on the tape),
* :class:`TrainState` / :class:`CheckpointManager` — crash-safe
  checkpoints with bit-exact resume,
* :mod:`repro.core.parallel` — data-parallel workers over shared-memory
  parameter tables (``KGAGTrainer(workers=N)``),
* :class:`GroupRecommender` — serving API with attention explanations.
"""

from .checkpoint import CheckpointManager, TrainState
from .config import KGAGConfig
from .propagation import GCNAggregator, GraphSageAggregator, InformationPropagation
from .attention import AttentionBreakdown, PreferenceAggregation
from .losses import group_ranking_loss, combined_loss
from .model import KGAG
from .trainer import KGAGTrainer, TrainingHistory, evaluate_model
from .predict import Explanation, GroupRecommender, MemberInfluence, Recommendation

__all__ = [
    "CheckpointManager",
    "TrainState",
    "KGAGConfig",
    "GCNAggregator",
    "GraphSageAggregator",
    "InformationPropagation",
    "AttentionBreakdown",
    "PreferenceAggregation",
    "group_ranking_loss",
    "combined_loss",
    "KGAG",
    "KGAGTrainer",
    "TrainingHistory",
    "evaluate_model",
    "Explanation",
    "GroupRecommender",
    "MemberInfluence",
    "Recommendation",
]
