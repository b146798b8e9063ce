"""KGAG hyper-parameters and ablation switches.

One dataclass drives the whole model so that the paper's ablations
(Table III) and hyper-parameter sweeps (Figures 4-5) are pure config
edits:

* ``use_kg=False``  -> **KGAG-KG** (no information propagation block),
* ``use_sp=False``  -> **KGAG-SP** (no self-persistence attention),
* ``use_pi=False``  -> **KGAG-PI** (no peer-influence attention),
* ``loss="bpr"``    -> **KGAG (BPR)** (conventional pairwise loss),
* ``aggregator="graphsage"`` -> the Table IV comparison,
* ``margin`` / ``num_layers`` / ``beta`` / ``embedding_dim`` -> the
  Figure 4-5 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["KGAGConfig"]

_AGGREGATORS = ("gcn", "graphsage")
_LOSSES = ("margin", "margin_raw", "bpr")


@dataclass
class KGAGConfig:
    """Hyper-parameters of the KGAG model and its training loop.

    Attributes
    ----------
    embedding_dim:
        d — dimensionality of every entity/relation representation.
    num_layers:
        H — propagation depth (receptive-field radius).
    num_neighbors:
        K — neighbors sampled per entity per hop.
    aggregator:
        ``"gcn"`` (Eq. 5) or ``"graphsage"`` (Eq. 6).
    margin:
        M — margin of the sigmoid pairwise loss (Eq. 16).
    beta:
        β — weight of the group loss vs the user log loss (Eq. 20).
    l2_weight:
        λ — L2 regularization coefficient (Eq. 20).  The trainer applies
        it as Adam weight decay ``2λ`` on the rows each batch touches.
    loss:
        ``"margin"`` (the paper's loss), ``"bpr"`` (the KGAG (BPR)
        ablation) or ``"margin_raw"`` (margin on unsquashed scores — the
        extra ablation of DESIGN.md §4).
    use_kg / use_sp / use_pi:
        Ablation switches, see module docstring.
    pi_pooling:
        Peer-set pooling inside the PI attention: ``"concat"`` is the
        paper's Eq. 10; ``"mean"`` is the size-agnostic extension (see
        :class:`~repro.core.attention.PreferenceAggregation`).
    uniform_neighbor_weights:
        If True, replaces the relation attention π of Eq. 2 with uniform
        1/K weights (DESIGN.md §4 ablation #3).
    learning_rate / epochs / batch_size:
        Adam optimization settings (Sec. III-E).
    patience:
        Early-stopping patience on validation hit@5 (0 disables).
    max_grad_norm:
        Optional global gradient-norm clip applied before each Adam step
        (None disables; not used by the paper but a standard safeguard).
    seed:
        Seeds model init, neighbor sampling and batch shuffling.
    """

    embedding_dim: int = 16
    num_layers: int = 2
    num_neighbors: int = 4
    aggregator: str = "gcn"
    margin: float = 0.4
    beta: float = 0.7
    l2_weight: float = 1e-5
    loss: str = "margin"
    use_kg: bool = True
    use_sp: bool = True
    use_pi: bool = True
    pi_pooling: str = "concat"
    uniform_neighbor_weights: bool = False
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 128
    patience: int = 5
    max_grad_norm: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_layers < 0:
            raise ValueError("num_layers must be non-negative")
        if self.num_neighbors <= 0:
            raise ValueError("num_neighbors must be positive")
        if self.aggregator not in _AGGREGATORS:
            raise ValueError(f"aggregator must be one of {_AGGREGATORS}")
        if self.pi_pooling not in ("concat", "mean"):
            raise ValueError("pi_pooling must be 'concat' or 'mean'")
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}")
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError("margin must be in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.l2_weight < 0:
            raise ValueError("l2_weight must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive when set")

    def with_overrides(self, **changes) -> "KGAGConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)

    # -- named ablations (Table III) ----------------------------------------
    def ablate_kg(self) -> "KGAGConfig":
        """KGAG-KG: no information propagation block."""
        return self.with_overrides(use_kg=False)

    def ablate_sp(self) -> "KGAGConfig":
        """KGAG-SP: no self-persistence attention term."""
        return self.with_overrides(use_sp=False)

    def ablate_pi(self) -> "KGAGConfig":
        """KGAG-PI: no peer-influence attention term."""
        return self.with_overrides(use_pi=False)

    def with_bpr_loss(self) -> "KGAGConfig":
        """KGAG (BPR): conventional pairwise loss."""
        return self.with_overrides(loss="bpr")
