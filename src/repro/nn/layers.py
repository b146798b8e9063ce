"""Standard neural layers built on the autograd substrate.

These cover everything the KGAG/KGCN/MoSAN/MF models need: dense affine
maps, embedding tables with scatter-add gradients, dropout, and a small
``Sequential`` container for MLP heads.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import init as initializers
from .ops import gather_rows
from .tensor import Tensor
from .module import Module, Parameter
from ..rng import ensure_rng

__all__ = ["Linear", "Embedding", "Dropout", "Sequential", "Activation", "MLP"]


class Linear(Module):
    """Affine transformation ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input / output dimensionality.
    bias:
        Whether to add a learned bias.
    rng:
        Seeded generator for Xavier-uniform weight init.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.xavier_uniform((out_features, in_features), rng), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Linear(in_features={self.in_features}, "
            f"out_features={self.out_features}, bias={self.bias is not None})"
        )


class Embedding(Module):
    """Lookup table of ``num_embeddings`` rows of dimension ``embedding_dim``.

    Backward is a scatter-add, so a row indexed multiple times in one batch
    receives the sum of its gradients — the semantics every mini-batch
    recommender depends on.  The weight is ``row_sparse``: an optimizer
    step touches only the rows a batch gathered.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
        std: float = 0.1,
    ):
        super().__init__()
        rng = ensure_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            initializers.normal((num_embeddings, embedding_dim), rng, std=std),
            name="weight",
            row_sparse=True,
        )

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":
            raise TypeError(f"Embedding indices must be integers, got {indices.dtype}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return gather_rows(self.weight, indices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class Dropout(Module):
    """Inverted dropout: active only in training mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = ensure_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(x.data.dtype) / keep
        return x * Tensor(mask)


class Activation(Module):
    """Wrap an elementwise activation function as a module."""

    _KNOWN: dict[str, Callable[[Tensor], Tensor]] = {
        "relu": lambda x: x.relu(),
        "sigmoid": lambda x: x.sigmoid(),
        "tanh": lambda x: x.tanh(),
        "identity": lambda x: x,
    }

    def __init__(self, name: str):
        super().__init__()
        if name not in self._KNOWN:
            raise ValueError(f"unknown activation {name!r}; choices: {sorted(self._KNOWN)}")
        self.name = name
        self._fn = self._KNOWN[name]

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[Module] = []
        for index, module in enumerate(modules):
            self.register_module(f"layer{index}", module)
            self._order.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._order:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return iter(self._order)


class MLP(Module):
    """Multi-layer perceptron: Linear → activation, repeated.

    Parameters
    ----------
    sizes:
        Layer widths, e.g. ``[64, 32, 1]`` gives two Linear layers.
    activation:
        Name of the hidden activation.
    final_activation:
        Activation after the last layer (default: identity).
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: str = "relu",
        final_activation: str = "identity",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = ensure_rng(rng)
        layers: list[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(fan_in, fan_out, rng=rng))
            is_last = i == len(sizes) - 2
            layers.append(Activation(final_activation if is_last else activation))
        self.body = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)
