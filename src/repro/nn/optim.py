"""First-order optimizers.

The paper trains with Adam (Sec. III-E); SGD-with-momentum is provided for
comparison benchmarks and as a simpler reference implementation.

Both apply one row-sparse update rule.  A ``row_sparse`` parameter (the
weight of an :class:`~repro.nn.layers.Embedding`) steps only the rows
whose gradient is nonzero: those rows' optimizer state (Adam ``m``/``v``,
SGD velocity) and their weight decay are updated, while untouched rows
and their state stay exactly as they were.  Every other parameter takes
a dense step.  Weight decay is the L2 gradient ``weight_decay * theta``
added after any gradient clipping (coupled, as in ``torch.optim``), so
``weight_decay = 2 * lambda`` is the gradient of ``lambda * ||theta||^2``
restricted to the rows a batch touched.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .module import Parameter
from .tensor import no_grad

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "ExponentialLR",
    "clip_grad_norm",
    "extract_gradients",
    "grad_l2_norm",
]


def grad_l2_norm(parameters: Iterable[Parameter]) -> float:
    """Global L2 norm over the gradients of ``parameters``.

    Parameters without gradients are skipped.  ``dot(flat, flat)`` hits
    the BLAS reduction directly instead of materializing a squared
    temporary per parameter; this is the single norm implementation
    shared by :func:`clip_grad_norm` and the trainer's ``grad_norm``
    metric so the two cannot drift.
    """
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            flat = parameter.grad.ravel()
            total += float(np.dot(flat, flat))
    return float(np.sqrt(total))


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.  Parameters without gradients are
    skipped.  Standard defence against the occasional exploding step on
    margin losses with hub-entity embeddings.  Scaling happens in place
    (``grad *= scale``) so donated gradient buffers keep their identity.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    parameters = [p for p in parameters if p.grad is not None]
    total = grad_l2_norm(parameters)
    if total > max_norm and total > 0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad *= scale
    return total


def extract_gradients(parameters: Iterable[Parameter]) -> list:
    """Per-parameter update payloads of the current gradients.

    A ``row_sparse`` parameter yields ``("rows", rows, values)`` for
    exactly the rows whose gradient is nonzero (``rows`` sorted and
    unique); every other parameter yields ``("dense", grad)``; ``None``
    marks a parameter backward never reached.  This is the input of
    :meth:`Optimizer.step_rows` — both the sequential ``step()`` and the
    data-parallel workers build their payloads here.
    """
    payloads = []
    for parameter in parameters:
        grad = parameter.grad
        if grad is None:
            payloads.append(None)
        elif parameter.row_sparse:
            rows = np.flatnonzero(grad.any(axis=1))
            payloads.append(("rows", rows, grad[rows]))
        else:
            payloads.append(("dense", np.ascontiguousarray(grad)))
    return payloads


def _unpack(entry) -> tuple:
    """``(index, values)`` of one payload; a dense index covers the array."""
    if entry[0] == "dense":
        return Ellipsis, entry[1]
    return entry[1], entry[2]


class Optimizer:
    """Base optimizer: holds parameters and a learning rate."""

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear the gradient of every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """One step from the parameters' own gradients.

        Equivalent to ``step_rows(extract_gradients(self.parameters))``.
        """
        raise NotImplementedError

    def step_rows(self, updates: list) -> None:
        """Apply one step from gradient payloads.

        ``updates`` aligns with ``self.parameters``; each entry is
        ``None`` (skip), ``("dense", grad)``, or ``("rows", rows, values)``
        (see :func:`extract_gradients`) — the sparse form touches only the
        listed rows of the parameter *and of the optimizer's per-row state
        buffers*.  Untouched rows' state neither decays nor steps, so a
        sparse step is intentionally not equivalent to a dense step with
        zero-filled gradients (see docs/training.md).  Parameters are
        updated in place, so shared-memory buffers keep their identity.
        """
        raise NotImplementedError

    def _check_updates(self, updates: list) -> None:
        if len(updates) != len(self.parameters):
            raise ValueError(
                f"got {len(updates)} updates for {len(self.parameters)} parameters"
            )

    # -- checkpointing ------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the optimizer's mutable state.

        The dict has two halves: ``"scalars"`` (JSON-serializable
        hyper-parameters plus step counters) and ``"buffers"`` (a mapping
        of buffer name to a list of per-parameter arrays, aligned with
        ``self.parameters``).  Subclasses extend both via
        :meth:`_scalar_state` and :meth:`_buffer_state`.
        """
        return {
            "kind": type(self).__name__,
            "scalars": self._scalar_state(),
            "buffers": {
                name: [array.copy() for array in buffers]
                for name, buffers in self._buffer_state().items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        The optimizer must manage the same number of parameters (with the
        same shapes) as the one that produced the snapshot; mismatches
        raise ``ValueError`` so a wrong-model resume fails loudly instead
        of training from silently corrupt moments.
        """
        if state.get("kind") != type(self).__name__:
            raise ValueError(
                f"optimizer state was written by {state.get('kind')!r}, "
                f"refusing to load into {type(self).__name__!r}"
            )
        own_buffers = self._buffer_state()
        saved_buffers = state.get("buffers", {})
        if set(own_buffers) != set(saved_buffers):
            raise ValueError(
                f"optimizer buffer mismatch: have {sorted(own_buffers)}, "
                f"snapshot has {sorted(saved_buffers)}"
            )
        for name, buffers in own_buffers.items():
            saved = saved_buffers[name]
            if len(saved) != len(buffers):
                raise ValueError(
                    f"optimizer buffer {name!r} covers {len(saved)} parameters, "
                    f"this optimizer manages {len(buffers)}"
                )
            for i, (target, value) in enumerate(zip(buffers, saved)):
                value = np.asarray(value)
                if value.shape != target.shape:
                    raise ValueError(
                        f"shape mismatch for optimizer buffer {name}[{i}]: "
                        f"snapshot {value.shape} vs parameter {target.shape}"
                    )
                target[...] = value.astype(target.dtype, copy=False)
        self._load_scalar_state(dict(state.get("scalars", {})))

    def _scalar_state(self) -> dict:
        return {"lr": self.lr}

    def _load_scalar_state(self, scalars: dict) -> None:
        self.lr = float(scalars.get("lr", self.lr))

    def _buffer_state(self) -> dict[str, list[np.ndarray]]:
        return {}


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self.step_rows(extract_gradients(self.parameters))

    def step_rows(self, updates: list) -> None:
        self._check_updates(updates)
        with no_grad():
            for parameter, velocity, entry in zip(
                self.parameters, self._velocity, updates
            ):
                if entry is None:
                    continue
                index, grad = _unpack(entry)
                if self.weight_decay:
                    grad = grad + self.weight_decay * parameter.data[index]
                if self.momentum:
                    velocity[index] = self.momentum * velocity[index] + grad
                    grad = velocity[index]
                parameter.data[index] -= self.lr * grad

    def _scalar_state(self) -> dict:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
        }

    def _load_scalar_state(self, scalars: dict) -> None:
        super()._load_scalar_state(scalars)
        self.momentum = float(scalars.get("momentum", self.momentum))
        self.weight_decay = float(scalars.get("weight_decay", self.weight_decay))

    def _buffer_state(self) -> dict[str, list[np.ndarray]]:
        return {"velocity": self._velocity}


class Adam(Optimizer):
    """Adaptive moment estimation (Kingma & Ba, 2015).

    This is the optimizer the paper uses for all experiments.  On a
    ``row_sparse`` parameter it is lazy Adam: only the rows a batch
    touched update their moments and take a step (module docstring).
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self.step_rows(extract_gradients(self.parameters))

    def step_rows(self, updates: list) -> None:
        self._check_updates(updates)
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        with no_grad():
            for parameter, m, v, entry in zip(
                self.parameters, self._m, self._v, updates
            ):
                if entry is None:
                    continue
                index, grad = _unpack(entry)
                if self.weight_decay:
                    grad = grad + self.weight_decay * parameter.data[index]
                m_rows = self.beta1 * m[index] + (1.0 - self.beta1) * grad
                v_rows = self.beta2 * v[index] + (1.0 - self.beta2) * grad**2
                m[index] = m_rows
                v[index] = v_rows
                parameter.data[index] -= (
                    self.lr * (m_rows / bias1) / (np.sqrt(v_rows / bias2) + self.eps)
                )

    def _scalar_state(self) -> dict:
        return {
            "lr": self.lr,
            "betas": [self.beta1, self.beta2],
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "step_count": self._step_count,
        }

    def _load_scalar_state(self, scalars: dict) -> None:
        super()._load_scalar_state(scalars)
        betas = scalars.get("betas")
        if betas is not None:
            self.beta1, self.beta2 = (float(betas[0]), float(betas[1]))
        self.eps = float(scalars.get("eps", self.eps))
        self.weight_decay = float(scalars.get("weight_decay", self.weight_decay))
        self._step_count = int(scalars.get("step_count", self._step_count))

    def _buffer_state(self) -> dict[str, list[np.ndarray]]:
        return {"m": self._m, "v": self._v}


class StepLR:
    """Decay the optimizer's learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0
        self._base_lr = optimizer.lr

    def step(self) -> None:
        """Advance one epoch and update the learning rate."""
        self._epoch += 1
        self.optimizer.lr = self._base_lr * self.gamma ** (self._epoch // self.step_size)


class ExponentialLR:
    """Multiply the learning rate by ``gamma`` every epoch."""

    def __init__(self, optimizer: Optimizer, gamma: float):
        self.optimizer = optimizer
        self.gamma = gamma

    def step(self) -> None:
        """Advance one epoch and update the learning rate."""
        self.optimizer.lr *= self.gamma
