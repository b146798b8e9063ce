"""Module / Parameter abstractions mirroring the familiar torch.nn API.

A :class:`Module` owns named :class:`Parameter` tensors and child modules,
supports recursive parameter iteration (for optimizers and L2 terms),
train/eval mode switching, and a flat ``state_dict`` for checkpointing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .tensor import Tensor, no_grad

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable tensor.

    Identical to :class:`Tensor` except ``requires_grad`` defaults to True
    and :class:`Module` auto-registers attributes of this type.
    ``row_sparse`` marks an embedding table: optimizers step only the
    rows whose gradient is nonzero (see :mod:`repro.nn.optim`).
    """

    def __init__(self, data, name: str | None = None, row_sparse: bool = False):
        super().__init__(data, requires_grad=True, name=name)
        self.row_sparse = bool(row_sparse)


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically.

    Examples
    --------
    >>> class Affine(Module):
    ...     def __init__(self):
    ...         super().__init__()
    ...         self.w = Parameter([[1.0]])
    ...     def forward(self, x):
    ...         return x @ self.w
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- attribute plumbing -------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        # Reassigning an attribute that previously held a Parameter/Module
        # must drop the old registration, otherwise the optimizer and
        # state_dict keep training/saving the orphan.
        parameters = self.__dict__.get("_parameters")
        modules = self.__dict__.get("_modules")
        if isinstance(value, Parameter):
            if modules is not None:
                modules.pop(name, None)
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            if parameters is not None:
                parameters.pop(name, None)
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        else:
            if parameters is not None:
                parameters.pop(name, None)
            if modules is not None:
                modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, parameter: Parameter) -> None:
        """Explicitly register a parameter under ``name``."""
        self._parameters[name] = parameter
        object.__setattr__(self, name, parameter)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- iteration -----------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for _, parameter in self.named_parameters():
            yield parameter

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, parameter in self._parameters.items():
            yield prefix + name, parameter
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- train / eval ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects e.g. Dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # -- gradients ----------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat mapping of qualified names to array copies."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        with no_grad():
            for name, parameter in own.items():
                value = np.asarray(state[name])
                if value.shape != parameter.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"checkpoint {value.shape} vs parameter {parameter.shape}"
                    )
                parameter.data = value.astype(parameter.data.dtype).copy()

    # -- call protocol --------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
