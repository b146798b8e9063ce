"""``repro.nn`` — a pure-numpy neural network substrate.

The original KGAG implementation relies on PyTorch; this package provides
the equivalent differentiable-programming toolkit from scratch:

* :mod:`repro.nn.tensor` — reverse-mode autograd over numpy arrays,
* :mod:`repro.nn.ops` — functional ops (softmax, concat, gather, ...),
* :mod:`repro.nn.module` / :mod:`repro.nn.layers` — Module/Parameter,
  Linear, Embedding, Dropout, MLP,
* :mod:`repro.nn.optim` — SGD and Adam (the paper's optimizer),
* :mod:`repro.nn.losses` — BCE (Eq. 18), BPR, and the paper's
  sigmoid-margin pairwise loss (Eq. 17),
* :mod:`repro.nn.gradcheck` — finite-difference validation helpers,
* :mod:`repro.nn.compile` — trace-once/replay-many compiled train steps,
  the executor of every KGAG train step (bit-exact with the dynamic
  tape; see ``docs/compilation.md``).
"""

from .tensor import (
    Tensor,
    as_tensor,
    no_grad,
    is_grad_enabled,
    install_tape_hooks,
    uninstall_tape_hooks,
    tape_hooks_active,
)
from .module import Module, Parameter
from .layers import Linear, Embedding, Dropout, Sequential, Activation, MLP
from .optim import SGD, Adam, StepLR, ExponentialLR, clip_grad_norm, grad_l2_norm
from . import init, losses, ops
from . import compile  # noqa: A004 - module name mirrors the subsystem
from .compile import CompiledProgram, TraceError, trace_step
from .ops import (
    concat,
    stack,
    softmax,
    log_softmax,
    masked_softmax,
    sigmoid,
    relu,
    tanh,
    dot,
    where,
    maximum,
    minimum,
    broadcast_to,
    tile,
)
from .losses import (
    bce_with_logits,
    bpr_loss,
    sigmoid_margin_loss,
    margin_loss_raw,
    mse_loss,
    l2_penalty,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "install_tape_hooks",
    "uninstall_tape_hooks",
    "tape_hooks_active",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "Activation",
    "MLP",
    "SGD",
    "Adam",
    "StepLR",
    "ExponentialLR",
    "clip_grad_norm",
    "grad_l2_norm",
    "init",
    "losses",
    "ops",
    "compile",
    "CompiledProgram",
    "TraceError",
    "trace_step",
    "concat",
    "stack",
    "softmax",
    "log_softmax",
    "masked_softmax",
    "sigmoid",
    "relu",
    "tanh",
    "dot",
    "where",
    "maximum",
    "minimum",
    "broadcast_to",
    "tile",
    "bce_with_logits",
    "bpr_loss",
    "sigmoid_margin_loss",
    "margin_loss_raw",
    "mse_loss",
    "l2_penalty",
]
