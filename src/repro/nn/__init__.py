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

# Re-exports resolve on first access (PEP 562), so importing one
# submodule (``repro.nn.serialization`` for a frozen index) does not load
# the optimizers or the compiled executor.  A name equal to its
# submodule's name is the submodule itself.
_EXPORTS = {
    "tensor": (
        "Tensor",
        "as_tensor",
        "no_grad",
        "is_grad_enabled",
        "install_tape_hooks",
        "uninstall_tape_hooks",
        "tape_hooks_active",
    ),
    "module": ("Module", "Parameter"),
    "layers": ("Linear", "Embedding", "Dropout", "Sequential", "Activation", "MLP"),
    "optim": ("SGD", "Adam", "StepLR", "ExponentialLR", "clip_grad_norm", "grad_l2_norm"),
    "init": ("init",),
    "compile": ("compile", "CompiledProgram", "TraceError", "trace_step"),
    "ops": (
        "ops",
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
    ),
    "losses": (
        "losses",
        "bce_with_logits",
        "bpr_loss",
        "sigmoid_margin_loss",
        "margin_loss_raw",
        "mse_loss",
        "l2_penalty",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_ORIGIN[name]}")
    value = module if name == _ORIGIN[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
