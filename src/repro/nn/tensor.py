"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` substrate.  The paper's
models (KGAG, KGCN, MoSAN, MF) are expressed with PyTorch in the original
work; here every differentiable operation is built on :class:`Tensor`, a
small tape-based autograd value holding a numpy array.

Design notes
------------
* Reverse-mode only.  Each operation records its parents and a backward
  closure; :meth:`Tensor.backward` schedules the closures in reverse
  topological order (iterative dependency counting, no recursion) and
  accumulates gradients into ``Tensor.grad``.
* Gradients are plain ``numpy.ndarray`` objects (not Tensors): higher-order
  differentiation is out of scope for the reproduction.
* Broadcasting follows numpy semantics.  Backward passes reduce gradients
  back to the parent's shape with :func:`unbroadcast`.
* ``float64`` is the default dtype so that numerical gradient checks in the
  test-suite hold to tight tolerances.  The datasets in this reproduction
  are small enough that the 2x memory cost over ``float32`` is irrelevant.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "unbroadcast",
    "as_tensor",
    "install_tape_hooks",
    "uninstall_tape_hooks",
    "tape_hooks_active",
]

DEFAULT_DTYPE = np.float64

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Used by optimizers (in-place parameter updates) and by evaluation code
    where building the tape would only waste memory.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _grad_enabled


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Inverse of numpy broadcasting: axes that were added are summed out and
    axes that were stretched from length 1 are summed back to length 1.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from 1.
    reduce_axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if reduce_axes:
        grad = grad.sum(axis=reduce_axes, keepdims=True)
    return grad.reshape(shape)


def _give(tensor: "Tensor", grad: np.ndarray, source: np.ndarray) -> None:
    """Accumulate ``grad`` into ``tensor``, donating it when possible.

    ``source`` is the incoming (possibly shared) gradient of the firing
    node.  When ``grad`` is a different object — i.e. :func:`unbroadcast`
    allocated a reduction — the buffer is fresh and exclusively ours, so
    it can be handed over without the defensive copy; when it IS the
    source object it may also be flowing to a sibling parent, so the
    general copying path is required.
    """
    if grad is source:
        tensor._accumulate(grad)
    else:
        tensor._accumulate_exclusive(grad)


def _index_add(full: np.ndarray, key, grad: np.ndarray) -> None:
    """Scatter-add ``grad`` into ``full`` at ``key`` (repeats accumulate).

    For integer-array keys — the embedding-lookup case — two vectorized
    strategies replace ``np.add.at`` (whose elementwise inner loop is
    orders of magnitude slower):

    * dense-ish scatters (``rows.size * 4 >= len(full)``, the training
      hot path where a small table absorbs a large batch) run one
      ``np.bincount`` over flattened ``(row, column)`` keys, which
      segment-sums every cell in a single C pass;
    * sparse scatters fall back to a stable sort + ``np.add.reduceat``
      segment-sum, touching only the rows actually indexed.

    The accumulation semantics are identical either way (only the float
    summation order within a segment differs).  Two more key kinds skip
    ``np.add.at`` with bit-identical results:

    * basic keys (slices, integers, ``...``, e.g. ``scores[:batch]``)
      hit no element twice, so they are one in-place ``+=``;
    * a tuple of slices around one 1-D integer array (the PI peer
      gather ``x[:, peer_index, :]``) becomes one in-place add per
      array position, in index order — the same sequence of additions
      ``np.add.at`` performs on every destination cell.

    Every other key kind (masks, mixed or multi-array tuples) keeps
    ``np.add.at``.
    """
    if not (isinstance(key, np.ndarray) and key.dtype.kind in "iu"):
        if _is_basic_key(key):
            full[key] += grad
            return
        axis = _single_array_axis(key)
        if axis is None:
            np.add.at(full, key, grad)
            return
        head, tail = key[:axis], key[axis + 1 :]
        lead = (slice(None),) * axis
        for position, row in enumerate(key[axis]):
            full[head + (row,) + tail] += grad[lead + (position,)]
        return
    rows = key.reshape(-1)
    if rows.size == 0:
        return
    if rows.dtype.kind == "i" and rows.min() < 0:
        rows = np.where(rows < 0, rows + full.shape[0], rows)
    target = full.reshape(full.shape[0], -1)
    flat = np.ascontiguousarray(grad).reshape(rows.size, -1)
    if rows.size == 1:
        target[rows[0]] += flat[0]
        return
    if rows.size * 4 >= full.shape[0] and target.dtype == np.float64:
        width = target.shape[1]
        cells = (rows * width)[:, None] + np.arange(width)
        dense = np.bincount(
            cells.reshape(-1), weights=flat.reshape(-1), minlength=target.size
        )
        target += dense.reshape(target.shape)
        return
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
    )
    target[sorted_rows[starts]] += np.add.reduceat(flat[order], starts, axis=0)


def _is_basic_key(key) -> bool:
    """Whether ``key`` is basic indexing: slices, integers and ``...`` only."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        isinstance(part, slice)
        or part is Ellipsis
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


def _single_array_axis(key) -> int | None:
    """Position of the lone 1-D integer array in a tuple of slices, else None."""
    if not isinstance(key, tuple):
        return None
    axis = None
    for position, part in enumerate(key):
        if isinstance(part, slice):
            continue
        if not (isinstance(part, np.ndarray) and part.ndim == 1 and part.dtype.kind in "iu"):
            return None
        if axis is not None:
            return None
        axis = position
    return axis


def _coerce_array(value, dtype=None) -> np.ndarray:
    array = np.asarray(value, dtype=dtype if dtype is not None else None)
    if array.dtype.kind in "iub":  # integers/bools become float for math
        array = array.astype(DEFAULT_DTYPE)
    elif dtype is None and array.dtype == np.float32:
        array = array.astype(DEFAULT_DTYPE)
    return array


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Return ``value`` as a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A numpy array with a gradient tape.

    Parameters
    ----------
    data:
        Array-like value.  Integer inputs are promoted to ``float64``.
    requires_grad:
        Whether gradients should be accumulated for this tensor.

    Examples
    --------
    >>> x = Tensor([1.0, 2.0], requires_grad=True)
    >>> y = (x * x).sum()
    >>> y.backward()
    >>> x.grad
    array([2., 4.])
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _coerce_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result node, wiring the tape only when needed."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        elif grad.shape == self.grad.shape and self.grad.flags.writeable:
            # The first accumulation made a private copy (or was handed
            # an exclusive buffer), so adding in place is safe and saves
            # one temporary per fan-out edge.
            np.add(self.grad, grad, out=self.grad)
        else:
            # Shape mismatch (broadcast pending) or a read-only donated
            # view: rebuild out of place.
            self.grad = self.grad + grad

    def _accumulate_exclusive(self, grad: np.ndarray) -> None:
        """Gradient write that may take ownership of ``grad``.

        Backward closures call this instead of :meth:`_accumulate` when
        the array they pass is exclusively theirs to give away: freshly
        allocated inside the closure, or a view of the firing node's
        gradient that no other tensor will ever observe (single-parent
        reshapes, disjoint concat slices — the scheduler drops the
        node's own reference right after the closure runs).  Storing by
        reference skips the defensive copy the general path must make,
        which on embedding-heavy graphs is a large share of backward
        time.  Falls back to :meth:`_accumulate` for second
        accumulations and dtype mismatches.  Installed tape hooks see
        the donated write too, and the donation still happens, so an
        observed run adds in the same order as an unobserved one.
        Read-only views (e.g. ``sum``'s broadcast gradient) may be
        stored: the in-place branch of :meth:`_accumulate` checks
        writeability and falls back to an out-of-place add for them.
        """
        if self.grad is None and grad.dtype == self.data.dtype:
            if _tape_hooks:
                _report_accumulate(self, grad)
            self.grad = grad
        else:
            self._accumulate(grad)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.shape:
            grad = np.broadcast_to(grad, self.shape).astype(self.data.dtype)

        # Reverse-topological scheduling by dependency counting (Kahn's
        # algorithm).  One dict doubles as the visited marker and the
        # pending-consumer count, and one list is reused first as the
        # discovery stack and then as the ready stack — no order list,
        # no (node, flag) pairs, no recursion.  A node fires only after
        # every consumer reachable from ``self`` has propagated into it,
        # which is the same guarantee the previous sort-then-reverse
        # implementation gave.
        pending: dict[Tensor, int] = {}
        stack: list[Tensor] = [self]
        while stack:
            node = stack.pop()
            for parent in node._parents:
                if parent.requires_grad:
                    count = pending.get(parent)
                    if count is None:
                        pending[parent] = 1
                        stack.append(parent)
                    else:
                        pending[parent] = count + 1

        self._accumulate(grad)
        stack.append(self)
        while stack:
            node = stack.pop()
            node_backward = node._backward
            parents = node._parents
            if node_backward is not None:
                if node.grad is not None:
                    # The root keeps its grad after backward; hand its
                    # closure a private copy so donated views derived
                    # from it can never alias the kept array.
                    node_backward(
                        node.grad if node is not self else node.grad.copy()
                    )
                # Free intermediate gradients and the tape edge: leaves
                # keep their grad (they have no _backward), interior
                # nodes do not need theirs after propagation.
                node._backward = None
                node._parents = ()
                if node is not self:
                    node.grad = None
            for parent in parents:
                if parent.requires_grad:
                    remaining = pending[parent] - 1
                    pending[parent] = remaining
                    if remaining == 0:
                        stack.append(parent)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            # The self branch may donate even the pass-through grad
            # object: the other branch routes a pass-through grad to the
            # copying accumulate (see _give), so there is never a second
            # reference-holder for the same array.
            if self.requires_grad:
                self._accumulate_exclusive(unbroadcast(grad, self.shape))
            if other.requires_grad:
                _give(other, unbroadcast(grad, other.shape), grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            # As in __add__: the other branch negates into a fresh
            # array, so self may take the pass-through grad by reference.
            if self.requires_grad:
                self._accumulate_exclusive(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate_exclusive(unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate_exclusive(unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate_exclusive(
                    unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data
        a, b = self, other

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                if b.data.ndim == 1:
                    # (..., n) @ (n,) -> (...,): grad has shape (...,)
                    grad_a = np.expand_dims(grad, -1) * b.data
                else:
                    grad_a = grad @ np.swapaxes(b.data, -1, -2)
                if a.data.ndim == 1 and grad_a.ndim > 1:
                    grad_a = grad_a.sum(axis=tuple(range(grad_a.ndim - 1)))
                a._accumulate_exclusive(unbroadcast(grad_a, a.shape))
            if b.requires_grad:
                if a.data.ndim == 1:
                    grad_b = np.outer(a.data, grad) if grad.ndim == 1 else (
                        np.expand_dims(a.data, -1) * grad
                    )
                elif b.data.ndim == 1:
                    # grad shape (...,) ; a shape (..., n)
                    grad_b = (np.expand_dims(grad, -1) * a.data).reshape(-1, a.shape[-1]).sum(axis=0)
                else:
                    grad_b = np.swapaxes(a.data, -1, -2) @ grad
                b._accumulate_exclusive(unbroadcast(grad_b, b.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other) @ self

    # ------------------------------------------------------------------
    # comparison (non-differentiable; return numpy arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(input_shape) for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            # Donated as a read-only broadcast view: downstream closures
            # only read gradients, so nothing is materialized here.
            self._accumulate_exclusive(np.broadcast_to(g, input_shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
                    out = np.expand_dims(out, a)
            mask = (self.data == out).astype(self.data.dtype)
            # Split gradient between ties so the check against numerical
            # gradients stays exact.
            mask = mask / mask.sum(
                axis=axis if axis is not None else None, keepdims=True
            ) if axis is not None else mask / mask.sum()
            self._accumulate_exclusive(mask * g)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(np.squeeze(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        out_data = np.squeeze(self.data, axis=axis)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        """Differentiable indexing (slices, int arrays, masks).

        Integer-array indexing is the embedding-lookup primitive; its
        backward is a scatter-add (sort + ``np.add.reduceat`` segment
        sum, see :func:`_index_add`) so repeated indices accumulate
        correctly.
        """
        if isinstance(key, Tensor):
            key = key.data
        if isinstance(key, np.ndarray) and key.dtype.kind == "f":
            raise TypeError("float arrays cannot index tensors")
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if (
                self.grad is not None
                and self.grad.flags.writeable
                and self.grad.shape == self.data.shape
                and self.grad.dtype == self.data.dtype
            ):
                # Repeat gathers from the same table (the receptive-field
                # levels) scatter straight into the existing grad buffer
                # instead of materializing a dense zeros + add per call.
                # Installed tape hooks are shown the dense table this
                # write adds, but the write itself keeps the in-place
                # order, so observers do not change the sums they watch.
                if _tape_hooks:
                    full = np.zeros_like(self.data)
                    _index_add(full, key, grad)
                    _report_accumulate(self, full)
                _index_add(self.grad, key, grad)
                return
            full = np.zeros_like(self.data)
            _index_add(full, key, grad)
            self._accumulate_exclusive(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities (as methods for convenience)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable piecewise formulation.
        x = self.data
        out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value.

        The subgradient at 0 is taken as 0 (``np.sign`` semantics), the
        same convention the ``x * sign(x)`` idiom it replaces produced.
        Having |x| as a primitive keeps stable-softplus losses free of
        per-batch constant tensors, which is what lets the compiled
        executor (:mod:`repro.nn.compile`) capture them.
        """
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def __abs__(self) -> "Tensor":
        return self.abs()

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_exclusive(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            mask = np.ones_like(self.data)
            if low is not None:
                mask = mask * (self.data >= low)
            if high is not None:
                mask = mask * (self.data <= high)
            self._accumulate_exclusive(grad * mask)

        return Tensor._make(out_data, (self,), backward)


# ---------------------------------------------------------------------------
# tape hooks
# ---------------------------------------------------------------------------
# Every op funnels through two choke points: ``Tensor._make`` (node
# creation on the forward pass) and ``Tensor._accumulate`` (gradient
# write on the backward pass).  Observers — the tape sanitizer in
# ``repro.analysis`` and the op profiler in ``repro.obs`` — register a
# hooks object here instead of patching the class themselves, so several
# observers can be active at once and each sees every event.  With no
# hooks registered the class attributes ARE the pristine objects below;
# the default path has zero added frames (tests assert identity).

_PRISTINE_MAKE = Tensor.__dict__["_make"]
_PRISTINE_ACCUMULATE = Tensor.__dict__["_accumulate"]

_tape_hooks: list = []


def _hooked_make(data, parents, backward):
    for hooks in _tape_hooks:
        hooks.on_make(data, parents, backward)
    return _PRISTINE_MAKE.__func__(data, parents, backward)


def _hooked_accumulate(tensor_self, grad):
    for hooks in _tape_hooks:
        hooks.on_accumulate(tensor_self, grad)
    return _PRISTINE_ACCUMULATE(tensor_self, grad)


def _report_accumulate(tensor, grad):
    """Show hooks a gradient write that bypasses ``Tensor._accumulate``.

    Called from the same frame depth as :func:`_hooked_accumulate`, so
    observers that walk the stack find the op's closure at the same
    place.
    """
    for hooks in _tape_hooks:
        hooks.on_accumulate(tensor, grad)


def install_tape_hooks(hooks) -> None:
    """Register a hooks object on the autograd tape.

    ``hooks`` must provide ``on_make(data, parents, backward)`` (called
    before each result node is created; ``data`` is the raw op output)
    and ``on_accumulate(tensor, grad)`` (called before each gradient
    write).  Hooks fire in registration order.  The first installation
    swaps the tape choke points for dispatching wrappers; they are
    restored to the pristine functions when the last hook is removed.
    """
    if any(existing is hooks for existing in _tape_hooks):
        raise ValueError("tape hooks object is already installed")
    _tape_hooks.append(hooks)
    if len(_tape_hooks) == 1:
        Tensor._make = staticmethod(_hooked_make)
        Tensor._accumulate = _hooked_accumulate


def uninstall_tape_hooks(hooks) -> None:
    """Remove a previously installed hooks object (identity match)."""
    for position, existing in enumerate(_tape_hooks):
        if existing is hooks:
            del _tape_hooks[position]
            break
    else:
        raise ValueError("tape hooks object is not installed")
    if not _tape_hooks:
        Tensor._make = _PRISTINE_MAKE
        Tensor._accumulate = _PRISTINE_ACCUMULATE


def tape_hooks_active() -> bool:
    """True while at least one hooks object is registered."""
    return bool(_tape_hooks)
