"""Trace-once/replay-many compiled executor for the autograd tape.

Every KGAG train step with the same batch shape builds the *same* graph:
the receptive field is a fixed-K dense gather, so the op sequence, all
array shapes, and even the backward firing order are invariants of the
``(group_triplets, user_pairs)`` shape signature.  The dynamic tape pays
Python dispatch, closure allocation, and fresh temporaries for that
identical structure on every step.

This module removes the interpreter:

* **Trace** — run one planned forward pass with a recording hooks object
  installed on the tape-hook registry (the same choke points the
  sanitizer and profiler use).  The recorder captures every
  ``Tensor._make`` in execution order; the live graph reached from the
  loss supplies parents, shapes, and the backward closures.
* **Specialize** — identify each op from its backward closure's
  ``__qualname__``, pull the static parameters out of the closure cells,
  and emit one flat list of forward kernels and one precomputed
  backward firing schedule (the exact Kahn order ``Tensor.backward``
  would produce).  Batch-dependent index arrays are bound by object
  identity against the *slots* the caller passes (see
  ``TrainStepPlan.slot_arrays``); everything else is baked in as a
  constant.  Kernels write into views of one :class:`Arena` block,
  which every program traced against it shares, and keep the donation
  / segment-sum scatter semantics of the dynamic tape, so replayed
  values and gradients are bit-exact (``np.array_equal``) with what
  ``loss.backward()`` computes.
* **Replay** — :meth:`CompiledProgram.replay` takes a fresh list of slot
  arrays (a new batch of the same signature), runs the flat program,
  assigns ``parameter.grad`` for every trainable leaf, and returns the
  loss value.  Between replays a program keeps only its constants and
  its arena views: the forward values are dropped on return.

Any op outside the supported set, a closure that captured
batch-dependent state the slots cannot rebind (``masked_softmax``'s
mask, ``where``'s condition), or a graph node created outside the traced
step raises :class:`TraceError` — callers fall back to the dynamic tape.
The layering rule holds: this module knows nothing about ``repro.core``;
the trainer supplies a forward thunk and the slot arrays.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import (
    Tensor,
    _index_add,
    install_tape_hooks,
    tape_hooks_active,
    unbroadcast,
    uninstall_tape_hooks,
)

__all__ = [
    "Arena",
    "TraceError",
    "CompiledProgram",
    "trace_step",
    "SUPPORTED_OPS",
]


class TraceError(RuntimeError):
    """A step could not be captured (or replayed) as a compiled program."""


# ---------------------------------------------------------------------------
# gradient accumulation — exact replicas of Tensor._accumulate[_exclusive]
# ---------------------------------------------------------------------------
# ``grads`` is a flat list indexed by value id.  The semantics (private
# first copy, in-place second accumulation when shapes match and the
# buffer is writeable, donation of exclusively-owned arrays) mirror the
# dynamic tape line for line; replay only runs with no tape hooks
# installed, so the pristine-accumulate condition of the dynamic
# donation path is always satisfied here.


def _acc(grads: list, vid: int, g: np.ndarray, dtype) -> None:
    cur = grads[vid]
    if cur is None:
        grads[vid] = g.astype(dtype, copy=True)
    elif g.shape == cur.shape and cur.flags.writeable:
        np.add(cur, g, out=cur)
    else:
        grads[vid] = cur + g


def _acc_excl(grads: list, vid: int, g: np.ndarray, dtype) -> None:
    if grads[vid] is None and g.dtype == dtype:
        grads[vid] = g
    else:
        _acc(grads, vid, g, dtype)


# ---------------------------------------------------------------------------
# trace capture
# ---------------------------------------------------------------------------


class _TraceRecorder:
    """Tape hooks object that records every node creation in order."""

    def __init__(self) -> None:
        self.entries: list[tuple] = []

    def on_make(self, data, parents, backward) -> None:
        self.entries.append((data, tuple(parents), backward))

    def on_accumulate(self, tensor, grad) -> None:  # pragma: no cover
        pass  # no gradients flow during the traced forward


_BACKWARD_SUFFIX = ".<locals>.backward"


def _op_name(backward: Callable) -> str:
    qual = getattr(backward, "__qualname__", "")
    if not qual.endswith(_BACKWARD_SUFFIX):
        raise TraceError(f"unrecognized tape closure {qual!r}")
    return qual[: -len(_BACKWARD_SUFFIX)]


def _free_vars(backward: Callable) -> dict:
    cells = backward.__closure__ or ()
    return dict(zip(backward.__code__.co_freevars, (c.cell_contents for c in cells)))


class _Node:
    """Static description of one traced interior node."""

    __slots__ = ("vid", "shape", "dtype", "pv", "pshapes", "pdtypes", "preq", "cv")

    def __init__(self, vid, shape, dtype, pv, pshapes, pdtypes, preq, cv):
        self.vid = vid
        self.shape = shape
        self.dtype = dtype
        self.pv = pv
        self.pshapes = pshapes
        self.pdtypes = pdtypes
        self.preq = preq
        self.cv = cv


def _round_up(nbytes: int, granule: int = 64) -> int:
    return (nbytes + granule - 1) // granule * granule


#: Timeline position meaning "alive until after the replay returns" —
#: the buffer can never be pooled with a later one.
_END = 1 << 60


class Arena:
    """The one byte block that every program traced against it shares.

    Each program's kernel buffers are views at fixed offsets from the
    block's start, so programs that never replay at the same time (the
    per-signature programs of one trainer) need only as many bytes as
    the largest of them.  :meth:`reserve` replaces the block when a new
    program needs more: programs bound earlier keep views of the old
    block, so the caller drops them (:attr:`CompiledProgram.arena_base`
    is no longer :attr:`base`) and traces them again when needed.
    """

    def __init__(self) -> None:
        self.base: np.ndarray | None = None

    def reserve(self, nbytes: int) -> np.ndarray:
        """The block, replaced by a larger one if it holds < ``nbytes``."""
        if self.base is None or self.base.size < nbytes:
            # A float64 base guarantees 8-byte alignment for every view
            # (offsets are multiples of 64).
            self.base = np.empty(
                max(_round_up(nbytes), 64) // 8, np.float64
            ).view(np.uint8)
        return self.base


class _BuildCtx:
    """Build-time services for the op builders.

    Besides slot lookup, the context owns the *buffer arena*: every
    persistent kernel buffer (forward outputs, gradient edges, masks,
    scratch) is carved out of one contiguous byte block instead of
    being a separate heap allocation, and buffers whose live intervals
    on the replay timeline do not overlap share the same region.
    Builders run twice — a planning pass that records requests, then a
    binding pass that hands out 64-byte-aligned views in the identical
    deterministic order.  The compact, reused layout keeps the replay
    working set close to the dynamic tape's peak-live footprint (the
    original one-heap-block-per-buffer layout held every intermediate
    of the step simultaneously, and replay latency degraded once that
    stopped fitting in cache).

    Request roles (the ``role=`` argument of :meth:`empty`) name the
    buffer's lifetime class; :func:`_specialize` turns them into live
    intervals using the op-level metadata tables below:

    * ``fwd`` — the node's forward output, written at its forward
      position and alive until the last forward or backward read of
      its storage (views alias their parent's storage).
    * ``scratch`` — used only inside the node's own forward call.
    * ``mask`` — written by the forward, read once when the node fires.
    * ``grad`` — a gradient-edge buffer donated to a parent's grad
      accumulator when the node fires; alive until the last fire that
      can transitively hold it (``_END`` when that is a parameter).
    * ``bscratch`` — used only inside the node's own backward call.
    """

    def __init__(self, slot_map: dict[int, int]):
        self.slot_map = slot_map
        self._phase = "plan"
        #: planning pass: one (role, nbytes, vid) triple per request.
        self.requests: list[tuple[str, int, int]] = []
        self._offsets: list[int] = []
        self._base: np.ndarray | None = None
        self._next = 0
        #: the node whose builder is currently running (set by the
        #: specializer around each builder call).
        self.node: _Node | None = None
        self.arena_nbytes = 0
        self.requested_nbytes = 0

    def slot_for(self, value) -> int | None:
        """Slot index for a closure-captured array, or None if static."""
        if isinstance(value, np.ndarray):
            return self.slot_map.get(id(value))
        return None

    def empty(self, shape, dtype, role: str = "fwd") -> np.ndarray:
        """An uninitialized persistent buffer, arena-backed when bound."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if self._phase == "plan":
            self.requests.append((role, nbytes, self.node.vid))
            return np.empty(shape, dtype)
        offset = self._offsets[self._next]
        self._next += 1
        return self._base[offset : offset + nbytes].view(dtype).reshape(shape)

    def bind_arena(self, intervals: list[tuple[int, int]], arena: Arena) -> None:
        """Assign arena regions from the requests' live intervals.

        ``intervals[i]`` is the (birth, death) of ``requests[i]`` on
        the replay timeline.  Regions are reused across requests of the
        same rounded size whose intervals are disjoint: a region freed
        at ``death`` is available to births strictly after it.  The
        views are carved from ``arena``'s block, grown to fit first.
        """
        order = sorted(
            range(len(self.requests)), key=lambda i: (intervals[i][0], i)
        )
        free: dict[int, list[list]] = {}
        offsets = [0] * len(self.requests)
        cursor = 0
        requested = 0
        for i in order:
            _, nbytes, _ = self.requests[i]
            birth, death = intervals[i]
            size = _round_up(nbytes)
            requested += size
            bucket = free.setdefault(size, [])
            for entry in bucket:
                if entry[1] < birth:
                    offsets[i] = entry[0]
                    entry[1] = death
                    break
            else:
                offsets[i] = cursor
                cursor += size
                bucket.append([cursor - size, death])
        self._offsets = offsets
        self._base = arena.reserve(cursor)
        self.arena_nbytes = cursor
        self.requested_nbytes = requested
        self._next = 0
        self._phase = "bind"


_BUILDERS: dict[str, Callable] = {}


def _op(name: str):
    def register(builder):
        _BUILDERS[name] = builder
        return builder

    return register


# ---------------------------------------------------------------------------
# op kernels
# ---------------------------------------------------------------------------
# Each builder returns ``(fwd, bwd)`` closures:
#   fwd(vals, slots)            — writes vals[node.vid]
#   bwd(g, vals, grads, slots)  — accumulates into the parents' grads
# ``bwd`` is discarded for nodes that do not require grad.  Kernels
# mirror the dynamic closures' numpy expressions exactly (same ufuncs,
# same evaluation order) so results are bitwise identical; the only
# liberties taken are preallocated ``out=`` buffers and sharing of
# subexpressions the dynamic code evaluates repeatedly to equal values.


@_op("Tensor.__add__")
def _b_add(b, n):
    ov = n.vid
    av, bv = n.pv
    areq, breq = n.preq
    ash, bsh = n.pshapes
    adt, bdt = n.pdtypes
    same_a = ash == n.shape
    same_b = bsh == n.shape
    buf = b.empty(n.shape, n.dtype)

    def fwd(vals, slots):
        vals[ov] = np.add(vals[av], vals[bv], out=buf)

    def bwd(g, vals, grads, slots):
        if areq:
            _acc_excl(grads, av, g if same_a else unbroadcast(g, ash), adt)
        if breq:
            gb = g if same_b else unbroadcast(g, bsh)
            if gb is g:  # pass-through grad may reach a sibling: copy path
                _acc(grads, bv, gb, bdt)
            else:
                _acc_excl(grads, bv, gb, bdt)

    return fwd, bwd


@_op("Tensor.__sub__")
def _b_sub(b, n):
    ov = n.vid
    av, bv = n.pv
    areq, breq = n.preq
    ash, bsh = n.pshapes
    adt, bdt = n.pdtypes
    same_a = ash == n.shape
    buf = b.empty(n.shape, n.dtype)
    ebuf = b.empty(n.shape, bdt, role="grad") if breq and bsh == n.shape else None

    def fwd(vals, slots):
        vals[ov] = np.subtract(vals[av], vals[bv], out=buf)

    def bwd(g, vals, grads, slots):
        if areq:
            _acc_excl(grads, av, g if same_a else unbroadcast(g, ash), adt)
        if breq:
            if ebuf is not None:
                _acc_excl(grads, bv, np.negative(g, out=ebuf), bdt)
            else:
                _acc_excl(grads, bv, unbroadcast(np.negative(g), bsh), bdt)

    return fwd, bwd


@_op("Tensor.__mul__")
def _b_mul(b, n):
    ov = n.vid
    av, bv = n.pv
    areq, breq = n.preq
    ash, bsh = n.pshapes
    adt, bdt = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf_a = b.empty(ash, adt, role="grad") if areq and ash == n.shape else None
    ebuf_b = b.empty(bsh, bdt, role="grad") if breq and bsh == n.shape else None

    def fwd(vals, slots):
        vals[ov] = np.multiply(vals[av], vals[bv], out=buf)

    def bwd(g, vals, grads, slots):
        if areq:
            if ebuf_a is not None:
                _acc_excl(grads, av, np.multiply(g, vals[bv], out=ebuf_a), adt)
            else:
                _acc_excl(grads, av, unbroadcast(g * vals[bv], ash), adt)
        if breq:
            if ebuf_b is not None:
                _acc_excl(grads, bv, np.multiply(g, vals[av], out=ebuf_b), bdt)
            else:
                _acc_excl(grads, bv, unbroadcast(g * vals[av], bsh), bdt)

    return fwd, bwd


@_op("Tensor.__truediv__")
def _b_truediv(b, n):
    ov = n.vid
    av, bv = n.pv
    areq, breq = n.preq
    ash, bsh = n.pshapes
    adt, bdt = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf_a = b.empty(ash, adt, role="grad") if areq and ash == n.shape else None

    def fwd(vals, slots):
        vals[ov] = np.divide(vals[av], vals[bv], out=buf)

    def bwd(g, vals, grads, slots):
        if areq:
            if ebuf_a is not None:
                _acc_excl(grads, av, np.divide(g, vals[bv], out=ebuf_a), adt)
            else:
                _acc_excl(grads, av, unbroadcast(g / vals[bv], ash), adt)
        if breq:
            _acc_excl(
                grads, bv, unbroadcast(-g * vals[av] / (vals[bv] ** 2), bsh), bdt
            )

    return fwd, bwd


@_op("Tensor.__neg__")
def _b_neg(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf = b.empty(n.shape, pdt, role="grad") if preq else None

    def fwd(vals, slots):
        vals[ov] = np.negative(vals[pv], out=buf)

    def bwd(g, vals, grads, slots):
        if preq:
            _acc_excl(grads, pv, np.negative(g, out=ebuf), pdt)

    return fwd, bwd


@_op("Tensor.__pow__")
def _b_pow(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    exponent = n.cv["exponent"]
    buf = b.empty(n.shape, n.dtype)

    def fwd(vals, slots):
        vals[ov] = np.power(vals[pv], exponent, out=buf)

    def bwd(g, vals, grads, slots):
        if preq:
            _acc_excl(grads, pv, g * exponent * vals[pv] ** (exponent - 1), pdt)

    return fwd, bwd


@_op("Tensor.__matmul__")
def _b_matmul(b, n):
    ov = n.vid
    av, bv = n.pv
    areq, breq = n.preq
    ash, bsh = n.pshapes
    adt, bdt = n.pdtypes
    a_nd, b_nd = len(ash), len(bsh)
    buf = b.empty(n.shape, n.dtype)
    # g @ b^T lands directly at a's shape whenever b is a plain matrix
    # and a carries the batch dims — the GEMM-heavy common case.
    gemm_a = (
        b_nd == 2 and a_nd >= 2 and n.shape[:-1] + (bsh[-2],) == ash
    )
    ebuf_a = b.empty(ash, adt, role="grad") if areq and gemm_a else None
    gemm_b = a_nd == 2 and b_nd == 2 and (ash[-1], n.shape[-1]) == bsh
    ebuf_b = b.empty(bsh, bdt, role="grad") if breq and gemm_b else None

    def fwd(vals, slots):
        vals[ov] = np.matmul(vals[av], vals[bv], out=buf)

    def bwd(g, vals, grads, slots):
        if areq:
            if ebuf_a is not None:
                grad_a = np.matmul(
                    g, np.swapaxes(vals[bv], -1, -2), out=ebuf_a
                )
            else:
                if b_nd == 1:
                    grad_a = np.expand_dims(g, -1) * vals[bv]
                else:
                    grad_a = g @ np.swapaxes(vals[bv], -1, -2)
                if a_nd == 1 and grad_a.ndim > 1:
                    grad_a = grad_a.sum(axis=tuple(range(grad_a.ndim - 1)))
                grad_a = unbroadcast(grad_a, ash)
            _acc_excl(grads, av, grad_a, adt)
        if breq:
            if ebuf_b is not None:
                grad_b = np.matmul(np.swapaxes(vals[av], -1, -2), g, out=ebuf_b)
            else:
                if a_nd == 1:
                    grad_b = (
                        np.outer(vals[av], g)
                        if g.ndim == 1
                        else np.expand_dims(vals[av], -1) * g
                    )
                elif b_nd == 1:
                    grad_b = (
                        (np.expand_dims(g, -1) * vals[av])
                        .reshape(-1, ash[-1])
                        .sum(axis=0)
                    )
                else:
                    grad_b = np.swapaxes(vals[av], -1, -2) @ g
                grad_b = unbroadcast(grad_b, bsh)
            _acc_excl(grads, bv, grad_b, bdt)

    return fwd, bwd


@_op("Tensor.sum")
def _b_sum(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    axis = n.cv["axis"]
    keepdims = n.cv["keepdims"]
    input_shape = n.cv["input_shape"]
    buf = b.empty(n.shape, n.dtype)
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        expand_axes = sorted(a % len(input_shape) for a in axes)
    else:
        expand_axes = ()

    def fwd(vals, slots):
        vals[ov] = np.sum(vals[pv], axis=axis, keepdims=keepdims, out=buf)

    def bwd(g, vals, grads, slots):
        if not preq:
            return
        for a in expand_axes:
            g = np.expand_dims(g, a)
        # Read-only broadcast view, donated exactly as the dynamic op does.
        _acc_excl(grads, pv, np.broadcast_to(g, input_shape), pdt)

    return fwd, bwd


@_op("Tensor.max")
def _b_max(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    (psh,) = n.pshapes
    axis = n.cv["axis"]
    keepdims = n.cv["keepdims"]
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        expand_axes = sorted(a % len(psh) for a in axes)
    else:
        expand_axes = ()

    def fwd(vals, slots):
        vals[ov] = vals[pv].max(axis=axis, keepdims=keepdims)

    def bwd(g, vals, grads, slots):
        if not preq:
            return
        out = vals[ov]
        for a in expand_axes:
            g = np.expand_dims(g, a)
            out = np.expand_dims(out, a)
        mask = (vals[pv] == out).astype(pdt)
        mask = (
            mask / mask.sum(axis=axis, keepdims=True)
            if axis is not None
            else mask / mask.sum()
        )
        _acc_excl(grads, pv, mask * g, pdt)

    return fwd, bwd


def _view_reshape(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    original = n.cv["original"]
    shape = n.shape

    def fwd(vals, slots):
        vals[ov] = vals[pv].reshape(shape)

    def bwd(g, vals, grads, slots):
        if preq:
            _acc_excl(grads, pv, g.reshape(original), pdt)

    return fwd, bwd


_BUILDERS["Tensor.reshape"] = _view_reshape
# np.squeeze is a reshape view with identical values; backward matches.
_BUILDERS["Tensor.squeeze"] = _view_reshape


@_op("Tensor.transpose")
def _b_transpose(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    inverse = n.cv["inverse"]
    axes = tuple(int(a) for a in np.argsort(inverse))

    def fwd(vals, slots):
        vals[ov] = vals[pv].transpose(axes)

    def bwd(g, vals, grads, slots):
        if preq:
            _acc_excl(grads, pv, g.transpose(inverse), pdt)

    return fwd, bwd


@_op("Tensor.expand_dims")
def _b_expand_dims(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    axis = n.cv["axis"]

    def fwd(vals, slots):
        vals[ov] = np.expand_dims(vals[pv], axis)

    def bwd(g, vals, grads, slots):
        if preq:
            _acc_excl(grads, pv, np.squeeze(g, axis=axis), pdt)

    return fwd, bwd


@_op("Tensor.__getitem__")
def _b_getitem(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (psh,) = n.pshapes
    (pdt,) = n.pdtypes
    key = n.cv["key"]
    key_slot = b.slot_for(key)
    take = (
        key_slot is not None
        and isinstance(key, np.ndarray)
        and key.dtype.kind in "iu"
        and len(psh) >= 1
    )
    if key_slot is not None:
        key = None  # the traced batch's array; replays read the slot

    if take:
        # Deliberately *not* arena-backed: ``np.take`` with ``out=`` and
        # the default ``mode="raise"`` falls off numpy's fast path (~4x
        # slower than the allocating form), so a fresh output per replay
        # is the cheaper option here.

        def fwd(vals, slots):
            vals[ov] = np.take(vals[pv], slots[key_slot], axis=0)

    elif key_slot is not None:

        def fwd(vals, slots):
            vals[ov] = vals[pv][slots[key_slot]]

    else:

        def fwd(vals, slots):
            vals[ov] = vals[pv][key]

    def bwd(g, vals, grads, slots):
        if not preq:
            return
        k = slots[key_slot] if key_slot is not None else key
        cur = grads[pv]
        if (
            cur is not None
            and cur.flags.writeable
            and cur.shape == psh
            and cur.dtype == pdt
        ):
            _index_add(cur, k, g)
            return
        # A fresh table-sized buffer per replay, as on the tape: it
        # becomes the parent's gradient, so a program keeps none.
        full = np.zeros(psh, pdt)
        _index_add(full, k, g)
        _acc_excl(grads, pv, full, pdt)

    return fwd, bwd


@_op("Tensor.exp")
def _b_exp(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf = b.empty(n.shape, pdt, role="grad") if preq else None

    def fwd(vals, slots):
        vals[ov] = np.exp(vals[pv], out=buf)

    def bwd(g, vals, grads, slots):
        if preq:
            _acc_excl(grads, pv, np.multiply(g, vals[ov], out=ebuf), pdt)

    return fwd, bwd


@_op("Tensor.log")
def _b_log(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf = b.empty(n.shape, pdt, role="grad") if preq else None

    def fwd(vals, slots):
        vals[ov] = np.log(vals[pv], out=buf)

    def bwd(g, vals, grads, slots):
        if preq:
            _acc_excl(grads, pv, np.divide(g, vals[pv], out=ebuf), pdt)

    return fwd, bwd


@_op("Tensor.tanh")
def _b_tanh(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf = b.empty(n.shape, pdt, role="grad") if preq else None

    def fwd(vals, slots):
        vals[ov] = np.tanh(vals[pv], out=buf)

    def bwd(g, vals, grads, slots):
        if preq:
            # grad * (1 - out**2); ndarray ** 2 dispatches np.square.
            np.square(vals[ov], out=ebuf)
            np.subtract(1.0, ebuf, out=ebuf)
            _acc_excl(grads, pv, np.multiply(g, ebuf, out=ebuf), pdt)

    return fwd, bwd


@_op("Tensor.sigmoid")
def _b_sigmoid(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    s1 = b.empty(n.shape, n.dtype, role="scratch")
    s2 = b.empty(n.shape, n.dtype, role="scratch")
    e1 = b.empty(n.shape, pdt, role="grad") if preq else None
    e2 = b.empty(n.shape, pdt, role="bscratch") if preq else None

    def fwd(vals, slots):
        x = vals[pv]
        # The dynamic op evaluates exp(-|x|) three times to identical
        # bits; compute it once and reuse it — values are unchanged.
        np.abs(x, out=s1)
        np.negative(s1, out=s1)
        np.exp(s1, out=s1)  # e = exp(-|x|)
        np.add(1.0, s1, out=s2)  # 1 + e
        np.divide(s1, s2, out=buf)  # e / (1 + e)   (x < 0 branch)
        np.divide(1.0, s2, out=s2)  # 1 / (1 + e)   (x >= 0 branch)
        np.copyto(buf, s2, where=x >= 0)
        vals[ov] = buf

    def bwd(g, vals, grads, slots):
        if preq:
            out = vals[ov]
            np.multiply(g, out, out=e1)
            np.subtract(1.0, out, out=e2)
            _acc_excl(grads, pv, np.multiply(e1, e2, out=e1), pdt)

    return fwd, bwd


@_op("Tensor.abs")
def _b_abs(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf = b.empty(n.shape, pdt, role="grad") if preq else None

    def fwd(vals, slots):
        vals[ov] = np.abs(vals[pv], out=buf)

    def bwd(g, vals, grads, slots):
        if preq:
            np.sign(vals[pv], out=ebuf)
            _acc_excl(grads, pv, np.multiply(g, ebuf, out=ebuf), pdt)

    return fwd, bwd


@_op("Tensor.relu")
def _b_relu(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    mbuf = b.empty(n.shape, bool, role="bscratch") if preq else None
    ebuf = b.empty(n.shape, pdt, role="grad") if preq else None

    def fwd(vals, slots):
        vals[ov] = np.maximum(vals[pv], 0.0, out=buf)

    def bwd(g, vals, grads, slots):
        if preq:
            np.greater(vals[pv], 0, out=mbuf)
            _acc_excl(grads, pv, np.multiply(g, mbuf, out=ebuf), pdt)

    return fwd, bwd


@_op("Tensor.clip")
def _b_clip(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    low = n.cv["low"]
    high = n.cv["high"]

    def fwd(vals, slots):
        vals[ov] = np.clip(vals[pv], low, high)

    def bwd(g, vals, grads, slots):
        if not preq:
            return
        x = vals[pv]
        mask = np.ones_like(x)
        if low is not None:
            mask = mask * (x >= low)
        if high is not None:
            mask = mask * (x <= high)
        _acc_excl(grads, pv, g * mask, pdt)

    return fwd, bwd


@_op("concat")
def _b_concat(b, n):
    ov = n.vid
    pvs = n.pv
    preqs = n.preq
    pdts = n.pdtypes
    axis = n.cv["axis"]
    offsets = n.cv["offsets"]
    ndim = len(n.shape)
    slices = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        index = [slice(None)] * ndim
        index[axis] = slice(start, stop)
        slices.append(tuple(index))
    buf = b.empty(n.shape, n.dtype)

    def fwd(vals, slots):
        vals[ov] = np.concatenate([vals[v] for v in pvs], axis=axis, out=buf)

    def bwd(g, vals, grads, slots):
        for pv, preq, pdt, index in zip(pvs, preqs, pdts, slices):
            if preq:
                # Disjoint views of the node's grad: exclusive per parent.
                _acc_excl(grads, pv, g[index], pdt)

    return fwd, bwd


@_op("stack")
def _b_stack(b, n):
    ov = n.vid
    pvs = n.pv
    preqs = n.preq
    pdts = n.pdtypes
    axis = n.cv["axis"]
    buf = b.empty(n.shape, n.dtype)

    def fwd(vals, slots):
        vals[ov] = np.stack([vals[v] for v in pvs], axis=axis, out=buf)

    def bwd(g, vals, grads, slots):
        pieces = np.moveaxis(g, axis, 0)
        for pv, preq, pdt, piece in zip(pvs, preqs, pdts, pieces):
            if preq:
                _acc_excl(grads, pv, piece, pdt)

    return fwd, bwd


@_op("maximum")
def _b_maximum(b, n):
    ov = n.vid
    av, bv = n.pv
    areq, breq = n.preq
    ash, bsh = n.pshapes
    adt, bdt = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    wins = b.empty(n.shape, bool, role="mask")
    ebuf_a = b.empty(ash, adt, role="grad") if areq and ash == n.shape else None
    ebuf_b = b.empty(bsh, bdt, role="grad") if breq and bsh == n.shape else None

    def fwd(vals, slots):
        np.greater_equal(vals[av], vals[bv], out=wins)
        vals[ov] = np.maximum(vals[av], vals[bv], out=buf)

    def bwd(g, vals, grads, slots):
        if areq:
            if ebuf_a is not None:
                _acc_excl(grads, av, np.multiply(g, wins, out=ebuf_a), adt)
            else:
                _acc_excl(grads, av, unbroadcast(g * wins, ash), adt)
        if breq:
            if ebuf_b is not None:
                _acc_excl(grads, bv, np.multiply(g, ~wins, out=ebuf_b), bdt)
            else:
                _acc_excl(grads, bv, unbroadcast(g * ~wins, bsh), bdt)

    return fwd, bwd


@_op("softmax")
def _b_softmax(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    axis = n.cv["axis"]
    buf = b.empty(n.shape, n.dtype)
    s1 = b.empty(n.shape, n.dtype, role="scratch")
    e1 = b.empty(n.shape, pdt, role="grad") if preq else None

    def fwd(vals, slots):
        x = vals[pv]
        np.subtract(x, x.max(axis=axis, keepdims=True), out=s1)
        np.exp(s1, out=s1)
        vals[ov] = np.divide(s1, s1.sum(axis=axis, keepdims=True), out=buf)

    def bwd(g, vals, grads, slots):
        if preq:
            out = vals[ov]
            np.multiply(g, out, out=e1)
            inner = e1.sum(axis=axis, keepdims=True)
            np.subtract(g, inner, out=e1)
            _acc_excl(grads, pv, np.multiply(out, e1, out=e1), pdt)

    return fwd, bwd


@_op("log_softmax")
def _b_log_softmax(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    axis = n.cv["axis"]

    def fwd(vals, slots):
        x = vals[pv]
        shifted = x - x.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        vals[ov] = shifted - log_norm

    def bwd(g, vals, grads, slots):
        if preq:
            soft = np.exp(vals[ov])
            _acc_excl(
                grads, pv, g - soft * g.sum(axis=axis, keepdims=True), pdt
            )

    return fwd, bwd


@_op("leaky_relu")
def _b_leaky_relu(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    negative_slope = n.cv["negative_slope"]

    def fwd(vals, slots):
        x = vals[pv]
        vals[ov] = np.where(x > 0, x, negative_slope * x)

    def bwd(g, vals, grads, slots):
        if preq:
            x = vals[pv]
            _acc_excl(grads, pv, g * np.where(x > 0, 1.0, negative_slope), pdt)

    return fwd, bwd


@_op("broadcast_to")
def _b_broadcast_to(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (psh,) = n.pshapes
    (pdt,) = n.pdtypes
    shape = n.shape

    def fwd(vals, slots):
        vals[ov] = np.broadcast_to(vals[pv], shape)

    def bwd(g, vals, grads, slots):
        if preq:
            g2 = unbroadcast(g, psh)
            if g2 is g:  # pass-through: copying path, as _give does
                _acc(grads, pv, g2, pdt)
            else:
                _acc_excl(grads, pv, g2, pdt)

    return fwd, bwd


@_op("neighbor_scores")
def _b_neighbor_scores(b, n):
    ov = n.vid
    rv, qv = n.pv
    rreq, qreq = n.preq
    rsh, qsh = n.pshapes
    rdt, qdt = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf_r = b.empty(rsh, rdt, role="grad") if rreq else None
    ebuf_q = b.empty(qsh, qdt, role="grad") if qreq else None

    def fwd(vals, slots):
        vals[ov] = np.einsum("bwkd,bd->bwk", vals[rv], vals[qv], out=buf)

    def bwd(g, vals, grads, slots):
        if rreq:
            _acc_excl(
                grads, rv, np.einsum("bwk,bd->bwkd", g, vals[qv], out=ebuf_r), rdt
            )
        if qreq:
            _acc_excl(
                grads, qv, np.einsum("bwk,bwkd->bd", g, vals[rv], out=ebuf_q), qdt
            )

    return fwd, bwd


@_op("neighbor_mix")
def _b_neighbor_mix(b, n):
    ov = n.vid
    wv, nv = n.pv
    wreq, nreq = n.preq
    wsh, nsh = n.pshapes
    wdt, ndt = n.pdtypes
    buf = b.empty(n.shape, n.dtype)
    ebuf_w = b.empty(wsh, wdt, role="grad") if wreq else None
    ebuf_n = b.empty(nsh, ndt, role="grad") if nreq else None

    def fwd(vals, slots):
        vals[ov] = np.einsum("bwk,bwkd->bwd", vals[wv], vals[nv], out=buf)

    def bwd(g, vals, grads, slots):
        if wreq:
            _acc_excl(
                grads, wv, np.einsum("bwd,bwkd->bwk", g, vals[nv], out=ebuf_w), wdt
            )
        if nreq:
            _acc_excl(
                grads, nv, np.einsum("bwk,bwd->bwkd", vals[wv], g, out=ebuf_n), ndt
            )

    return fwd, bwd


@_op("row_gather")
def _b_row_gather(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (pdt,) = n.pdtypes
    cols = n.cv["cols"]
    batch = n.cv["batch"]
    width = n.cv["width"]
    col_slot = b.slot_for(cols)
    row_offsets = np.arange(batch, dtype=np.int64)[:, None] * width
    cellbuf = b.empty(cols.shape, np.int64, role="bscratch")
    if col_slot is not None:
        cols = None  # the traced batch's array; replays read the slot

    def fwd(vals, slots):
        k = slots[col_slot] if col_slot is not None else cols
        vals[ov] = np.take_along_axis(vals[pv], k, axis=1)

    def bwd(g, vals, grads, slots):
        if not preq:
            return
        k = slots[col_slot] if col_slot is not None else cols
        np.add(k, row_offsets, out=cellbuf)
        full = np.bincount(
            cellbuf.ravel(), weights=g.ravel(), minlength=batch * width
        ).reshape(batch, width)
        _acc_excl(grads, pv, full, pdt)

    return fwd, bwd


@_op("tile")
def _b_tile(b, n):
    ov = n.vid
    (pv,) = n.pv
    (preq,) = n.preq
    (psh,) = n.pshapes
    (pdt,) = n.pdtypes
    interleaved = n.cv["interleaved"]
    rep_axes = n.cv["rep_axes"]
    full_reps = tuple(interleaved[0::2])

    def fwd(vals, slots):
        vals[ov] = np.tile(vals[pv], full_reps)

    def bwd(g, vals, grads, slots):
        if preq:
            folded = g.reshape(interleaved).sum(axis=rep_axes)
            _acc_excl(grads, pv, folded.reshape(psh), pdt)

    return fwd, bwd


#: Ops the specializer can capture.  ``where`` and ``masked_softmax`` are
#: deliberately absent: their backward closures bake in batch-dependent
#: arrays (the condition / the mask) that slots cannot rebind, so steps
#: using them fall back to the dynamic tape.
SUPPORTED_OPS = frozenset(_BUILDERS)


# ---------------------------------------------------------------------------
# liveness metadata
# ---------------------------------------------------------------------------
# Per-op facts the buffer planner needs.  Everything here errs on the
# long side: an op missing from a table just keeps its buffers alive
# longer than strictly necessary, which costs arena bytes, never
# correctness.

#: Ops whose forward output is (or may be) a *view* of their first
#: parent's storage — reads of the output are reads of the parent's
#: buffer.  ``__getitem__`` is listed conservatively: its basic-index
#: path returns a view, and its ``np.take`` path allocates a fresh
#: output, so treating both as aliases only over-extends the parent's
#: lifetime (safe).
_VIEW_OPS = frozenset(
    {
        "Tensor.reshape",
        "Tensor.squeeze",
        "Tensor.transpose",
        "Tensor.expand_dims",
        "Tensor.__getitem__",
        "broadcast_to",
    }
)

#: Which storages an op's *backward* closure reads when it fires:
#: ``"p<i>"`` is the i-th parent's value, ``"out"`` the op's own output.
_BWD_READS: dict[str, tuple[str, ...]] = {
    "Tensor.__mul__": ("p0", "p1"),
    "Tensor.__truediv__": ("p0", "p1"),
    "Tensor.__pow__": ("p0",),
    "Tensor.__matmul__": ("p0", "p1"),
    "Tensor.max": ("p0", "out"),
    "Tensor.exp": ("out",),
    "Tensor.log": ("p0",),
    "Tensor.tanh": ("out",),
    "Tensor.sigmoid": ("out",),
    "Tensor.abs": ("p0",),
    "Tensor.relu": ("p0",),
    "Tensor.clip": ("p0",),
    "softmax": ("out",),
    "log_softmax": ("out",),
    "leaky_relu": ("p0",),
    "neighbor_scores": ("p0", "p1"),
    "neighbor_mix": ("p0", "p1"),
}

#: Parent positions an op's backward may hand its incoming gradient to
#: *by identity or as a view* (donation without a copy).  A gradient
#: buffer donated through such a chain stays alive until the last fire
#: in the chain — or forever, when the chain reaches a parameter leaf.
_PASS_THROUGH: dict[str, tuple[int, ...] | str] = {
    "Tensor.__add__": (0,),
    "Tensor.__sub__": (0,),
    "Tensor.sum": (0,),
    "Tensor.reshape": (0,),
    "Tensor.squeeze": (0,),
    "Tensor.transpose": (0,),
    "Tensor.expand_dims": (0,),
    "concat": "all",
    "stack": "all",
}


def _plan_intervals(
    requests: list[tuple[str, int, int]],
    nodes: list,
    fire_vids: list[int],
    root_vid: int,
) -> list[tuple[int, int]]:
    """(birth, death) on the replay timeline for every buffer request.

    The timeline is one pass of :meth:`CompiledProgram.replay`: forward
    ops occupy positions ``0..F-1`` in execution order, fires occupy
    ``F..F+B-1`` in schedule order, and :data:`_END` means "alive when
    replay returns" (the loss value and every donated parameter
    gradient).  Deaths are conservative — each one is the latest
    position any reader listed in the metadata tables could touch the
    buffer, so two requests share arena space only when their intervals
    are provably disjoint.
    """
    forward_len = len(nodes)
    fwd_pos: dict[int, int] = {}
    op_of: dict[int, str] = {}
    node_of: dict[int, _Node] = {}
    needs: dict[int, bool] = {}
    for position, (op, _, node, needs_grad) in enumerate(nodes):
        fwd_pos[node.vid] = position
        op_of[node.vid] = op
        node_of[node.vid] = node
        needs[node.vid] = needs_grad
    fire_pos = {
        vid: forward_len + index for index, vid in enumerate(fire_vids)
    }

    # Storage roots: the arena-owned buffer (if any) a node's value
    # lives in; views attribute their reads to the aliased owner.
    fwd_owner = {vid for role, _, vid in requests if role == "fwd"}
    root_of: dict[int, int | None] = {}
    for op, _, node, _ in nodes:
        if node.vid in fwd_owner:
            root_of[node.vid] = node.vid
        elif op in _VIEW_OPS and node.pv:
            root_of[node.vid] = root_of.get(node.pv[0])
        else:
            root_of[node.vid] = None

    death = {vid: fwd_pos[vid] for vid in fwd_owner}

    def extend(storage_vid: int | None, position: int) -> None:
        if storage_vid is not None and position > death[storage_vid]:
            death[storage_vid] = position

    for op, _, node, needs_grad in nodes:
        for pvid in node.pv:
            extend(root_of.get(pvid), fwd_pos[node.vid])
        if needs_grad:
            here = fire_pos[node.vid]
            for tag in _BWD_READS.get(op, ()):
                if tag == "out":
                    extend(root_of.get(node.vid), here)
                else:
                    index = int(tag[1:])
                    if index < len(node.pv):
                        extend(root_of.get(node.pv[index]), here)
    # The loss value is read after the whole program has run.
    extend(root_of.get(root_vid), _END)

    # How long a donated gradient buffer stays alive: until the last
    # fire reachable over pass-through edges — forever when the chain
    # can reach a leaf (the buffer may become a parameter's ``.grad``).
    chain: dict[int, int] = {}

    def chain_death(vid: int) -> int:
        known = chain.get(vid)
        if known is not None:
            return known
        if vid not in fwd_pos:  # leaf: grads outlive the replay
            result = _END
        elif not needs[vid]:
            result = 0
        else:
            result = fire_pos[vid]
            targets = _PASS_THROUGH.get(op_of[vid])
            if targets is not None:
                node = node_of[vid]
                indices = (
                    range(len(node.pv)) if targets == "all" else targets
                )
                for index in indices:
                    if index < len(node.pv) and node.preq[index]:
                        result = max(result, chain_death(node.pv[index]))
        chain[vid] = result
        return result

    intervals: list[tuple[int, int]] = []
    for role, _, vid in requests:
        fired = fire_pos.get(vid, fwd_pos[vid])
        if role == "fwd":
            intervals.append((fwd_pos[vid], death[vid]))
        elif role == "scratch":
            intervals.append((fwd_pos[vid], fwd_pos[vid]))
        elif role == "mask":
            intervals.append((fwd_pos[vid], fired))
        elif role == "bscratch":
            intervals.append((fired, fired))
        elif role == "grad":
            node = node_of[vid]
            limit = fired
            for index, pvid in enumerate(node.pv):
                if node.preq[index]:
                    limit = max(limit, chain_death(pvid))
            intervals.append((fired, limit))
        else:  # pragma: no cover - builder bug
            raise TraceError(f"unknown buffer role {role!r}")
    return intervals


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


class CompiledProgram:
    """A specialized train step: flat forward kernels + backward schedule.

    Obtained from :func:`trace_step`; not constructed directly.  One
    program is valid for exactly one shape signature — the slot arrays
    passed to :meth:`replay` must match the traced shapes/dtypes slot
    for slot, or :class:`TraceError` is raised (callers treat that as a
    fallback trigger, not an error).

    Between replays a program holds only its baked constants and its
    views of the shared :class:`Arena` block (:attr:`arena_base`):
    forward values and gradient edges live in per-replay lists, and
    every buffer that becomes a parameter's gradient outside the arena
    is allocated per replay, as on the tape.
    """

    def __init__(
        self,
        num_values: int,
        forward: list,
        fire: list,
        const_leaves: list,
        slot_leaves: list,
        param_leaves: list,
        slot_sig: list,
        root_vid: int,
        root_shape: tuple,
        root_dtype,
        arena_base: np.ndarray,
        arena_nbytes: int = 0,
        requested_nbytes: int = 0,
    ):
        #: The per-replay value list's starting point: constants only.
        self._template: list = [None] * num_values
        self._forward = forward
        self._fire = fire
        self._slot_leaves = slot_leaves
        self._param_leaves = param_leaves
        self._slot_sig = slot_sig
        self._root_vid = root_vid
        self._root_shape = root_shape
        self._root_dtype = root_dtype
        for vid, array in const_leaves:
            self._template[vid] = array
        #: The :class:`Arena` block this program's buffers are views of.
        self.arena_base = arena_base
        #: Bytes of the arena this program uses, and the bytes the
        #: kernels requested before liveness pooling collapsed disjoint
        #: intervals onto shared regions.
        self.arena_nbytes = arena_nbytes
        self.requested_nbytes = requested_nbytes
        self.replays = 0

    @property
    def num_ops(self) -> int:
        """Number of captured interior ops."""
        return len(self._forward)

    @property
    def num_slots(self) -> int:
        """Number of replayable input slots."""
        return len(self._slot_sig)

    @property
    def num_parameters(self) -> int:
        """Number of trainable leaves receiving gradients."""
        return len(self._param_leaves)

    def check_slots(self, slot_arrays: Sequence[np.ndarray]) -> None:
        """Raise :class:`TraceError` unless the arrays match the signature."""
        if len(slot_arrays) != len(self._slot_sig):
            raise TraceError(
                f"slot count changed: traced {len(self._slot_sig)}, "
                f"got {len(slot_arrays)}"
            )
        for position, (array, (shape, dtype)) in enumerate(
            zip(slot_arrays, self._slot_sig)
        ):
            array = np.asarray(array)
            if array.shape != shape or array.dtype != dtype:
                raise TraceError(
                    f"slot {position} changed: traced {shape}/{dtype}, "
                    f"got {array.shape}/{array.dtype}"
                )

    def replay(self, slot_arrays: Sequence[np.ndarray]) -> float:
        """Run the program on a new batch of the traced signature.

        Assigns ``.grad`` on every trainable leaf (exactly what
        ``loss.backward()`` on the dynamic tape would produce, bit for
        bit) and returns the loss value.  Must not run while tape hooks
        are installed — a replay makes no tape events for them to
        see — nor while another program of the same arena replays.  The forward values are dropped on
        return.
        """
        if tape_hooks_active():
            raise TraceError("cannot replay while tape hooks are installed")
        self.check_slots(slot_arrays)
        slots = list(slot_arrays)
        vals = self._template.copy()
        grads: list = [None] * len(vals)
        for vid, parameter, shape in self._param_leaves:
            data = parameter.data
            if data.shape != shape:
                raise TraceError("parameter shape changed since trace")
            vals[vid] = data
        for vid, slot_index in self._slot_leaves:
            vals[vid] = slots[slot_index]
        for fwd in self._forward:
            fwd(vals, slots)
        root = self._root_vid
        seed = np.ones(self._root_shape, self._root_dtype)
        grads[root] = seed
        for vid, bwd in self._fire:
            g = grads[vid]
            if g is None:
                continue
            if vid == root:
                # The dynamic scheduler hands the root closure a private
                # copy so donated views can never alias the kept grad.
                g = g.copy()
            bwd(g, vals, grads, slots)
            grads[vid] = None
        for vid, parameter, _ in self._param_leaves:
            parameter.grad = grads[vid]
        self.replays += 1
        return float(vals[root])


def _specialize(
    loss: Tensor, entries: list, slot_arrays: Sequence[np.ndarray], arena: Arena
) -> CompiledProgram:
    if not isinstance(loss, Tensor):
        raise TraceError("traced forward did not return a Tensor")
    if not loss.requires_grad or loss._backward is None:
        raise TraceError("traced loss is not connected to the tape")
    if loss.size != 1:
        raise TraceError("only scalar losses can be compiled")

    slot_map: dict[int, int] = {}
    slot_sig: list = []
    for index, array in enumerate(slot_arrays):
        array = np.asarray(array)
        slot_map.setdefault(id(array), index)
        slot_sig.append((array.shape, array.dtype))

    # Discover every tensor reachable from the loss.  This must happen
    # before loss.backward(), which frees _parents/_backward.
    tensors: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        tensor = stack.pop()
        if id(tensor) in seen:
            continue
        seen.add(id(tensor))
        tensors.append(tensor)
        stack.extend(tensor._parents)

    vid_of = {id(t): vid for vid, t in enumerate(tensors)}
    interiors = {id(t) for t in tensors if t._backward is not None}
    # Entries pair with graph nodes through the backward closure: _make
    # stores the exact closure object the hook saw, and every op call
    # creates a fresh one, so identity is collision-free.  (Output data
    # identity would not work — scalar-producing ops return np.float64,
    # which Tensor.__init__ re-wraps into a new 0-d array.)
    by_backward: dict[int, Tensor] = {
        id(t._backward): t for t in tensors if id(t) in interiors
    }

    # Leaves: trainable parameters, replayable slots, baked constants.
    const_leaves: list = []
    slot_leaves: list = []
    param_leaves: list = []
    for tensor in tensors:
        if id(tensor) in interiors:
            continue
        vid = vid_of[id(tensor)]
        if tensor.requires_grad:
            param_leaves.append((vid, tensor, tensor.data.shape))
        elif id(tensor.data) in slot_map:
            slot_leaves.append((vid, slot_map[id(tensor.data)]))
        else:
            const_leaves.append((vid, tensor.data))

    # Interior nodes, in recorded execution order.
    nodes: list[tuple[str, Callable, _Node, bool]] = []
    matched: set[int] = set()
    for data, parents, backward in entries:
        tensor = by_backward.get(id(backward))
        if tensor is None:
            continue  # not reachable from the loss: dead computation
        matched.add(id(tensor))
        op = _op_name(backward)
        builder = _BUILDERS.get(op)
        if builder is None:
            raise TraceError(f"op {op!r} is outside the compiled set")
        node = _Node(
            vid=vid_of[id(tensor)],
            shape=tensor.shape,
            dtype=tensor.dtype,
            pv=[vid_of[id(p)] for p in parents],
            pshapes=[p.shape for p in parents],
            pdtypes=[p.dtype for p in parents],
            preq=[p.requires_grad for p in parents],
            cv=_free_vars(backward),
        )
        nodes.append((op, builder, node, tensor.requires_grad))
    if len(matched) != len(interiors):
        raise TraceError(
            "graph contains nodes created outside the traced step"
        )

    # Precompute the backward firing schedule — the exact Kahn order
    # Tensor.backward() produces (discovery pass, then LIFO firing).
    # This runs *before* the builders so the buffer planner can place
    # every backward buffer on the replay timeline.
    parents_of = {
        vid_of[id(t)]: tuple(vid_of[id(p)] for p in t._parents) for t in tensors
    }
    requires = {vid_of[id(t)]: t.requires_grad for t in tensors}
    root_vid = vid_of[id(loss)]
    grad_interiors = {node.vid for _, _, node, needs_grad in nodes if needs_grad}
    pending: dict[int, int] = {}
    vstack = [root_vid]
    while vstack:
        vid = vstack.pop()
        for pvid in parents_of[vid]:
            if requires[pvid]:
                count = pending.get(pvid)
                if count is None:
                    pending[pvid] = 1
                    vstack.append(pvid)
                else:
                    pending[pvid] = count + 1
    fire_vids: list[int] = []
    vstack = [root_vid]
    while vstack:
        vid = vstack.pop()
        if vid in grad_interiors:
            fire_vids.append(vid)
        for pvid in parents_of[vid]:
            if requires[pvid]:
                remaining = pending[pvid] - 1
                pending[pvid] = remaining
                if remaining == 0:
                    vstack.append(pvid)

    # Builder pass one: record every buffer request (role, bytes, node).
    ctx = _BuildCtx(slot_map)
    for op, builder, node, needs_grad in nodes:
        ctx.node = node
        try:
            builder(ctx, node)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise TraceError(f"cannot specialize {op!r}: {exc}") from exc

    # Plan live intervals and bind the pooled arena, then builder pass
    # two re-runs the builders in the identical order so every
    # ``ctx.empty`` hands out its planned arena view.
    ctx.bind_arena(
        _plan_intervals(ctx.requests, nodes, fire_vids, root_vid), arena
    )
    forward: list = []
    bwd_of: dict[int, Callable] = {}
    for op, builder, node, needs_grad in nodes:
        ctx.node = node
        try:
            fwd, bwd = builder(ctx, node)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise TraceError(f"cannot specialize {op!r}: {exc}") from exc
        forward.append(fwd)
        if needs_grad:
            bwd_of[node.vid] = bwd
    fire = [(vid, bwd_of[vid]) for vid in fire_vids]

    return CompiledProgram(
        num_values=len(tensors),
        forward=forward,
        fire=fire,
        const_leaves=const_leaves,
        slot_leaves=slot_leaves,
        param_leaves=param_leaves,
        slot_sig=slot_sig,
        root_vid=root_vid,
        root_shape=loss.shape,
        root_dtype=loss.dtype,
        arena_base=arena.base,
        arena_nbytes=ctx.arena_nbytes,
        requested_nbytes=ctx.requested_nbytes,
    )


def trace_step(
    forward_fn: Callable[[], Tensor],
    slot_arrays: Sequence[np.ndarray],
    arena: Arena | None = None,
) -> tuple[CompiledProgram | None, Tensor, str | None]:
    """Capture one step and specialize it into a :class:`CompiledProgram`.

    Runs ``forward_fn`` with a recording hooks object installed on the
    tape-hook registry, then specializes the captured op sequence
    against ``slot_arrays`` — the batch-dependent numpy arrays the
    forward consumed *by object identity* (see
    ``TrainStepPlan.slot_arrays``).  The program's buffers are carved
    from ``arena`` (a private one when omitted), which grows to fit.

    Returns ``(program, loss, failure)``.  The forward pass always
    completes and ``loss`` is always a live, backpropagatable tensor, so
    the traced step itself can still train on the dynamic tape (call
    ``loss.backward()`` after this returns — the graph walk happens
    here, before backward frees it).  On specialization failure
    ``program`` is None and ``failure`` holds the reason.

    Raises :class:`TraceError` without running the forward if other tape
    hooks are already installed — the recorder would share their
    events, and the program's replays would hide the steps from them.
    """
    if tape_hooks_active():
        raise TraceError("cannot trace while other tape hooks are installed")
    recorder = _TraceRecorder()
    install_tape_hooks(recorder)
    try:
        loss = forward_fn()
    finally:
        uninstall_tape_hooks(recorder)
    try:
        program = _specialize(
            loss, recorder.entries, slot_arrays, arena if arena is not None else Arena()
        )
    except TraceError as exc:
        return None, loss, str(exc)
    return program, loss, None
