"""Per-op autograd profiler: time and bytes attributed to each tape op.

:class:`TapeProfiler` observes the two autograd choke points —
``Tensor._make`` (forward node creation) and ``Tensor._accumulate``
(backward gradient write) — through the shared hook registry of
:mod:`repro.nn.tensor`, the same mechanism
:class:`~repro.analysis.sanitizer.TapeSanitizer` uses, so both can run
concurrently and the default (unprofiled) path keeps the pristine code
objects with zero added frames.

Attribution model
-----------------
Autograd ops execute sequentially on one thread, and each op's numpy
work happens immediately *before* its hook fires (``_make`` is called
with the already-computed output array; ``_accumulate`` with the
already-computed gradient).  The profiler therefore timestamps every
hook event and charges the delta since the previous event to the op
that fired it:

* forward: the delta covers the op's numpy compute + tape bookkeeping,
  charged to the producing method (``Tensor.__matmul__``,
  ``Embedding.forward``'s ``Tensor.__getitem__``, ...);
* backward: the delta covers the running backward closure, charged to
  the op whose closure is executing (``Tensor.__matmul__ [bwd]``); the
  topological sort and gradient seeding inside ``Tensor.backward``
  surface as a ``Tensor.backward [bwd]`` row.

Because deltas telescope, their sum equals the time from ``__enter__``
to the **last** tape event — so the op table accounts for (almost) the
whole profiled wall time; :attr:`TapeProfiler.coverage` reports the
exact fraction and ``python -m repro.obs.report`` checks it stays
within 10%.  Python-level time between ops (indexing setup, batch
slicing) is charged to the *next* op — fine-grained enough to rank the
paper's hot paths (the Eqs. 2-8 propagation matmuls and the Eqs. 9-14
attention softmaxes) by true cost.

Bytes are the sizes of the arrays flowing through the tape: the op's
output array on the forward pass, the accumulated gradient on the
backward pass.

Single-threaded by design: training steps run on one thread.  Profiling
a concurrent workload would interleave deltas meaninglessly — use
:class:`~repro.obs.trace.Tracer` spans there instead.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable

from ..nn.tensor import install_tape_hooks, uninstall_tape_hooks

__all__ = ["OpProfile", "TapeProfiler"]


@dataclass
class OpProfile:
    """Accumulated cost of one op (both passes)."""

    name: str
    forward_calls: int = 0
    forward_seconds: float = 0.0
    forward_bytes: int = 0
    backward_calls: int = 0
    backward_seconds: float = 0.0
    backward_bytes: int = 0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds

    @property
    def total_bytes(self) -> int:
        return self.forward_bytes + self.backward_bytes

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "forward_calls": self.forward_calls,
            "forward_seconds": self.forward_seconds,
            "forward_bytes": self.forward_bytes,
            "backward_calls": self.backward_calls,
            "backward_seconds": self.backward_seconds,
            "backward_bytes": self.backward_bytes,
        }


_BACKWARD_SUFFIX = ".<locals>.backward"


class TapeProfiler:
    """Context manager that attributes tape time/bytes per op.

    Parameters
    ----------
    clock:
        Monotonic time source (injectable for deterministic tests).

    Usage::

        with TapeProfiler() as profile:
            loss = model_loss(batch)
            loss.backward()
        print(profile.table(top=10))
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.ops: dict[str, OpProfile] = {}
        self.wall_seconds = 0.0
        self._start = 0.0
        self._last = 0.0

    # -- context protocol --------------------------------------------------
    def __enter__(self) -> "TapeProfiler":
        self.ops = {}
        self.wall_seconds = 0.0
        install_tape_hooks(self)
        self._start = self._last = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_seconds = self._clock() - self._start
        uninstall_tape_hooks(self)

    # -- tape hook protocol ------------------------------------------------
    def on_make(self, data, parents, backward) -> None:
        now = self._clock()
        # Frames: 0 = on_make, 1 = _hooked_make, 2 = the producing op.
        code = sys._getframe(2).f_code
        name = getattr(code, "co_qualname", code.co_name)
        profile = self.ops.get(name)
        if profile is None:
            profile = self.ops[name] = OpProfile(name)
        profile.forward_calls += 1
        profile.forward_seconds += now - self._last
        profile.forward_bytes += getattr(data, "nbytes", 0)
        self._last = now

    def on_accumulate(self, tensor, grad) -> None:
        now = self._clock()
        # Frames: 0 = on_accumulate, 1 = _hooked_accumulate or
        # _report_accumulate, 2 = the backward closure (or
        # Tensor.backward seeding the output grad).
        # Gradient-routing helpers (_accumulate_exclusive / _give) may
        # sit in between; skip them so time lands on the real op.
        frame = sys._getframe(2)
        while (
            frame.f_code.co_name in ("_accumulate_exclusive", "_give")
            and frame.f_back is not None
        ):
            frame = frame.f_back
        code = frame.f_code
        name = getattr(code, "co_qualname", code.co_name)
        if name.endswith(_BACKWARD_SUFFIX):
            name = name[: -len(_BACKWARD_SUFFIX)]
        profile = self.ops.get(name)
        if profile is None:
            profile = self.ops[name] = OpProfile(name)
        profile.backward_calls += 1
        profile.backward_seconds += now - self._last
        profile.backward_bytes += getattr(grad, "nbytes", 0)
        self._last = now

    # -- aggregates --------------------------------------------------------
    @property
    def attributed_seconds(self) -> float:
        """Sum of all per-op deltas = start .. last tape event."""
        return sum(op.total_seconds for op in self.ops.values())

    @property
    def coverage(self) -> float:
        """attributed / wall — how much of the profiled region the op
        table explains (1.0 minus the tail after the last tape event)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.attributed_seconds / self.wall_seconds

    def top(self, n: int | None = None) -> list[OpProfile]:
        """Ops sorted by total attributed time, most expensive first."""
        ranked = sorted(
            self.ops.values(), key=lambda op: op.total_seconds, reverse=True
        )
        return ranked if n is None else ranked[:n]

    def table(self, top: int | None = 10) -> str:
        """Formatted top-N op table (time in ms, bytes in MiB)."""
        ranked = self.top(top)
        if not ranked:
            return "tape profiler: no ops recorded"
        total = self.attributed_seconds or 1.0
        width = max(len(op.name) for op in ranked)
        header = (
            f"{'op':<{width}}  {'calls':>7}  {'fwd ms':>9}  {'bwd ms':>9}  "
            f"{'total ms':>9}  {'%':>5}  {'MiB':>8}"
        )
        lines = [header, "-" * len(header)]
        for op in ranked:
            lines.append(
                f"{op.name:<{width}}  {op.forward_calls + op.backward_calls:>7}  "
                f"{op.forward_seconds * 1e3:>9.3f}  {op.backward_seconds * 1e3:>9.3f}  "
                f"{op.total_seconds * 1e3:>9.3f}  {op.total_seconds / total * 100:>4.1f}%  "
                f"{op.total_bytes / 2**20:>8.2f}"
            )
        lines.append(
            f"attributed {self.attributed_seconds * 1e3:.3f} ms of "
            f"{self.wall_seconds * 1e3:.3f} ms wall "
            f"({self.coverage * 100:.1f}% coverage)"
        )
        return "\n".join(lines)
