"""``repro.obs`` — observability: metrics, traces, and an op profiler.

PR 2's serving stack answers "how many requests hit the cache" with
hand-rolled counters and the trainer answers "is the run healthy" with
:class:`~repro.core.diagnostics.DiagnosticsRecorder` snapshots; neither
answers "where does a training step or a recommend request spend its
time".  This package is the unified layer, stdlib-only:

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry` of
  counters / gauges / log-bucketed histograms (quantiles within 1%
  relative, mergeable across processes), with a plain-text
  snapshot (the ``/metrics`` endpoint body) and a :class:`JsonlRunLog`
  exporter that merges metric snapshots, training epochs and
  diagnostics into one run log;
* :mod:`repro.obs.trace` — nestable wall-time spans
  (context-manager + decorator, injectable monotonic clock) for
  per-phase breakdowns;
* :mod:`repro.obs.profiler` — :class:`TapeProfiler`, attributing
  forward/backward time and array bytes to each autograd op via the
  shared tape-hook registry of :mod:`repro.nn.tensor`.

Everything is opt-in and zero-cost when disabled: the default
:data:`NULL_REGISTRY` / :data:`NULL_TRACER` are shared no-ops, and no
tape hooks are installed unless a profiler (or sanitizer) context is
active — the same pattern as ``KGAGTrainer(sanitize=True)``.

One-shot report for a toy training step::

    python -m repro.obs.report        # top-N op table + span breakdown

See ``docs/observability.md`` for the instrument taxonomy and formats.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    JsonlRunLog,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    merge_snapshots,
    quantile_from_snapshot,
)
from .profiler import OpProfile, TapeProfiler
from .trace import NullTracer, NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlRunLog",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "OpProfile",
    "TapeProfiler",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "merge_snapshots",
    "quantile_from_snapshot",
]
