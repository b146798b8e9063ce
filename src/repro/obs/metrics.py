"""Thread-safe metrics instruments: counters, gauges, histograms.

One :class:`MetricsRegistry` per process (or per server / trainer) holds
every instrument by name; both the ``/stats`` JSON payload of
:mod:`repro.serve.server` and its plain-text ``/metrics`` exposition
render from this single source.  Three instrument kinds:

* :class:`Counter` — a monotonically increasing total (requests served,
  training steps taken);
* :class:`Gauge` — a point-in-time value, either pushed with
  :meth:`Gauge.set` or pulled from a callback (``fn=``) at snapshot time
  — the callback form mirrors component-owned state (cache size,
  breaker trips) into the registry without duplicating the counter;
* :class:`Histogram` — a sparse log-bucketed sketch (DDSketch, Masson
  et al., arXiv:1908.10693): every quantile it reports is within
  :data:`ALPHA` relative of the exact nearest-rank sample, and two
  snapshots merge exactly by adding their bucket counts, so one
  estimator serves both the per-process and the fleet view.

Everything is stdlib-only and safe to call from server threads: each
instrument carries its own lock.  The zero-cost-when-disabled story is
:data:`NULL_REGISTRY` — a :class:`NullRegistry` whose instruments are
shared no-op singletons, mirroring the ``sanitize=True`` opt-in pattern
of :mod:`repro.analysis.sanitizer`.

Exporters
---------
* :meth:`MetricsRegistry.render_text` — the ``/metrics`` plain-text
  snapshot (Prometheus exposition style);
* :class:`JsonlRunLog` — an append-only JSON-lines run log shared by
  metric snapshots, per-epoch training records and
  :class:`~repro.core.diagnostics.DiagnosticsRecorder` snapshots, so a
  whole run lands in one file.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from math import ceil, isfinite, isnan, log
from typing import Callable, IO, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "JsonlRunLog",
    "ALPHA",
    "merge_snapshots",
    "quantile_from_snapshot",
]

# Relative accuracy of every histogram quantile.  Bucket ``i`` holds the
# values in (GAMMA**(i-1), GAMMA**i]; its representative 2*GAMMA**i/(GAMMA+1)
# is within ALPHA of every value in it.
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = log(_GAMMA)


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"name": self.name, "kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value, pushed via :meth:`set` or pulled via ``fn``."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", fn: Callable[[], float] | None = None):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock
        self._fn = fn  # guarded-by: _lock

    def set(self, value: float) -> None:
        with self._lock:
            if self._fn is not None:
                raise ValueError(
                    f"gauge {self.name!r} is callback-backed; cannot set()"
                )
            self._value = float(value)

    def bind_function(self, fn: Callable[[], float]) -> None:
        """Switch to pull mode: ``fn()`` is evaluated at read time."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        # Call the user callback outside our lock: it may take other
        # component locks (cache, breaker) and must not nest under ours.
        return float(fn())

    def snapshot(self) -> dict:
        return {"name": self.name, "kind": self.kind, "value": self.value}


class Histogram:
    """Sparse log-bucketed histogram with relative-accuracy quantiles.

    A value ``v > 0`` lands in bucket ``i ~ ceil(log(v) / log(GAMMA))``,
    the one whose exposition edge ``le=GAMMA**i`` is the first ``>= v``;
    values ``v <= 0`` share one zero bucket; NaN and ±inf raise
    ValueError.  No edges to pick and no sample window: :meth:`percentile` and :func:`quantile_from_snapshot`
    read the same counts with the same nearest-rank rule, and stay within
    :data:`ALPHA` relative of the exact sample for positive normal floats.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._zero = 0  # guarded-by: _lock
        self._buckets: dict[int, int] = {}  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock

    def observe(self, value: float) -> None:
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"histogram {self.name!r} got non-finite {value!r}")
        key = _bucket_key(value) if value > 0.0 else 0
        with self._lock:
            if value > 0.0:
                self._buckets[key] = self._buckets.get(key, 0) + 1
            else:
                self._zero += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank quantile ``q`` in [0, 1]; 0.0 when empty."""
        with self._lock:
            zero, buckets = self._zero, dict(self._buckets)
        return _quantile(zero, buckets, q)

    def snapshot(self) -> dict:
        with self._lock:
            zero, buckets = self._zero, dict(self._buckets)
            count, total = self._count, self._sum
        return {
            "name": self.name,
            "kind": self.kind,
            "count": count,
            "sum": total,
            "zero": zero,
            "buckets": {str(key): buckets[key] for key in sorted(buckets)},
        }


def _bucket_key(value: float) -> int:
    """The bucket of ``value > 0``: the ``key`` with ``value`` in
    ``(_upper_edge(key - 1), _upper_edge(key)]``.

    ``ceil(log(value) / log(GAMMA))`` rounds differently from the ``pow``
    in :func:`_upper_edge` for about one edge in five, so the guess is
    corrected by one against the same edges the exposition prints.
    """
    key = ceil(log(value) / _LOG_GAMMA)
    if value > _upper_edge(key):
        return key + 1
    if value <= _upper_edge(key - 1):
        return key - 1
    return key


def _upper_edge(key: int) -> float:
    """``GAMMA**key``, the inclusive upper edge of bucket ``key``.

    Written as ``GAMMA**(key-1) * GAMMA`` because ``GAMMA**key`` raises
    OverflowError for the bucket of the largest floats; the product
    rounds to inf instead and is clamped to the largest float.
    """
    return min(_GAMMA ** (key - 1) * _GAMMA, sys.float_info.max)


def _quantile(zero: int, buckets: dict[int, int], q: float) -> float:
    """Representative value of the bucket holding the nearest-rank sample.

    The rank is ``min(n - 1, round(q * (n - 1)))``, the formula the
    serving ``/stats`` payload has always used.  The zero bucket reports
    0.0; bucket ``i`` reports ``2 * GAMMA**i / (GAMMA + 1)``, which equals
    ``GAMMA**i * (1 - ALPHA)``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    total = zero + sum(buckets.values())
    if total == 0:
        return 0.0
    rank = min(total - 1, int(round(q * (total - 1))))
    seen = zero
    if rank < seen:
        return 0.0
    for key in sorted(buckets):
        seen += buckets[key]
        if rank < seen:
            break
    return _upper_edge(key) * (1.0 - ALPHA)


class _NullInstrument:
    """Shared do-nothing instrument handed out by :class:`NullRegistry`."""

    name = "<null>"
    help = ""
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def bind_function(self, fn) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments plus snapshot / text / JSONL exporters.

    Instrument getters are get-or-create and type-checked: asking for an
    existing name with a different kind raises, so two subsystems cannot
    silently alias one name to incompatible instruments.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}  # guarded-by: _lock

    # -- get-or-create -----------------------------------------------------
    def _get_or_create(self, name: str, kind: type, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"instrument {name!r} already registered as "
                    f"{instrument.kind}, not {kind.kind}"
                )
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(
        self, name: str, help: str = "", fn: Callable[[], float] | None = None
    ) -> Gauge:
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, help, fn=fn))
        if fn is not None:
            gauge.bind_function(fn)
        return gauge

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, help))

    def get(self, name: str):
        """The instrument registered under ``name``, or None."""
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._instruments)

    # -- exporters ---------------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """``{name: instrument snapshot}`` for every instrument."""
        with self._lock:
            instruments = list(self._instruments.values())
        return {instrument.name: instrument.snapshot() for instrument in instruments}

    def render_text(self) -> str:
        """Plain-text exposition (Prometheus style) — the ``/metrics`` body.

        Metric names are sanitized to ``[a-zA-Z0-9_:]`` (``/`` and ``-``
        become ``_``); histograms expand to cumulative ``_bucket{le=...}``
        lines for their non-empty buckets, then ``+Inf``, ``_sum`` and
        ``_count``.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        lines: list[str] = []
        for instrument in instruments:
            name = _text_name(instrument.name)
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                record = instrument.snapshot()
                cumulative = record["zero"]
                if cumulative:
                    lines.append(f'{name}_bucket{{le="0"}} {cumulative}')
                for key, count in record["buckets"].items():
                    cumulative += count
                    edge = _format_number(_upper_edge(int(key)))
                    lines.append(f'{name}_bucket{{le="{edge}"}} {cumulative}')
                lines.append(f'{name}_bucket{{le="+Inf"}} {record["count"]}')
                lines.append(f"{name}_sum {_format_number(record['sum'])}")
                lines.append(f"{name}_count {record['count']}")
            else:
                lines.append(f"{name} {_format_number(instrument.value)}")
        return "\n".join(lines) + "\n"


def _text_name(name: str) -> str:
    return "".join(
        ch if (ch.isalnum() or ch in "_:") else "_" for ch in name
    )


def _format_number(value: float) -> str:
    if not isfinite(value):
        return "NaN" if isnan(value) else ("+Inf" if value > 0 else "-Inf")
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class NullRegistry:
    """The zero-cost default: every getter returns a shared no-op.

    ``enabled`` is False so instrumented code can skip *computing* a
    metric (e.g. a gradient norm) rather than merely skip recording it.
    """

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", fn=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> list[str]:
        return []

    def snapshot(self) -> dict:
        return {}

    def render_text(self) -> str:
        return ""


NULL_REGISTRY = NullRegistry()


class JsonlRunLog:
    """Append-only JSON-lines run log.

    One record per line; every record carries the ``kind`` discriminator
    plus a monotonically increasing ``seq`` and a wall-clock ``ts``
    (seconds since the epoch), so interleaved producers — per-epoch
    training records, diagnostics snapshots, final metric dumps — sort
    deterministically within one file.

    Usage::

        with JsonlRunLog(path) as log:
            log.emit("epoch", epoch=0, loss=0.43)
            log.emit_snapshot(registry, kind="final_metrics")
    """

    def __init__(self, path_or_stream, clock: Callable[[], float] = time.time):
        if hasattr(path_or_stream, "write"):
            self._stream: IO[str] = path_or_stream  # guarded-by: _lock
            self._owns_stream = False
            self.path = None
        else:
            self.path = path_or_stream
            self._stream = open(path_or_stream, "w", encoding="utf-8")  # guarded-by: _lock
            self._owns_stream = True
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0  # guarded-by: _lock

    def emit(self, kind: str, **fields) -> dict:
        """Write one record; returns the dict that was serialized."""
        with self._lock:
            record = {"kind": kind, "seq": self._seq, "ts": self._clock(), **fields}
            self._seq += 1
            self._stream.write(json.dumps(record, default=_jsonable) + "\n")
            self._stream.flush()
        return record

    def emit_snapshot(self, registry, kind: str = "metrics", **fields) -> dict:
        """Write the registry's full snapshot as a single record."""
        return self.emit(kind, metrics=registry.snapshot(), **fields)

    def close(self) -> None:
        if self._owns_stream:
            with self._lock:
                self._stream.close()

    def __enter__(self) -> "JsonlRunLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _jsonable(value):
    # numpy scalars and similar objects expose item(); fall back to str.
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def merge_snapshots(snapshots: Sequence[dict]) -> dict[str, dict]:
    """Merge per-process registry snapshots into a single fleet view.

    Counters and gauges add their values; histograms add ``count``,
    ``sum``, ``zero`` and their sparse per-bucket counts key by key, so
    the merge equals the snapshot of one histogram fed every sample and
    still feeds :func:`quantile_from_snapshot` directly.  Records of the
    same name must agree on ``kind``.

    The obvious caveat applies to non-additive gauges (uptime, cache
    size ratios): summing them is well-defined but rarely meaningful, so
    fleet reports should read those per-process.
    """
    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for name, record in snapshot.items():
            if not record:
                continue
            current = merged.get(name)
            if current is None:
                copied = dict(record)
                if record.get("kind") == "histogram":
                    copied["buckets"] = dict(record.get("buckets", {}))
                merged[name] = copied
                continue
            if current.get("kind") != record.get("kind"):
                raise ValueError(
                    f"instrument {name!r} has mixed kinds across snapshots "
                    f"({current.get('kind')!r} vs {record.get('kind')!r})"
                )
            if record.get("kind") == "histogram":
                current["count"] += record.get("count", 0)
                current["sum"] += record.get("sum", 0.0)
                current["zero"] = current.get("zero", 0) + record.get("zero", 0)
                buckets = current["buckets"]
                for key, count in record.get("buckets", {}).items():
                    buckets[key] = buckets.get(key, 0) + count
            else:
                current["value"] = current.get("value", 0.0) + record.get("value", 0.0)
    return merged


def quantile_from_snapshot(record: dict, q: float) -> float:
    """:meth:`Histogram.percentile` over a (possibly merged) snapshot.

    Same buckets, same nearest-rank rule, same representative values, so
    a fleet quantile from :func:`merge_snapshots` equals the quantile of
    one histogram fed every worker's samples.  Empty or non-histogram
    records report 0.0.
    """
    histogram = record if record and record.get("kind") == "histogram" else {}
    buckets = {int(key): count for key, count in histogram.get("buckets", {}).items()}
    return _quantile(histogram.get("zero", 0), buckets, q)
