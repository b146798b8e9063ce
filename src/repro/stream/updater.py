"""The online ingestion driver: delta in, hot-swapped index out.

:class:`OnlineUpdater` owns the mutable "current world" of a running
deployment — dataset, train split, and :class:`TrainState` — and turns
each :class:`~repro.stream.delta.DeltaBatch` into a served answer:

1. ``apply_delta`` grows the dataset (stable id remapping);
2. ``warm_start`` + ``finetune`` adapt the checkpoint for a short budget
   (old rows and Adam moments carried bit-exactly, new rows initialized
   from seeded streams or neighbor means; the epochs run in a forked
   child);
3. a fresh :class:`~repro.serve.index.EmbeddingIndex` is built and
   atomically hot-swapped into the :class:`RecommendationService` via
   its ``_index_lock`` reload path — in-flight requests finish on the
   index they snapshotted, and the version-keyed
   :class:`~repro.serve.cache.ScoreCache` can never serve stale scores.

Observability: the shared registry gains ``stream/deltas_total`` (and
per-kind growth counters) plus ``stream/delta_lag_seconds``,
``stream/finetune_seconds`` and ``stream/swap_ms`` histograms, so delta
lag and swap latency are graphable next to the serving metrics.

Concurrency: ingestion is serialized by ``_ingest_lock`` while the
published world references are guarded by ``_state_lock`` (acquired
strictly after ``_ingest_lock``); readers like :meth:`snapshot` only
ever see a consistent (dataset, state, split) triple.
The fine-tune epochs run in a child forked by
:func:`~repro.stream.grow.finetune`, so they do not hold the serving
process's GIL while reads run, and the server's resident set does not
include their working memory.  Instruments the child updates are not
carried back; ``stream/finetune_seconds`` is observed here, in the
parent.  :class:`DeltaFeedWatcher` tails a feed directory from a
background thread (``serve --watch-deltas``), claiming each file
exactly once; a failed ingest becomes an errored report and polling
continues.
"""

from __future__ import annotations

import logging
import threading
import time
from pathlib import Path

from ..core.checkpoint import TrainState
from ..data.interactions import InteractionTable
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..serve.index import build_index
from .delta import DeltaBatch, read_delta_jsonl
from .grow import GROW_INITS, finetune, warm_start

__all__ = ["OnlineUpdater", "DeltaFeedWatcher"]

_LOGGER = logging.getLogger(__name__)


class OnlineUpdater:
    """Ingests delta batches into a live serving stack.

    Parameters
    ----------
    service:
        The running :class:`~repro.serve.server.RecommendationService`
        (or None for offline ingestion — grow and fine-tune without a
        server to swap into).
    dataset:
        The dataset snapshot the current ``state`` was trained on.
    state:
        The warm checkpoint (:class:`~repro.core.checkpoint.TrainState`).
    group_train / group_validation:
        The group-interaction split in play; delta group interactions
        are appended to the *train* side so fine-tuning sees them.
    finetune_epochs:
        Per-delta fine-tune budget (0 = grow-only, still swaps).
    init:
        Fresh-row initializer passed to ``grow_state``.
    seed:
        Seed for the fresh-row draws; each ingest derives a distinct
        stream from it so repeated deltas never reuse draws.
    metrics:
        Optional registry; defaults to the service's (so ``/metrics``
        shows stream counters) or the shared no-op.
    """

    def __init__(
        self,
        service,
        dataset,
        state: TrainState,
        group_train: InteractionTable,
        group_validation: InteractionTable | None = None,
        finetune_epochs: int = 2,
        init: str = "rng",
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ):
        if finetune_epochs < 0:
            raise ValueError("finetune_epochs must be non-negative")
        if init not in GROW_INITS:
            raise ValueError(f"init must be one of {GROW_INITS}, got {init!r}")
        self.service = service
        self.finetune_epochs = int(finetune_epochs)
        self.init = init
        self.seed = int(seed)
        # _ingest_lock serializes whole ingests; _state_lock guards the
        # published world (lock order: _ingest_lock before _state_lock).
        self._ingest_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._dataset = dataset  # guarded-by: _state_lock
        self._state = state  # guarded-by: _state_lock
        self._group_train = group_train  # guarded-by: _state_lock
        self._group_validation = group_validation  # guarded-by: _state_lock
        self._deltas_applied = 0  # guarded-by: _state_lock
        self._last_index = None  # guarded-by: _state_lock
        if metrics is not None:
            self.metrics = metrics
        elif service is not None:
            self.metrics = service.metrics
        else:
            self.metrics = NULL_REGISTRY
        self._m_deltas = self.metrics.counter(
            "stream/deltas_total", help="delta batches ingested"
        )
        self._m_growth = {
            kind: self.metrics.counter(
                f"stream/{kind}_total", help=f"{kind.replace('_', ' ')} ingested"
            )
            for kind in (
                "new_users",
                "new_items",
                "new_entities",
                "new_relations",
                "new_edges",
                "new_groups",
            )
        }
        self._m_lag = self.metrics.histogram(
            "stream/delta_lag_seconds",
            help="delta arrival to hot-swap completion",
        )
        self._m_finetune = self.metrics.histogram(
            "stream/finetune_seconds",
            help="warm-start fine-tune wall time per delta",
        )
        self._m_swap = self.metrics.histogram(
            "stream/swap_ms",
            help="index hot-swap latency (milliseconds)",
        )

    # -- published-world accessors ----------------------------------------
    def _snapshot_locked(self):
        """Current world; caller must hold ``_state_lock``."""
        return (
            self._dataset,
            self._state,
            self._group_train,
            self._group_validation,
        )

    def _publish_locked(self, dataset, state, group_train, group_validation, index):
        """Install a new world; caller must hold ``_state_lock``."""
        self._dataset = dataset
        self._state = state
        self._group_train = group_train
        self._group_validation = group_validation
        self._last_index = index
        self._deltas_applied += 1

    def snapshot(self):
        """Consistent ``(dataset, state, group_train, group_validation)``."""
        with self._state_lock:
            return self._snapshot_locked()

    @property
    def deltas_applied(self) -> int:
        with self._state_lock:
            return self._deltas_applied

    @property
    def last_index(self):
        """The most recently built index (None before the first ingest).

        Offline ingestion (``service=None``) uses this to persist the
        swap candidate that a serving process would have installed.
        """
        with self._state_lock:
            return self._last_index

    # -- ingestion ---------------------------------------------------------
    def ingest(self, delta: DeltaBatch, received_at: float | None = None) -> dict:
        """Apply one delta end to end; returns an ingest report.

        ``received_at`` (a ``time.time()`` stamp of when the delta
        arrived) feeds the delta-lag histogram; defaults to now.
        """
        from .delta import apply_delta  # late import keeps startup lean

        if received_at is None:
            received_at = time.time()
        with self._ingest_lock:
            with self._state_lock:
                dataset, state, group_train, group_validation = (
                    self._snapshot_locked()
                )
                applied_before = self._deltas_applied
            grown_dataset, plan = apply_delta(dataset, delta)
            group_train2 = InteractionTable(
                grown_dataset.groups.num_groups,
                grown_dataset.num_items,
                _with_pairs(group_train.pairs, delta.group_interactions),
            )
            group_validation2 = (
                InteractionTable(
                    grown_dataset.groups.num_groups,
                    grown_dataset.num_items,
                    group_validation.pairs,
                )
                if group_validation is not None
                else None
            )
            finetune_start = time.perf_counter()
            trainer = warm_start(
                grown_dataset,
                state,
                plan,
                group_train2,
                group_validation=group_validation2,
                init=self.init,
                # A distinct stream per ingest: repeated deltas must not
                # reuse the same fresh-row draws.
                rng=self.seed + applied_before,
            )
            losses = finetune(trainer, self.finetune_epochs)
            finetune_seconds = time.perf_counter() - finetune_start
            new_state = TrainState.capture(
                trainer, epoch=state.epoch + self.finetune_epochs
            )
            index = build_index(
                trainer.model,
                train_interactions=group_train2,
                user_interactions=grown_dataset.user_item,
            )
            swap = None
            swap_ms = 0.0
            if self.service is not None:
                swap_start = time.perf_counter()
                swap = self.service.reload_index(index)
                swap_ms = (time.perf_counter() - swap_start) * 1000.0
            with self._state_lock:
                self._publish_locked(
                    grown_dataset, new_state, group_train2, group_validation2, index
                )
        lag_seconds = max(0.0, time.time() - received_at)
        self._m_deltas.inc()
        described = delta.describe()
        for kind, counter in self._m_growth.items():
            counter.inc(described[kind])
        self._m_lag.observe(lag_seconds)
        self._m_finetune.observe(finetune_seconds)
        self._m_swap.observe(swap_ms)
        return {
            "delta": described,
            "plan": plan.describe(),
            "finetune_epochs": self.finetune_epochs,
            "losses": losses,
            "finetune_seconds": round(finetune_seconds, 4),
            "delta_lag_seconds": round(lag_seconds, 4),
            "index_version": index.version,
            "swap": swap,
            "swap_ms": round(swap_ms, 4),
        }

    def ingest_path(self, path: str | Path, received_at: float | None = None) -> dict:
        """Read one JSONL feed file and ingest it."""
        path = Path(path)
        if received_at is None:
            received_at = path.stat().st_mtime
        delta = read_delta_jsonl(path)
        report = self.ingest(delta, received_at=received_at)
        report["path"] = str(path)
        return report


def _with_pairs(pairs, extra):
    import numpy as np

    appended = np.asarray(extra, dtype=np.int64)
    if appended.size == 0:
        return pairs
    return np.concatenate([pairs, appended.reshape(-1, 2)], axis=0)


class DeltaFeedWatcher:
    """Tails a directory of ``*.jsonl`` delta files from a worker thread.

    Each file is one :class:`DeltaBatch`; files are claimed exactly once
    (by name) and processed in sorted order, so producers can drop
    ``0001.jsonl``, ``0002.jsonl``, ... into the directory and rely on
    in-order ingestion.  The directory is listed every ``poll_interval``
    seconds (10 ms by default: one glob of a small directory, while a
    closed-loop producer's next file lands a few ms after a swap); a
    landed file waits up to that long before ingestion starts.
    A file whose ingest raises (malformed, or a fine-tune that failed) is
    logged and recorded as an errored report naming the exception type,
    rather than killing the watcher.  ``close()`` stops and joins the
    thread; the watcher is also a context manager.
    """

    def __init__(self, updater: OnlineUpdater, directory: str | Path,
                 poll_interval: float = 0.01):
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.updater = updater
        self.directory = Path(directory)
        self.poll_interval = float(poll_interval)
        self._lock = threading.Lock()
        self._processed: set[str] = set()  # guarded-by: _lock
        self._reports: list[dict] = []  # guarded-by: _lock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- one poll ----------------------------------------------------------
    def poll_once(self) -> int:
        """Ingest every unclaimed feed file; returns how many ran."""
        found = sorted(self.directory.glob("*.jsonl"))
        with self._lock:
            # Claim inside one lock block (test + mutate atomically): a
            # concurrent poller can never double-ingest a file.
            pending = [p for p in found if p.name not in self._processed]
            self._processed.update(p.name for p in pending)
        ran = 0
        for path in pending:
            try:
                report = self.updater.ingest_path(path)
            except Exception as error:
                # Any failed ingest (a malformed file, a dead fine-tune
                # child, ...) is reported; the watcher keeps polling.
                _LOGGER.exception("delta ingest failed: %s", path)
                report = {
                    "path": str(path),
                    "error": f"{type(error).__name__}: {error}",
                }
            with self._lock:
                self._reports.append(report)
            ran += 1
        return ran

    def reports(self) -> list[dict]:
        """Copy of every ingest report (errored ones carry ``"error"``)."""
        with self._lock:
            return list(self._reports)

    # -- background thread -------------------------------------------------
    def start(self) -> "DeltaFeedWatcher":
        if self._thread is not None:
            raise RuntimeError("watcher already started")
        self._thread = threading.Thread(
            target=self._run, name="delta-feed-watcher", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self.poll_once()
        self.poll_once()  # drain anything that landed during shutdown

    def close(self) -> None:
        """Stop polling and join the worker (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "DeltaFeedWatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
