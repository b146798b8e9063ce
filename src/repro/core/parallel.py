"""Data-parallel training over shared-memory parameter tables.

:class:`WorkerPool` restructures an epoch around N ``multiprocessing``
workers:

* Every parameter lives in a named ``multiprocessing.shared_memory``
  segment (:class:`SharedParamStore`), so forked workers read the live
  weights with **zero copies** — the parent's in-place optimizer updates
  are immediately visible through the shared mapping.
* Each worker owns a fixed row shard of the training tables (rows
  ``w::N``) and runs the trainer's own fused forward/backward — through
  the compiled executor when the trainer was built with
  ``compile=True`` — on the data loss of Eq. 20.
* Workers ship their gradients as the optimizer's update payloads
  (:func:`~repro.nn.optim.extract_gradients`): for embedding tables,
  the ``(row-index, value)`` pairs of the rows the batch touched.
* One *round* = one batch from every active worker.  The parent merges
  the round's payloads in a fixed ``(parameter, worker)`` order through
  the same ``_index_add`` segment-sum path the backward pass uses, clips
  the merged gradient, and applies a single averaged optimizer step via
  :meth:`~repro.nn.optim.Optimizer.step_rows` — the row-sparse rule and
  lazy L2 (weight decay on the touched rows) that the sequential
  ``step()`` applies per batch.

Determinism
-----------
At a fixed worker count the schedule is reproducible run-to-run: shards
are fixed slices, each worker draws from its own
:mod:`repro.rng`-snapshotted generator stream, replies are collected in
worker-id order, and the sparse merge compacts rows with ``np.unique``
(a deterministic sort) before the segment sum.  ``workers=1`` bypasses
this module entirely — :class:`~repro.core.trainer.KGAGTrainer` runs
its sequential step loop.

Lifecycle
---------
Shared segments outlive a crashed process, so the pool is strict about
cleanup: :meth:`WorkerPool.close` stops the workers, joins them, rebinds
the parameters to private copies and closes **and unlinks** every
segment; a ``weakref.finalize`` backstop runs the same teardown at
garbage collection.  The RL107 lint rule enforces this pairing
statically for every ``SharedMemory`` call site in the repo.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
import weakref
from multiprocessing import get_context
from multiprocessing import shared_memory

import numpy as np

from ..data.loader import MixedBatchLoader
from ..nn.optim import extract_gradients
from ..nn.tensor import _index_add, no_grad
from ..rng import generator_state

__all__ = [
    "SharedParamStore",
    "ParallelStats",
    "WorkerPool",
    "extract_gradients",
    "merge_gradients",
]

_SEGMENT_PREFIX = "repro-par"


# ---------------------------------------------------------------------------
# shared-memory parameter store
# ---------------------------------------------------------------------------


class SharedParamStore:
    """Maps every model parameter to a named shared-memory segment.

    Construction copies each parameter's current values into a fresh
    segment and rebinds ``parameter.data`` to a numpy view over it, so
    the parent's in-place optimizer updates land in memory that forked
    workers see through their inherited mappings.  ``sync()`` repairs
    the binding after anything rebinds ``parameter.data`` to a private
    array (``load_state_dict`` does — on resume and on the
    best-on-validation restore at the end of ``fit``).
    """

    def __init__(self, named_parameters):
        self._named = list(named_parameters)
        self._segments = [
            shared_memory.SharedMemory(
                create=True, size=max(1, parameter.data.nbytes)
            )
            for _name, parameter in self._named
        ]
        self._arrays: list[np.ndarray] = []
        with no_grad():
            for (_name, parameter), segment in zip(self._named, self._segments):
                view = np.ndarray(
                    parameter.data.shape,
                    dtype=parameter.data.dtype,
                    buffer=segment.buf,
                )
                view[...] = parameter.data
                parameter.data = view
                self._arrays.append(view)
        self._closed = False
        self._finalizer = weakref.finalize(
            self, SharedParamStore._release, self._segments
        )

    def sync(self) -> None:
        """Rebind any parameter whose ``.data`` left the shared segment."""
        with no_grad():
            for (_name, parameter), view in zip(self._named, self._arrays):
                if parameter.data is not view:
                    view[...] = parameter.data
                    parameter.data = view

    @property
    def segment_names(self) -> list[str]:
        return [segment.name for segment in self._segments]

    def nbytes(self) -> int:
        return sum(view.nbytes for view in self._arrays)

    def close(self) -> None:
        """Detach parameters, then close and unlink every segment."""
        if self._closed:
            return
        self._closed = True
        with no_grad():
            for (_name, parameter), view in zip(self._named, self._arrays):
                if parameter.data is view:
                    parameter.data = view.copy()
        self._arrays.clear()
        self._finalizer.detach()
        SharedParamStore._release(self._segments)

    @staticmethod
    def _release(segments) -> None:
        # Static so ``weakref.finalize`` can run it without resurrecting
        # the store instance.
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # a stray view still aliases the buffer
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass


# ---------------------------------------------------------------------------
# deterministic merge
# ---------------------------------------------------------------------------


def merge_gradients(per_worker: list[list], num_parameters: int) -> list:
    """Average one round's payloads in fixed ``(parameter, worker)`` order.

    Every worker ships a parameter in the same form (its ``row_sparse``
    flag picks it).  For sparse payloads the concatenated ``(row, value)``
    pairs are compacted to unique rows through the tape's ``_index_add``
    segment-sum (``np.unique`` supplies a deterministically sorted row
    order), so the merged result is identical run-to-run at any worker
    count.  Returns
    per-parameter entries ``None`` / ``("dense", grad)`` /
    ``("rows", rows, values)``, already divided by the number of
    contributing workers (the round's step is the gradient of the mean
    batch loss).
    """
    merged = []
    scale = 1.0 / max(1, len(per_worker))
    for index in range(num_parameters):
        entries = [payloads[index] for payloads in per_worker]
        entries = [entry for entry in entries if entry is not None]
        if not entries:
            merged.append(None)
            continue
        if entries[0][0] == "dense":
            total = np.zeros_like(entries[0][1])
            for entry in entries:  # fixed worker order
                total += entry[1]
            merged.append(("dense", total * scale))
            continue
        all_rows = np.concatenate([entry[1] for entry in entries])
        all_values = np.concatenate([entry[2] for entry in entries], axis=0)
        unique_rows, inverse = np.unique(all_rows, return_inverse=True)
        summed = np.zeros(
            (unique_rows.size, all_values.shape[1]), dtype=all_values.dtype
        )
        _index_add(summed, inverse.astype(np.int64), all_values)
        merged.append(("rows", unique_rows, summed * scale))
    return merged


def _clip_merged(merged: list, max_norm: float) -> float:
    """Global-norm clip over merged payloads (mirrors ``clip_grad_norm``)."""
    total = 0.0
    for entry in merged:
        if entry is None:
            continue
        flat = entry[-1].ravel()
        total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for entry in merged:
            if entry is not None:
                payload = entry[-1]
                payload *= scale
    return norm


# ---------------------------------------------------------------------------
# parent-side stats (thread-shared with metric exporters / racecheck)
# ---------------------------------------------------------------------------


class ParallelStats:
    """Reduction counters, safe to read while an epoch is in flight.

    The pool's round loop writes from the training thread while metric
    exporters (or the race-smoke stress drill) snapshot concurrently, so
    every field is lock-guarded and tracked by ``racecheck``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._rounds = 0  # guarded-by: _lock
        self._batches = 0  # guarded-by: _lock
        self._sparse_rows = 0  # guarded-by: _lock
        self._epochs = 0  # guarded-by: _lock

    def record_round(self, batches: int, sparse_rows: int) -> None:
        with self._lock:
            self._rounds += 1
            self._batches += int(batches)
            self._sparse_rows += int(sparse_rows)

    def record_epoch(self) -> None:
        with self._lock:
            self._epochs += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "rounds": self._rounds,
                "batches": self._batches,
                "sparse_rows": self._sparse_rows,
                "epochs": self._epochs,
            }


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


class _WorkerCrash(RuntimeError):
    """A worker process reported an exception (its traceback is the message)."""


def _build_shard_loader(trainer, worker_id: int, workers: int):
    """The worker's loader over rows ``worker_id::workers``, or None."""
    group_rows = np.arange(trainer.group_train.num_interactions)[worker_id::workers]
    user_rows = np.arange(trainer.user_train.num_interactions)[worker_id::workers]
    if group_rows.size == 0:
        return None
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=trainer.config.seed, spawn_key=(worker_id,))
    )
    return MixedBatchLoader(
        trainer.group_train,
        trainer.user_train,
        batch_size=trainer.config.batch_size,
        rng=rng,
        group_rows=group_rows,
        user_rows=user_rows,
    )


def _worker_main(worker_id: int, workers: int, connection, trainer) -> None:
    """Entry point of a forked worker: step loop over its shard.

    Runs against the trainer object inherited through ``fork`` — the
    parameter arrays are shared mappings (parent updates are visible);
    everything the worker mutates (gradients, tape, compiled-program
    cache, loader state) is private after copy-on-write.
    """
    try:
        trainer._programs = {}
        trainer.model.train()
        loader = _build_shard_loader(trainer, worker_id, workers)
        parameters = list(trainer.model.parameters())
        connection.send(
            ("ready", None if loader is None else loader.rng_state())
        )
        iterator = iter(())
        while True:
            message = connection.recv()
            kind = message[0]
            if kind == "epoch":
                if message[1] is not None and loader is not None:
                    loader.set_rng_state(message[1])
                iterator = iter(loader.epoch()) if loader is not None else iter(())
            elif kind == "step":
                batch = next(iterator, None)
                if batch is None:
                    connection.send(
                        ("done", None if loader is None else loader.rng_state())
                    )
                    continue
                start = time.perf_counter()
                loss = trainer._forward_backward(batch)
                payloads = extract_gradients(parameters)
                elapsed = time.perf_counter() - start
                connection.send(("batch", float(loss.item()), elapsed, payloads))
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown command {kind!r}")
    except (EOFError, BrokenPipeError, KeyboardInterrupt):  # parent went away
        pass
    except BaseException:
        try:
            connection.send(("error", traceback.format_exc()))
        except (OSError, ValueError):  # pragma: no cover - pipe already gone
            pass
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


class WorkerPool:
    """N forked training workers around one :class:`SharedParamStore`.

    Created lazily by :class:`~repro.core.trainer.KGAGTrainer` on the
    first parallel epoch and reused across epochs; :meth:`close` (also
    wired through ``KGAGTrainer.close``) stops the workers and releases
    every shared segment.
    """

    def __init__(self, trainer, workers: int):
        if workers < 2:
            raise ValueError("WorkerPool needs workers >= 2")
        self.workers = int(workers)
        self._trainer = trainer
        self.stats = ParallelStats()
        self._closed = False
        # Rebind parameters into shared memory BEFORE forking so the
        # children's inherited mappings alias the live tables.
        self.store = SharedParamStore(trainer.model.named_parameters())
        self._parameters = [
            parameter for _name, parameter in self.store._named
        ]
        context = get_context("fork")
        pipes = [context.Pipe(duplex=True) for _ in range(self.workers)]
        self._connections = [parent_end for parent_end, _child in pipes]
        # Under fork the args are inherited, not pickled: the children's
        # parameter views alias the parent's shared mappings.
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(worker_id, self.workers, child_end, trainer),
                name=f"repro-par-{worker_id}",
                daemon=True,
            )
            for worker_id, (_parent, child_end) in enumerate(pipes)
        ]
        for process in self._processes:
            process.start()
        for _parent, child_end in pipes:
            child_end.close()
        self._worker_rng: list = []
        self._active: list[bool] = []
        for connection in self._connections:
            kind, state = self._receive(connection)
            if kind != "ready":  # pragma: no cover - handshake violation
                raise _WorkerCrash(f"worker handshake returned {kind!r}")
            self._worker_rng.append(state)
            self._active.append(state is not None)
        self._pending_rng: list | None = None
        metrics = trainer.metrics
        self._m_rounds = metrics.counter(
            "parallel/rounds_total", help="merged optimizer rounds applied"
        )
        self._m_batches = metrics.counter(
            "parallel/batches_total", help="worker batches reduced"
        )
        self._m_sparse_rows = metrics.counter(
            "parallel/sparse_rows_total",
            help="sparse gradient rows shipped by workers",
        )
        self._m_workers = metrics.gauge(
            "parallel/workers", help="worker processes in the pool"
        )
        self._m_workers.set(float(self.workers))
        self._m_round_seconds = metrics.histogram(
            "parallel/round_seconds", help="wall time per reduction round"
        )
        self._m_worker_steps = [
            metrics.histogram(
                f"parallel/worker{worker_id}/step_seconds",
                help="worker-measured forward/backward time per batch",
            )
            for worker_id in range(self.workers)
        ]
        self._finalizer = weakref.finalize(
            self, WorkerPool._shutdown, self._processes, self._connections,
            self.store,
        )

    # -- epoch orchestration ---------------------------------------------
    def train_epoch(self) -> list[float]:
        """One data-parallel epoch; returns every batch loss (worker order)."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        trainer = self._trainer
        # load_state_dict (resume / best-state restore) rebinds parameter
        # buffers to private arrays; repair the shared views first.
        self.store.sync()
        pending = self._pending_rng
        self._pending_rng = None
        for worker_id, connection in enumerate(self._connections):
            state = pending[worker_id] if pending else None
            connection.send(("epoch", state))
        remaining = [
            worker_id
            for worker_id in range(self.workers)
            if self._active[worker_id]
        ]
        losses: list[float] = []
        while remaining:
            round_start = time.perf_counter()
            for worker_id in remaining:
                self._connections[worker_id].send(("step",))
            round_payloads: list[list] = []
            round_losses: list[float] = []
            still_running: list[int] = []
            sparse_rows = 0
            for worker_id in remaining:  # fixed worker order
                kind, *body = self._receive(self._connections[worker_id])
                if kind == "done":
                    self._worker_rng[worker_id] = body[0]
                    continue
                loss_value, elapsed, payloads = body
                round_losses.append(loss_value)
                round_payloads.append(payloads)
                self._m_worker_steps[worker_id].observe(elapsed)
                still_running.append(worker_id)
                for entry in payloads:
                    if entry is not None and entry[0] == "rows":
                        sparse_rows += len(entry[1])
            remaining = still_running
            if not round_payloads:
                continue
            merged = merge_gradients(round_payloads, len(self._parameters))
            if trainer.config.max_grad_norm is not None:
                _clip_merged(merged, trainer.config.max_grad_norm)
            trainer.optimizer.step_rows(merged)
            losses.extend(round_losses)
            self.stats.record_round(len(round_losses), sparse_rows)
            self._m_rounds.inc()
            self._m_batches.inc(len(round_losses))
            self._m_sparse_rows.inc(sparse_rows)
            if trainer.metrics.enabled:
                self._m_round_seconds.observe(time.perf_counter() - round_start)
        self.stats.record_epoch()
        return losses

    # -- RNG stream registry ----------------------------------------------
    def rng_states(self) -> dict:
        """Per-worker loader stream snapshots for :class:`TrainState`."""
        return {"count": self.workers, "streams": list(self._worker_rng)}

    def set_rng_states(self, streams: list) -> None:
        """Queue restored streams; pushed to workers at the next epoch."""
        if len(streams) != self.workers:
            raise ValueError(
                f"restored {len(streams)} worker streams for a pool of "
                f"{self.workers}"
            )
        self._pending_rng = list(streams)
        self._worker_rng = list(streams)

    # -- plumbing ----------------------------------------------------------
    def _receive(self, connection):
        message = connection.recv()
        if message[0] == "error":
            crash = _WorkerCrash(f"worker failed:\n{message[1]}")
            self.close()
            raise crash
        return message

    def close(self) -> None:
        """Stop workers, join them, release every shared segment."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        WorkerPool._shutdown(self._processes, self._connections, self.store)

    @staticmethod
    def _shutdown(processes, connections, store) -> None:
        # Static so ``weakref.finalize`` can run it without resurrecting
        # the pool instance.  Joins happen with no lock held (RL105).
        for connection in connections:
            try:
                connection.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for connection in connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
        store.close()


def initial_worker_rng_states(trainer, workers: int) -> list:
    """The streams a fresh pool of ``workers`` would start from.

    Used by checkpoint capture before any pool exists; mirrors
    :func:`_build_shard_loader` exactly.
    """
    states = []
    for worker_id in range(workers):
        loader = _build_shard_loader(trainer, worker_id, workers)
        states.append(None if loader is None else loader.rng_state())
    return states


def leaked_segments() -> list[str]:
    """Names of this module's shared segments still present in /dev/shm.

    The par-smoke drill asserts this is empty after ``close()``; returns
    ``[]`` on platforms without a /dev/shm filesystem.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(_SEGMENT_PREFIX)
    )
