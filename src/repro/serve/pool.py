"""Pre-fork multi-process serving over one memory-mapped index artifact.

A single :class:`~repro.serve.server.RecommendationServer` is bounded by
one GIL: its scoring, JSON and HTTP work share one core however many
the box has, and one process heap holds the whole embedding table.
:class:`ServingPool` removes both bounds:

* **N pre-forked workers.** The parent forks ``workers`` processes.
  Where the kernel supports it each worker opens its own
  ``SO_REUSEPORT`` listener on the shared port and the kernel balances
  connections across them; the parent holds a bound-but-*not*-listening
  placeholder socket that reserves the port across crashes and respawns
  without ever receiving a connection (``SO_REUSEPORT`` balances across
  *listening* sockets only).  Without ``SO_REUSEPORT`` the parent binds
  one shared listening socket before forking and every worker accepts
  from it.

* **One page-cache copy of the index.** Every worker opens the artifact
  with ``EmbeddingIndex.load(mmap=True)``: the archive is verified by a
  streaming fingerprint (never materialized) and served from zero-copy
  views over one read-only memory map, so N workers share a single
  page-cache copy of the tables.

* **Supervision.** A monitor thread reaps crashed workers and (by
  default) respawns them into the same slot.  A shared heartbeat table
  — one byte per slot — lets every worker render honest ``/healthz``
  degradation (``status: degraded`` while any slot is down) without a
  parent round-trip.

* **Coordinated hot-swap.** ``reload(path)`` verifies the candidate in
  the parent, broadcasts the path, and waits for every worker to reload
  and ack the new version; only then is the *old* version retired from
  the per-worker score caches (``ScoreCache.retire``), preserving the
  version-keyed invalidation contract across the fleet.

Per-endpoint admission control (:mod:`repro.serve.admission`) rides
along unchanged: each worker enforces its own bounded in-flight permits,
so fleet capacity is ``workers × max_inflight``.

Drilled in ``tests/serve/test_pool.py``: parity with one process, a
shedding burst, the coordinated swap and zero leaked workers on close.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.sharedctypes import RawArray
from pathlib import Path

from ..obs.metrics import MetricsRegistry, merge_snapshots, quantile_from_snapshot
from .index import EmbeddingIndex
from .server import RecommendationServer, RecommendationService

__all__ = ["ServingPool", "reuse_port_available"]


def reuse_port_available() -> bool:
    """True when this platform supports ``SO_REUSEPORT`` listener sharding."""
    return hasattr(socket, "SO_REUSEPORT")


@dataclass
class _WorkerSpec:
    """Everything a worker needs to build its serving stack.

    Inherited through ``fork`` — plain data only, no sockets (the shared
    listener, if any, is passed separately so it is explicit).
    """

    index_path: str
    host: str
    port: int
    mmap: bool
    reuse_port: bool
    backlog: int
    service_config: dict
    admission: object
    workers: int


@dataclass
class _Worker:
    """Parent-side record of one worker slot."""

    worker_id: int
    process: object
    connection: object


def _pool_worker_main(worker_id, spec, connection, listener, heartbeat):
    """Forked worker entry point: build the stack, serve, obey the parent.

    The control protocol over ``connection`` is strictly
    request/response: the parent sends ``("reload", path)``,
    ``("retire", version)``, ``("stats",)``, ``("crash",)`` or
    ``("stop",)`` and every command except the last two is answered
    exactly once.
    """
    server = None
    try:
        index = EmbeddingIndex.load(spec.index_path, mmap=spec.mmap)

        def pool_health() -> dict:
            # Shared single-byte flags: racy by a monitor tick at most,
            # and reads/writes of one byte are atomic.
            alive = int(sum(1 for flag in heartbeat if flag))
            extra = {
                "pool": {
                    "workers": spec.workers,
                    "alive": alive,
                    "worker": worker_id,
                    "pid": os.getpid(),
                },
            }
            if alive < spec.workers:
                extra["status"] = "degraded"
            return extra

        service = RecommendationService(
            index,
            metrics=MetricsRegistry(),
            admission=spec.admission,
            health_extra=pool_health,
            **spec.service_config,
        )
        if listener is not None:
            sock = listener
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((spec.host, spec.port))
        server = RecommendationServer(service, sock=sock, backlog=spec.backlog).start()
        connection.send(("ready", os.getpid(), index.version))
        while True:
            message = connection.recv()
            kind = message[0]
            if kind == "reload":
                try:
                    new_index = EmbeddingIndex.load(message[1], mmap=spec.mmap)
                    # The parent retires the old version once the whole
                    # fleet has acked; don't flush the cache here.
                    report = service.reload_index(new_index, drop_cache=False)
                    connection.send(("reloaded", report["new_version"]))
                except Exception:
                    connection.send(("reload_failed", traceback.format_exc()))
            elif kind == "retire":
                dropped = (
                    service.cache.retire(message[1])
                    if service.cache is not None
                    else 0
                )
                connection.send(("retired", dropped))
            elif kind == "stats":
                connection.send(
                    (
                        "stats",
                        {
                            "worker": worker_id,
                            "pid": os.getpid(),
                            "stats": service.stats(),
                            "metrics": service.metrics.snapshot(),
                        },
                    )
                )
            elif kind == "crash":
                # Test hook: die the way a segfault would — no ack, no
                # cleanup, nonzero exit.
                os._exit(23)
            elif kind == "stop":
                break
            else:
                raise RuntimeError(f"unknown pool command {kind!r}")
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass  # parent went away (or Ctrl-C): exit quietly
    except BaseException:
        try:
            connection.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        if server is not None:
            server.stop()
        connection.close()


class ServingPool:
    """N pre-forked serving processes sharing one mmap'd index and one port.

    Parameters
    ----------
    index_path:
        A saved index artifact (``EmbeddingIndex.save``).  Verified in
        the parent before any worker is forked.
    workers:
        Number of serving processes.
    host / port:
        Shared bind address; ``port=0`` picks an ephemeral port
        (available as :attr:`port`).
    mmap:
        Open the artifact memory-mapped in every worker (the point of
        the pool); ``False`` falls back to per-worker heap copies.
    reuse_port:
        ``True`` forces ``SO_REUSEPORT`` sharding, ``False`` forces the
        shared pre-fork listener, ``None`` (default) picks by platform.
    respawn:
        Replace crashed workers automatically.  Tests set ``False`` to
        observe honest degradation.
    monitor_interval:
        Crash-detection poll period in seconds.
    service_config:
        Keyword arguments forwarded to every worker's
        :class:`~repro.serve.server.RecommendationService` (cache size,
        deadline, ``scorer_threads``...).
    admission:
        Admission spec forwarded verbatim (see
        :func:`~repro.serve.admission.build_controllers`).
    """

    def __init__(
        self,
        index_path,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        mmap: bool = True,
        reuse_port: bool | None = None,
        respawn: bool = True,
        monitor_interval: float = 0.2,
        ready_timeout: float = 30.0,
        backlog: int = 128,
        service_config: dict | None = None,
        admission=None,
    ):
        if workers < 1:
            raise ValueError("ServingPool needs at least one worker")
        path = Path(index_path)
        # Fingerprint-verify in the parent before any worker maps the
        # artifact; with mmap the verification itself streams over the
        # mapped pages without materializing the tables.
        verified_version = EmbeddingIndex.load(path, mmap=mmap).version
        self.workers = int(workers)
        self.host = host
        self.mmap = bool(mmap)
        self.respawn = bool(respawn)
        self.monitor_interval = float(monitor_interval)
        self.ready_timeout = float(ready_timeout)
        if reuse_port is None:
            reuse_port = reuse_port_available()
        self.reuse_port = bool(reuse_port)
        self._context = get_context("fork")
        self._listener: socket.socket | None = None
        self._placeholder: socket.socket | None = None
        if self.reuse_port:
            # Reserve the port with a bound, NON-listening placeholder:
            # invisible to incoming SYNs (the kernel balances across
            # listening sockets only) but it keeps the port ours while
            # workers crash and respawn.
            self._placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            self._placeholder.bind((host, port))
            self.port = self._placeholder.getsockname()[1]
        else:
            # Fallback: one shared listening socket bound before forking;
            # every worker accepts from it and the kernel hands each
            # connection to exactly one of them.
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(backlog)
            self.port = self._listener.getsockname()[1]
        self._spec = _WorkerSpec(
            index_path=str(path),
            host=host,
            port=self.port,
            mmap=self.mmap,
            reuse_port=self.reuse_port,
            backlog=int(backlog),
            service_config=dict(service_config or {}),
            admission=admission,
            workers=self.workers,
        )
        # One liveness byte per worker slot, fork-shared with every
        # child, so workers render honest /healthz degradation without a
        # parent round-trip.
        self._heartbeat = RawArray("b", self.workers)
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._version = verified_version  # guarded-by: _lock
        self._respawns = 0  # guarded-by: _lock
        self._table: list[_Worker] = []  # guarded-by: _lock
        self._monitor: threading.Thread | None = None
        self._finalizer = weakref.finalize(
            self,
            ServingPool._shutdown,
            self._table,
            self._listener,
            self._placeholder,
        )
        try:
            for worker_id in range(self.workers):
                self._table.append(self._spawn(worker_id))
        except BaseException:
            self.close()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-serve-pool-monitor", daemon=True
        )
        self._monitor.start()

    # -- lifecycle --------------------------------------------------------
    def _make_process(self, worker_id: int, child_end):
        # Creation lives in its own returning helper; the spawned
        # process is released in _shutdown (and joined in _spawn's error
        # paths).
        return self._context.Process(
            target=_pool_worker_main,
            args=(worker_id, self._spec, child_end, self._listener, self._heartbeat),
            name=f"repro-serve-worker-{worker_id}",
            daemon=True,
        )

    def _spawn(self, worker_id: int) -> _Worker:
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._make_process(worker_id, child_end)
        process.start()
        child_end.close()
        if not parent_end.poll(self.ready_timeout):
            process.terminate()
            process.join(timeout=5.0)
            raise RuntimeError(
                f"serving worker {worker_id} did not become ready within "
                f"{self.ready_timeout:g}s"
            )
        message = parent_end.recv()
        if message[0] != "ready":
            detail = message[1] if len(message) > 1 else message
            process.terminate()
            process.join(timeout=5.0)
            raise RuntimeError(f"serving worker {worker_id} failed to start:\n{detail}")
        self._heartbeat[worker_id] = 1
        return _Worker(worker_id=worker_id, process=process, connection=parent_end)

    def _monitor_loop(self) -> None:
        """Reap dead workers; respawn them unless configured not to."""
        while True:
            time.sleep(self.monitor_interval)
            with self._lock:
                if self._closed:
                    return
                dead = [
                    worker for worker in self._table if not worker.process.is_alive()
                ]
                for worker in dead:
                    self._heartbeat[worker.worker_id] = 0
            for worker in dead:
                # Joins happen with no lock held (RL105).
                worker.process.join(timeout=5.0)
                try:
                    worker.connection.close()
                except OSError:
                    pass
                if not self.respawn:
                    continue
                try:
                    replacement = self._spawn(worker.worker_id)
                except RuntimeError:
                    continue  # retried on the next tick
                with self._lock:
                    closed = self._closed
                    if not closed:
                        self._table[worker.worker_id] = replacement
                        self._respawns += 1
                if closed:
                    ServingPool._shutdown([replacement], None, None)
                    return

    def close(self) -> None:
        """Stop every worker, join them, release the sockets (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            table = list(self._table)
        # The monitor checks _closed under the lock each tick and exits;
        # a tick mid-respawn cleans up its own replacement.
        if self._monitor is not None:
            self._monitor.join(timeout=self.ready_timeout + 5.0)
        self._finalizer.detach()
        ServingPool._shutdown(table, self._listener, self._placeholder)

    @staticmethod
    def _shutdown(table, listener, placeholder) -> None:
        # Static so ``weakref.finalize`` can run it without resurrecting
        # the pool.  Joins happen with no lock held (RL105).
        for worker in table:
            try:
                worker.connection.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in table:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        for worker in table:
            try:
                worker.connection.close()
            except OSError:
                pass
        for sock in (listener, placeholder):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    def __enter__(self) -> "ServingPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- control plane ----------------------------------------------------
    def _broadcast_locked(self, message: tuple, expect: tuple) -> list:
        """Send ``message`` to every live worker; collect one reply each."""
        contacted = []
        for worker in self._table:
            if not worker.process.is_alive():
                continue
            try:
                worker.connection.send(message)
            except (OSError, ValueError, BrokenPipeError):
                self._heartbeat[worker.worker_id] = 0
                continue
            contacted.append(worker)
        replies = []
        for worker in contacted:
            if not worker.connection.poll(self.ready_timeout):
                raise RuntimeError(
                    f"serving worker {worker.worker_id} did not answer "
                    f"{message[0]!r} within {self.ready_timeout:g}s"
                )
            reply = worker.connection.recv()
            if reply[0] == "error":
                raise RuntimeError(
                    f"serving worker {worker.worker_id} crashed:\n{reply[1]}"
                )
            if reply[0] not in expect:
                raise RuntimeError(
                    f"serving worker {worker.worker_id} answered {reply[0]!r} "
                    f"to {message[0]!r}"
                )
            replies.append((worker.worker_id, reply))
        if not replies:
            raise RuntimeError("no live serving workers to broadcast to")
        return replies

    def reload(self, index_path) -> dict:
        """Hot-swap the whole pool onto a new index artifact.

        The parent fingerprint-verifies the candidate first, so a
        corrupt artifact is rejected before any worker maps it.  Every
        worker then reloads and acks the new version; only after all
        acks is the *old* version retired from the per-worker caches.
        Respawned workers pick up the new path automatically.
        """
        path = Path(index_path)
        new_version = EmbeddingIndex.load(path, mmap=self.mmap).version
        with self._lock:
            if self._closed:
                raise RuntimeError("ServingPool is closed")
            old_version = self._version
            replies = self._broadcast_locked(
                ("reload", str(path)), expect=("reloaded", "reload_failed")
            )
            failed = [reply for _, reply in replies if reply[0] == "reload_failed"]
            if failed:
                raise RuntimeError(
                    f"index reload failed on {len(failed)} worker(s):\n{failed[0][1]}"
                )
            mismatched = [
                reply for _, reply in replies if reply[1] != new_version
            ]
            if mismatched:
                raise RuntimeError(
                    f"reload version skew: expected {new_version}, "
                    f"workers answered {sorted({r[1] for r in mismatched})}"
                )
            # Every worker acked the new version — only now retire the
            # old one and point future respawns at the new artifact.
            self._version = new_version
            self._spec.index_path = str(path)
            retired = self._broadcast_locked(("retire", old_version), expect=("retired",))
        return {
            "old_version": old_version,
            "new_version": new_version,
            "workers": len(replies),
            "cache_entries_retired": int(sum(reply[1] for _, reply in retired)),
        }

    def stats(self) -> dict:
        """Fleet view: per-worker payloads plus merged fleet aggregates.

        Counters merge by summation; the workers' latency histograms merge
        by adding bucket counts, so the fleet percentiles
        (:func:`~repro.obs.metrics.quantile_from_snapshot`) are those of
        one histogram fed every request, within 1% of the exact sample.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("ServingPool is closed")
            version = self._version
            replies = self._broadcast_locked(("stats",), expect=("stats",))
        per_worker = [reply[1] for _, reply in replies]
        merged = merge_snapshots([worker["metrics"] for worker in per_worker])

        def counter(name: str) -> int:
            record = merged.get(name)
            return int(record["value"]) if record else 0

        latency = merged.get("serve/request_latency_ms")
        aggregate = {
            "workers": self.workers,
            "responding": len(per_worker),
            "index_version": version,
            "requests": counter("serve/requests_total"),
            "client_errors": counter("serve/client_errors_total"),
            "internal_errors": counter("serve/internal_errors_total"),
            "shed": counter("serve/shed_total"),
            "index_swaps": counter("serve/index_swaps_total"),
            "latency_ms": {
                "p50": quantile_from_snapshot(latency, 0.50) if latency else 0.0,
                "p95": quantile_from_snapshot(latency, 0.95) if latency else 0.0,
                "p99": quantile_from_snapshot(latency, 0.99) if latency else 0.0,
            },
        }
        return {"aggregate": aggregate, "per_worker": per_worker}

    # -- introspection ----------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def version(self) -> str:
        with self._lock:
            return self._version

    @property
    def respawns(self) -> int:
        with self._lock:
            return self._respawns

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for worker in self._table if worker.process.is_alive())

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [worker.process.pid for worker in self._table]

    def inject_crash(self, worker_id: int) -> None:
        """Test hook: make one worker die abruptly (no ack, no cleanup)."""
        with self._lock:
            worker = self._table[worker_id]
            try:
                worker.connection.send(("crash",))
            except (OSError, ValueError, BrokenPipeError):
                pass
