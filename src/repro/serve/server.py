"""JSON-over-HTTP serving API on the stdlib ``ThreadingHTTPServer``.

Endpoints
---------
``GET /healthz``
    Liveness probe: status, index version, uptime.
``GET /recommend?group=G&k=K`` (also ``POST`` with a JSON body)
    Top-K items for a group — micro-batched, cached, deadline-guarded
    with popularity fallback.  The response names its ``source``
    (``primary``, ``cache`` or ``fallback:*``).
``GET /explain?group=G&item=V``
    The SP/PI attention decomposition for one (group, item) pair —
    the paper's Fig. 6 interpretability report, served online.
``GET /stats``
    Request counters, latency percentiles, cache and breaker state.
``GET /metrics``
    The same counters as plain-text exposition
    (:meth:`~repro.obs.metrics.MetricsRegistry.render_text`) — both
    endpoints render from the one shared registry.

The service layer (:class:`RecommendationService`) is framework-free and
fully unit-testable without sockets; :class:`RecommendationServer` wires
it to HTTP.  No third-party dependencies: the whole stack is stdlib +
numpy.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..obs.metrics import LATENCY_MS_BUCKETS, MetricsRegistry
from .admission import AdmissionConfig, ShedError, build_controllers
from .cache import ScoreCache
from .engine import MicroBatcher, RankingEngine
from .fallback import CircuitBreaker, ResilientScorer

__all__ = ["ServiceError", "RecommendationService", "RecommendationServer"]

_LOGGER = logging.getLogger("repro.serve.server")


class ServiceError(ValueError):
    """Client error (bad group/item/parameter) — mapped to HTTP 4xx."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class RecommendationService:
    """The serving application: engine + cache + batching + fallback.

    Parameters
    ----------
    index:
        A loaded :class:`~repro.serve.index.EmbeddingIndex`.
    cache_capacity:
        Score-vector LRU capacity (0 disables caching).
    deadline_ms:
        Per-request primary deadline (None disables).
    batch_wait_ms / max_batch:
        Micro-batching window for concurrent requests (0 wait disables
        coalescing in practice but keeps the code path uniform).
    breaker:
        Optional custom circuit breaker (tests inject a fake clock).
    primary_override:
        Test hook: replaces the primary ``group_id -> scores`` callable
        (e.g. an injected failing scorer) while keeping the rest of the
        stack — cache, breaker, fallback — intact.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; defaults
        to a fresh private one.  Request/error counters and the latency
        histogram live in the registry, and callback gauges mirror
        component-owned state (batcher, breaker, index version), so
        ``/stats`` and ``/metrics`` render from a single source.
    scorer_threads:
        Worker threads in the resilient scorer's deadline executor.  A
        multi-process pool runs several services on one box, so each
        keeps this small; a lone server can afford the default.
    admission:
        Optional per-endpoint admission control: an
        :class:`~repro.serve.admission.AdmissionConfig` applied to both
        scoring endpoints, or a ``{endpoint: config}`` mapping.  ``None``
        (the default) disables admission control entirely.
    health_extra:
        Optional zero-argument callable merged into the ``/healthz``
        payload — the pool injects worker identity and fleet liveness
        here (and may override ``status`` to ``degraded``).
    """

    def __init__(
        self,
        index,
        cache_capacity: int = 256,
        deadline_ms: float | None = 250.0,
        batch_wait_ms: float = 2.0,
        max_batch: int = 64,
        breaker: CircuitBreaker | None = None,
        primary_override=None,
        metrics: MetricsRegistry | None = None,
        scorer_threads: int = 4,
        admission: AdmissionConfig | dict | None = None,
        health_extra=None,
    ):
        self._index_lock = threading.Lock()
        self._index = index  # guarded-by: _index_lock
        self._generation = 0  # guarded-by: _index_lock
        self.cache = ScoreCache(cache_capacity) if cache_capacity > 0 else None
        self.engine = RankingEngine(index, cache=self.cache)
        self.batcher = MicroBatcher(
            self.engine, max_wait_ms=batch_wait_ms, max_batch=max_batch
        )
        primary = primary_override or self.batcher.scores_for_group
        self.resilient = ResilientScorer(
            primary,
            self._fallback_scores,
            deadline_ms=deadline_ms,
            breaker=breaker,
            max_workers=scorer_threads,
        )
        self.admission = build_controllers(admission)
        self._health_extra = health_extra
        self._started = time.monotonic()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "serve/requests_total", help="recommendation requests served"
        )
        self._m_client_errors = self.metrics.counter(
            "serve/client_errors_total", help="requests rejected with HTTP 4xx"
        )
        self._m_internal_errors = self.metrics.counter(
            "serve/internal_errors_total",
            help="unexpected exceptions answered with HTTP 500",
        )
        self._m_shed = self.metrics.counter(
            "serve/shed_total",
            help="requests shed by admission control (HTTP 429)",
        )
        # Same 2048-sample window the old hand-rolled deque used, so the
        # /stats percentiles are byte-identical after the migration.
        self._m_latency = self.metrics.histogram(
            "serve/request_latency_ms",
            buckets=LATENCY_MS_BUCKETS,
            sample_window=2048,
            help="end-to-end recommend latency (milliseconds)",
        )
        self._m_index_swaps = self.metrics.counter(
            "serve/index_swaps_total", help="successful index hot-swaps"
        )
        # Callback gauges mirror component-owned counters into the
        # registry without double bookkeeping in the request path.
        self.metrics.gauge(
            "serve/batches_run",
            fn=lambda: self.batcher.batches_run,
            help="micro-batches executed",
        )
        self.metrics.gauge(
            "serve/batched_requests",
            fn=lambda: self.batcher.requests_served,
            help="requests served through the micro-batcher",
        )
        self.metrics.gauge(
            "serve/breaker_open",
            fn=lambda: 0.0 if self.resilient.breaker.state == "closed" else 1.0,
            help="1 when the circuit breaker is open or half-open",
        )
        self.metrics.gauge(
            "serve/breaker_trips",
            fn=lambda: self.resilient.breaker.trips,
            help="times the circuit breaker has opened",
        )
        # index.version is a hex digest, not a number — /stats carries it;
        # the registry mirrors the numeric index dimensions instead.
        self.metrics.gauge(
            "serve/index_groups",
            fn=lambda: self.index.num_groups,
            help="groups in the live embedding index",
        )
        self.metrics.gauge(
            "serve/index_items",
            fn=lambda: self.index.num_items,
            help="items in the live embedding index",
        )
        self.metrics.gauge(
            "serve/uptime_seconds",
            fn=lambda: time.monotonic() - self._started,
            help="seconds since service construction",
        )
        for endpoint, controller in sorted(self.admission.items()):
            self.metrics.gauge(
                f"serve/admission/{endpoint}/inflight",
                fn=lambda c=controller: c.inflight,
                help=f"admitted {endpoint} requests currently executing",
            )
            self.metrics.gauge(
                f"serve/admission/{endpoint}/queued",
                fn=lambda c=controller: c.queued,
                help=f"{endpoint} requests waiting for a permit",
            )
        if self.cache is not None:
            self.metrics.gauge(
                "serve/cache_entries",
                fn=lambda: self.cache.stats().size,
                help="cached score vectors",
            )
            self.metrics.gauge(
                "serve/cache_hits",
                fn=lambda: self.cache.stats().hits,
                help="cache hits",
            )
            self.metrics.gauge(
                "serve/cache_misses",
                fn=lambda: self.cache.stats().misses,
                help="cache misses",
            )
            self.metrics.gauge(
                "serve/cache_evictions",
                fn=lambda: self.cache.stats().evictions,
                help="LRU evictions",
            )
            self.metrics.gauge(
                "serve/cache_invalidations",
                fn=lambda: self.cache.stats().invalidations,
                help="full cache flushes",
            )
            self.metrics.gauge(
                "serve/cache_swap_invalidations",
                fn=lambda: self.cache.stats().swap_invalidations,
                help="cache flushes caused by index hot-swaps",
            )

    # -- primitives ------------------------------------------------------
    @property
    def index(self):
        """The live embedding index (swapped atomically by reload)."""
        with self._index_lock:
            return self._index

    def _index_snapshot(self) -> tuple[int, object]:
        """``(generation, index)``; the generation counts reloads."""
        with self._index_lock:
            return self._generation, self._index

    def _fallback_scores(self, group_id: int) -> np.ndarray:
        """Popularity scores frozen in the index (group-independent)."""
        return self.index.item_popularity

    def _check_group(self, group_id: int) -> int:
        group_id = int(group_id)
        num_groups = self.index.num_groups
        if not 0 <= group_id < num_groups:
            raise ServiceError(
                f"group {group_id} out of range [0, {num_groups})",
                status=404,
            )
        return group_id

    def _admitted(self, endpoint: str):
        """Admission permit for one endpoint (no-op context when ungated).

        Shed requests are counted here, in the service layer, so
        non-HTTP callers (tests, embedded use) feed the same
        ``serve/shed_total`` counter as the server.
        """
        controller = self.admission.get(endpoint)
        if controller is None:
            return nullcontext()
        try:
            return controller.admit()
        except ShedError:
            self._m_shed.inc()
            raise

    # -- API operations ---------------------------------------------------
    def recommend(self, group_id: int, k: int = 5, exclude_seen: bool = True) -> dict:
        """Top-K answer for one group, degrading gracefully.

        Its scores, seen mask, cache entry and ``index_version`` all come
        from one index, also when :meth:`reload_index` runs meanwhile.
        """
        with self._admitted("recommend"):
            return self._recommend(group_id, k, exclude_seen)

    def _recommend(self, group_id: int, k: int, exclude_seen: bool) -> dict:
        group_id = self._check_group(group_id)
        if k <= 0:
            raise ServiceError("k must be positive")
        start = time.perf_counter()
        # One index per answer: the cache key, the scores, the seen mask
        # and the version label.  The micro-batcher (and the popularity
        # fallback) score against the live index, so a reload that lands
        # while this read is in flight bumps the generation and the read
        # is scored again against the new index.
        while True:
            generation, index = self._index_snapshot()
            cached = (
                self.cache.get((group_id, index.version))
                if self.cache is not None
                else None
            )
            if cached is not None:
                scores, source = cached, "cache"
            else:
                answer = self.resilient.scores(group_id)
                scores, source = answer.scores, answer.source
            if self._index_snapshot()[0] == generation:
                break
        seen = index.seen_items(group_id) if exclude_seen else None
        items = RankingEngine.rank(scores, seen, k)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._m_requests.inc()
        self._m_latency.observe(elapsed_ms)
        return {
            "group": group_id,
            "k": int(k),
            "source": source,
            "index_version": index.version,
            "latency_ms": round(elapsed_ms, 3),
            "items": [
                {
                    "item": item.item,
                    "score": item.score,
                    "probability": item.probability,
                }
                for item in items
            ],
        }

    def explain(self, group_id: int, item_id: int) -> dict:
        """Attention decomposition endpoint payload."""
        with self._admitted("explain"):
            return self._explain(group_id, item_id)

    def _explain(self, group_id: int, item_id: int) -> dict:
        group_id = self._check_group(group_id)
        item_id = int(item_id)
        num_items = self.index.num_items
        if not 0 <= item_id < num_items:
            raise ServiceError(
                f"item {item_id} out of range [0, {num_items})",
                status=404,
            )
        raw = self.engine.explain(group_id, item_id)
        return {
            "group": raw["group"],
            "item": raw["item"],
            "score": raw["score"],
            "probability": raw["probability"],
            "members": [
                {
                    "user": int(user),
                    "attention": float(raw["attention"][i]),
                    "self_persistence": float(raw["sp"][i]),
                    "peer_influence": float(raw["pi"][i]),
                }
                for i, user in enumerate(raw["members"])
            ],
        }

    def healthz(self) -> dict:
        """Liveness payload.

        Never gated by admission control: an overloaded or degraded
        server must keep answering its probes honestly.
        """
        payload = {
            "status": "ok",
            "index_version": self.index.version,
            "uptime_s": round(time.monotonic() - self._started, 3),
        }
        if self._health_extra is not None:
            payload.update(self._health_extra() or {})
        return payload

    def stats(self) -> dict:
        """Counters for dashboards and the serving benchmark.

        Rendered from the shared :attr:`metrics` registry — the same
        instruments behind ``/metrics``.  The field names, ``int``
        casts, 3-decimal rounding and nearest-rank percentile formula
        are kept byte-identical to the pre-registry payload.
        """
        index = self.index
        payload = {
            "requests": int(self._m_requests.value),
            "client_errors": int(self._m_client_errors.value),
            "latency_ms": {
                "p50": round(self._m_latency.percentile(0.50), 3),
                "p95": round(self._m_latency.percentile(0.95), 3),
                "p99": round(self._m_latency.percentile(0.99), 3),
            },
            "batching": {
                "batches_run": self.batcher.batches_run,
                "requests_served": self.batcher.requests_served,
            },
            "resilience": self.resilient.stats(),
            "index": {
                "version": index.version,
                "num_groups": index.num_groups,
                "num_items": index.num_items,
                "swaps": int(self._m_index_swaps.value),
            },
        }
        payload["internal_errors"] = int(self._m_internal_errors.value)
        payload["shed"] = int(self._m_shed.value)
        if self.admission:
            payload["admission"] = {
                endpoint: controller.stats()
                for endpoint, controller in sorted(self.admission.items())
            }
        if self.cache is not None:
            payload["cache"] = self.cache.stats().as_dict()
        return payload

    def reload_index(self, index, *, drop_cache: bool = True) -> dict:
        """Swap in a new index and invalidate every cached score.

        The service and engine references flip under one lock, so a
        concurrent request snapshots either the old or the new index —
        never a mix.  A request in flight across the flip is scored
        again against the new index (see :meth:`recommend`);
        version-qualified cache keys keep entries from leaking across
        the reload.

        ``drop_cache=False`` leaves the cache alone — the pool's
        coordinated hot-swap uses it so old-version entries can keep
        serving in-flight requests until every worker has acked, then
        retires exactly that version via :meth:`ScoreCache.retire`.
        """
        with self._index_lock:
            old_version = self._index.version
            self._index = index
            self._generation += 1
            self.engine.index = index
        dropped = 0
        if drop_cache and self.cache is not None:
            dropped = self.cache.invalidate(swap=True)
        self._m_index_swaps.inc()
        return {
            "old_version": old_version,
            "new_version": index.version,
            "cache_entries_dropped": dropped,
        }

    def note_client_error(self) -> None:
        self._m_client_errors.inc()

    def note_internal_error(self) -> None:
        self._m_internal_errors.inc()

    def close(self) -> None:
        """Stop accepting new scoring work (idempotent).

        The resilient scorer closes first so post-close requests get
        fallback answers instead of racing into the batcher, then the
        micro-batcher refuses new submissions while serving what is
        already queued.
        """
        self.resilient.close()
        self.batcher.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the :class:`RecommendationService`."""

    server_version = "repro-serve/1.0"
    # HTTP/1.1 keep-alive: a closed-loop client reuses one connection
    # instead of paying a TCP handshake and a handler-thread spawn per
    # request — the difference between ~500 and ~1000 qps on this stack.
    protocol_version = "HTTP/1.1"
    # Responses are written as two small sends (headers, then body);
    # without TCP_NODELAY, Nagle + delayed-ACK stalls every keep-alive
    # response by tens of milliseconds.  This is a *handler* class
    # attribute — socketserver reads it in setup(), not off the server.
    disable_nagle_algorithm = True
    # An idle keep-alive connection must not pin its handler thread
    # forever.
    timeout = 60

    # Populated by RecommendationServer via a subclass attribute.
    service: RecommendationService

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep pytest / smoke output clean

    def _send_json(
        self, payload: dict, status: int = 200, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, body: str, status: int = 200) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _params(self) -> dict:
        return {
            key: values[-1]
            for key, values in parse_qs(urlparse(self.path).query).items()
        }

    def _body_params(self) -> dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except (TypeError, ValueError):
            # A malformed header is the client's mistake: 400, not an
            # uncaught ValueError tearing down the connection.
            raise ServiceError(
                f"invalid Content-Length header {raw_length!r}"
            ) from None
        if length < 0:
            raise ServiceError(f"invalid Content-Length header {raw_length!r}")
        if not length:
            return {}
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ServiceError(f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise ServiceError("JSON body must be an object")
        return payload

    def _dispatch(self, params: dict) -> None:
        route = urlparse(self.path).path.rstrip("/") or "/"
        try:
            if route == "/healthz":
                self._send_json(self.service.healthz())
            elif route == "/stats":
                self._send_json(self.service.stats())
            elif route == "/metrics":
                self._send_text(self.service.metrics.render_text())
            elif route == "/recommend":
                self._send_json(
                    self.service.recommend(
                        group_id=_as_int(params, "group"),
                        k=_as_int(params, "k", default=5),
                        exclude_seen=_as_bool(params, "exclude_seen", default=True),
                    )
                )
            elif route == "/explain":
                self._send_json(
                    self.service.explain(
                        group_id=_as_int(params, "group"),
                        item_id=_as_int(params, "item"),
                    )
                )
            else:
                self._send_json({"error": f"unknown route {route}"}, status=404)
        except ShedError as error:
            # Load shed: tell the client when to come back.
            self._send_json(
                {"error": str(error), "reason": error.reason},
                status=error.status,
                headers={"Retry-After": error.retry_after_header},
            )
        except ServiceError as error:
            self.service.note_client_error()
            self._send_json({"error": str(error)}, status=error.status)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response; there is nobody to answer.
            self.close_connection = True
        except Exception:
            # Anything else is a server bug: answer a JSON 500 and count
            # it, instead of leaking a traceback through the stdlib
            # handler and resetting the connection.
            self.service.note_internal_error()
            _LOGGER.exception("unhandled error serving %s", self.path)
            try:
                self._send_json({"error": "internal server error"}, status=500)
            except OSError:
                self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(self._params())

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            params = {**self._params(), **self._body_params()}
        except ServiceError as error:
            self.service.note_client_error()
            self._send_json({"error": str(error)}, status=error.status)
            return
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
            return
        except Exception:
            self.service.note_internal_error()
            _LOGGER.exception("unhandled error parsing a request body")
            try:
                self._send_json({"error": "internal server error"}, status=500)
            except OSError:
                self.close_connection = True
            return
        self._dispatch(params)


def _as_int(params: dict, name: str, default: int | None = None) -> int:
    if name not in params:
        if default is None:
            raise ServiceError(f"missing required parameter {name!r}")
        return default
    try:
        return int(params[name])
    except (TypeError, ValueError):
        raise ServiceError(f"parameter {name!r} must be an integer") from None


_TRUE_LITERALS = ("1", "true", "yes", "on")
_FALSE_LITERALS = ("0", "false", "no", "off")


def _as_bool(params: dict, name: str, default: bool) -> bool:
    if name not in params:
        return default
    value = params[name]
    if isinstance(value, bool):
        return value
    literal = str(value).strip().lower()
    if literal in _TRUE_LITERALS:
        return True
    if literal in _FALSE_LITERALS:
        return False
    # A typo (?exclude_seen=ture) must not silently flip semantics.
    raise ServiceError(
        f"parameter {name!r} must be one of "
        f"{'/'.join(_TRUE_LITERALS)} or {'/'.join(_FALSE_LITERALS)}, "
        f"got {str(value)!r}"
    )


class RecommendationServer:
    """A threaded HTTP server around a :class:`RecommendationService`.

    Parameters
    ----------
    service:
        The application layer.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (the bound port
        is available as :attr:`port` — used by tests and the smoke
        target).
    sock:
        Optional pre-bound socket to serve on instead of binding
        ``host:port`` — how pool workers adopt their ``SO_REUSEPORT``
        listener (or an inherited shared one).  May be bound-only or
        already listening; activation listens either way.
    reuse_port:
        Set ``SO_REUSEPORT`` before binding, so several servers (in
        several processes) can share one port and let the kernel balance
        connections across them.
    backlog:
        Listen backlog (defaults to the stdlib's 5; the pool raises it
        so connection bursts queue in the kernel instead of failing).
    """

    def __init__(
        self,
        service: RecommendationService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sock: socket.socket | None = None,
        reuse_port: bool = False,
        backlog: int | None = None,
    ):
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), handler, bind_and_activate=False)
        self._httpd.daemon_threads = True
        # A wedged handler thread must not also wedge shutdown:
        # server_close() would otherwise join every connection thread.
        self._httpd.block_on_close = False
        if backlog is not None:
            self._httpd.request_queue_size = int(backlog)
        if sock is not None:
            self._httpd.socket.close()
            self._httpd.socket = sock
            bound_host, bound_port = sock.getsockname()[:2]
            self._httpd.server_address = (bound_host, bound_port)
            self._httpd.server_name = bound_host
            self._httpd.server_port = bound_port
            self._httpd.server_activate()
        else:
            if reuse_port:
                if not hasattr(socket, "SO_REUSEPORT"):
                    raise OSError("SO_REUSEPORT is not available on this platform")
                self._httpd.socket.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                )
            self._httpd.server_bind()
            self._httpd.server_activate()
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RecommendationServer":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> bool:
        """Shut down the listener and the service worker pool.

        Returns ``True`` when the serve thread actually exited within
        ``timeout`` seconds and ``False`` when it did not — a hung
        handler used to leave a live daemon thread behind a silently
        "stopped" server.  A timed-out join is also logged, and the
        abandoned thread is left daemonized so interpreter exit is not
        blocked.  The listener socket and the service are closed either
        way.
        """
        clean = True
        if self._thread is not None:
            thread = self._thread
            self._httpd.shutdown()
            thread.join(timeout=timeout)
            if thread.is_alive():
                _LOGGER.warning(
                    "serve thread %r did not exit within %.1fs "
                    "(a handler is wedged); abandoning the daemon thread",
                    thread.name,
                    timeout,
                )
                clean = False
            self._thread = None
        self._httpd.server_close()
        self.service.close()
        return clean

    def serve_forever(self) -> None:
        """Blocking serve loop (the ``repro serve`` CLI entry point)."""
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self.service.close()
