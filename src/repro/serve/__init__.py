"""repro.serve — cached, fault-tolerant recommendation serving.

The training stack optimizes for gradient fidelity; this package
optimizes for request latency.  The split follows the KGCN / SIAGR
serving recipe: freeze the expensive knowledge-graph propagation into an
offline artifact, keep only the cheap per-request group-attention math
online.

* :mod:`~repro.serve.index` — :class:`EmbeddingIndex`: the offline
  artifact (frozen embeddings, weights, neighbor tables; ``.npz`` +
  metadata + content fingerprint);
* :mod:`~repro.serve.engine` — :class:`RankingEngine`: tape-free numpy
  scoring with seen-item masking, and :class:`MicroBatcher`, the
  per-group single flight that scores concurrent misses of one group
  once;
* :mod:`~repro.serve.cache` — :class:`ScoreCache`: bounded LRU of
  per-group score vectors keyed on the index version;
* :mod:`~repro.serve.fallback` — deadline, circuit breaker and the
  popularity fallback;
* :mod:`~repro.serve.server` — the stdlib HTTP JSON API
  (``/recommend``, ``/explain``, ``/healthz``, ``/stats``);
* :mod:`~repro.serve.admission` — per-endpoint admission control
  (bounded in-flight permits, bounded queue, 429 load shedding);
* :mod:`~repro.serve.pool` — :class:`ServingPool`: N pre-forked worker
  processes sharing one memory-mapped index artifact and one port.

Build an index with ``python -m repro build-index`` and serve it with
``python -m repro serve``; see ``docs/serving.md``.  End to end, the
HTTP surface is checked by ``tests/serve/test_server.py`` and the pool
under a shedding burst by ``tests/serve/test_pool.py``.
"""

from .admission import AdmissionConfig, AdmissionController, ShedError
from .cache import CacheStats, ScoreCache
from .engine import (
    LiveModelIndex,
    MicroBatcher,
    RankedItem,
    RankingEngine,
)
from .fallback import CircuitBreaker, FallbackAnswer, ResilientScorer
from .index import EmbeddingIndex, build_index
from .pool import ServingPool, reuse_port_available
from .server import RecommendationServer, RecommendationService, ServiceError

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "ShedError",
    "CacheStats",
    "ScoreCache",
    "LiveModelIndex",
    "MicroBatcher",
    "RankedItem",
    "RankingEngine",
    "CircuitBreaker",
    "FallbackAnswer",
    "ResilientScorer",
    "EmbeddingIndex",
    "build_index",
    "ServingPool",
    "reuse_port_available",
    "RecommendationServer",
    "RecommendationService",
    "ServiceError",
]
