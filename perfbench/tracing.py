"""Spans recorded around the public calls of each layer (traced runs only).

A :class:`Tracer` keeps spans in memory — name, start, end, parent,
thread, read id and a few attributes — and writes them out once, when
the process ends.  :func:`install` replaces public functions and methods
of the program with thin timing wrappers for the life of the process;
the untraced run never calls it, and both runs execute the same program
code underneath.

Clocks are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so
spans written by the server and timestamps taken by the load generator
share one time base.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self):
        self.spans: list[dict] = []
        self.rows: list[tuple[int, int]] = []  # (rows referenced, rows updated) per step
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._handoff: dict[int, deque] = defaultdict(deque)
        self._handoff_lock = threading.Lock()

    # -- context -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def read_id(self):
        return getattr(self._local, "read", None)

    @contextmanager
    def span(self, name: str, parent=None, read=None, **attrs):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        if read is None:
            read = self.read_id
        stack.append(span_id)
        start = time.perf_counter()
        record = {"id": span_id, "name": name, "parent": parent,
                  "thread": threading.get_ident(), "read": read}
        try:
            yield record
        finally:
            record["start"] = start
            record["end"] = time.perf_counter()
            if attrs:
                record.update(attrs)
            stack.pop()
            self.spans.append(record)

    def hand_off(self, key, context) -> None:
        """Park ``context`` for the thread that will pick up ``key``."""
        with self._handoff_lock:
            self._handoff[key].append(context)

    def take(self, key):
        with self._handoff_lock:
            queue = self._handoff.get(key)
            return queue.popleft() if queue else None

    # -- patching (for the life of the process) -----------------------------
    def timed(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return wrapper

    def wrap_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self.timed(name, cls.__dict__[attr]))

    def wrap_function(self, module, attr: str, name: str) -> None:
        setattr(module, attr, self.timed(name, getattr(module, attr)))

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "rows": self.rows}))


# -- installers ------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap every public call the per-layer metrics are made of."""
    _install_train(tracer)
    _install_serve(tracer)
    _install_stream(tracer)


def _install_train(tracer: Tracer) -> None:
    """Model build, loader, forward, loss, backward, Adam and validation."""
    import repro.core.trainer as trainer_module
    from repro.core.model import KGAG
    from repro.core.trainer import KGAGTrainer
    from repro.data.loader import MixedBatchLoader
    from repro.nn.layers import Embedding
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    tracer.wrap_method(KGAG, "__init__", "core.model.build")
    tracer.wrap_method(KGAG, "group_item_scores_pair", "core.model.forward")
    tracer.wrap_method(KGAG, "user_item_scores", "core.model.forward")
    tracer.wrap_function(trainer_module, "combined_loss", "core.losses.loss")
    tracer.wrap_method(Tensor, "backward", "nn.tensor.backward")
    tracer.wrap_method(KGAGTrainer, "train_step", "core.trainer.train_step")
    tracer.wrap_method(KGAGTrainer, "train_epoch", "core.trainer.train_epoch")
    tracer.wrap_method(KGAGTrainer, "validate", "core.trainer.validate")

    original_epoch = MixedBatchLoader.__dict__["epoch"]

    @functools.wraps(original_epoch)
    def epoch(self, *args, **kwargs):
        batches = original_epoch(self, *args, **kwargs)
        while True:
            with tracer.span("data.loader.batch"):
                try:
                    batch = next(batches)
                except StopIteration:
                    return
            yield batch

    setattr(MixedBatchLoader, "epoch", epoch)

    # Rows referenced: every Embedding lookup since the last optimizer
    # step, per table.  A parameter used whole (the relation table, the
    # aggregator weights) counts all of its rows.
    referenced: dict[int, list] = defaultdict(list)
    original_forward = Embedding.__dict__["forward"]

    @functools.wraps(original_forward)
    def forward(self, indices):
        referenced[id(self.weight)].append(np.asarray(indices).reshape(-1))
        return original_forward(self, indices)

    setattr(Embedding, "forward", forward)
    original_step = Adam.__dict__["step"]

    @functools.wraps(original_step)
    def step(self):
        with tracer.span("trace.rows"):
            touched = updated = 0
            for parameter in self.parameters:
                rows = parameter.data.shape[0] if parameter.data.ndim else 1
                updated += rows
                lookups = referenced.get(id(parameter))
                touched += len(np.unique(np.concatenate(lookups))) if lookups else rows
            referenced.clear()
            tracer.rows.append((touched, updated))
        with tracer.span("nn.optim.step"):
            return original_step(self)

    setattr(Adam, "step", step)


def _install_serve(tracer: Tracer) -> None:
    """The read path: service, cache, resilient hop, batcher, engine, rank."""
    from repro.serve.cache import ScoreCache
    from repro.serve.engine import MicroBatcher, RankingEngine
    from repro.serve.fallback import ResilientScorer
    from repro.serve.index import EmbeddingIndex
    from repro.serve.server import RecommendationService

    reads = itertools.count(1)
    original_recommend = RecommendationService.__dict__["recommend"]

    @functools.wraps(original_recommend)
    def recommend(self, group_id, k=5, exclude_seen=True):
        tracer._local.read = next(reads)
        try:
            with tracer.span("serve.server.recommend", group=group_id) as record:
                try:
                    return original_recommend(self, group_id, k, exclude_seen)
                except Exception:
                    record["error"] = True
                    raise
        finally:
            tracer._local.read = None

    setattr(RecommendationService, "recommend", recommend)
    tracer.wrap_method(RecommendationService, "reload_index", "serve.server.reload")
    tracer.wrap_method(ScoreCache, "get", "serve.cache.get")

    original_scores_for_groups = RankingEngine.__dict__["scores_for_groups"]

    @functools.wraps(original_scores_for_groups)
    def scores_for_groups(self, group_ids):
        groups = [int(g) for g in group_ids]
        with tracer.span("serve.engine.scores_for_groups", groups=groups):
            return original_scores_for_groups(self, groups)

    setattr(RankingEngine, "scores_for_groups", scores_for_groups)
    rank = RankingEngine.__dict__["rank"].__func__
    setattr(RankingEngine, "rank", staticmethod(tracer.timed("serve.engine.rank", rank)))
    load = EmbeddingIndex.__dict__["load"].__func__
    setattr(EmbeddingIndex, "load", classmethod(tracer.timed("serve.index.load", load)))

    # The resilient scorer runs the micro-batcher on an executor thread;
    # the read id crosses that hop through a per-group hand-off.
    original_scores = ResilientScorer.__dict__["scores"]

    @functools.wraps(original_scores)
    def scores(self, group_id):
        with tracer.span("serve.fallback.scores") as record:
            tracer.hand_off(int(group_id), (tracer.read_id, record["id"]))
            return original_scores(self, group_id)

    setattr(ResilientScorer, "scores", scores)
    original_batch = MicroBatcher.__dict__["scores_for_group"]

    @functools.wraps(original_batch)
    def scores_for_group(self, group_id):
        read, parent = tracer.take(int(group_id)) or (None, None)
        tracer._local.read = read
        try:
            with tracer.span("serve.batcher.scores_for_group", parent=parent,
                             group=int(group_id)):
                return original_batch(self, group_id)
        finally:
            tracer._local.read = None

    setattr(MicroBatcher, "scores_for_group", scores_for_group)


def _install_stream(tracer: Tracer) -> None:
    """The ingest path, with each stage as ``repro.stream.updater`` looks it up."""
    import repro.stream.delta as delta_module
    import repro.stream.updater as updater_module
    from repro.stream.updater import OnlineUpdater

    original_ingest = OnlineUpdater.__dict__["ingest_path"]

    @functools.wraps(original_ingest)
    def ingest_path(self, path, received_at=None):
        with tracer.span("stream.updater.ingest_path", path=Path(path).name):
            return original_ingest(self, path, received_at)

    setattr(OnlineUpdater, "ingest_path", ingest_path)
    tracer.wrap_function(updater_module, "read_delta_jsonl", "stream.delta.read")
    # ``apply_delta`` is imported inside ``ingest`` at call time.
    tracer.wrap_function(delta_module, "apply_delta", "stream.delta.apply")
    tracer.wrap_function(updater_module, "warm_start", "stream.grow.warm_start")
    tracer.wrap_function(updater_module, "finetune", "stream.grow.finetune")
    tracer.wrap_function(updater_module, "build_index", "serve.index.build")
