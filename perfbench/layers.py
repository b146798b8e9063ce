"""Per-layer metrics from recorded spans (the ``--trace 1`` run).

Every metric is a mean per step, read, batch call or delta unless its
name says otherwise, so stages add up: per step, ``train_step`` =
forward + loss + backward + ``Adam.step`` + ``train.step.unattributed_ms``;
per read, client latency = ``http_ms`` + ``recommend_ms``, and a miss's
``recommend`` = hop + batch wait + ``miss_score_ms`` + ``miss_other_ms``
(cache lookups, rank and unattributed service code); per delta, delta-to-serve = poll wait +
apply + warm start + fine-tune + build + reload +
``stream.delta.unattributed_ms``.  A layer that a workload never calls
reports 0.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from pathlib import Path

from common import mean as _mean

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("core.model.build_s", "s"),
    ("data.loader.batch_ms", "ms"),
    ("core.model.forward_ms", "ms"),
    ("core.losses.loss_ms", "ms"),
    ("nn.tensor.backward_ms", "ms"),
    ("nn.optim.step_ms", "ms"),
    ("nn.optim.rows_touched_share", "ratio"),
    ("train.step.unattributed_ms", "ms"),
    ("serve.engine.catalog_ms", "ms"),
    ("eval.rank_ms", "ms"),
    ("serve.index.load_s", "s"),
    ("serve.server.http_ms", "ms"),
    ("serve.server.recommend_ms", "ms"),
    ("serve.cache.hit_share", "ratio"),
    ("serve.fallback.hop_ms", "ms"),
    ("serve.engine.batch_wait_ms", "ms"),
    ("serve.engine.batch_size", "groups"),
    ("serve.engine.score_ms", "ms"),
    ("serve.engine.rank_ms", "ms"),
    ("serve.fallback.degraded_share", "ratio"),
    ("serve.read.unattributed_ms", "ms"),
    ("serve.read.miss_client_ms", "ms"),
    ("serve.read.miss_http_ms", "ms"),
    ("serve.read.miss_recommend_ms", "ms"),
    ("serve.read.miss_score_ms", "ms"),
    ("serve.read.miss_other_ms", "ms"),
    ("stream.updater.poll_wait_ms", "ms"),
    ("stream.delta.apply_ms", "ms"),
    ("stream.grow.warm_start_s", "s"),
    ("stream.grow.finetune_s", "s"),
    ("serve.index.build_ms", "ms"),
    ("serve.server.reload_ms", "ms"),
    ("stream.delta.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
]
UNITS = dict(PER_LAYER)


def load_spans(path, tag: str, since: float | None = None) -> tuple[list[dict], list]:
    """Spans of one process, with ids made unique across processes.

    With ``since``, spans that started earlier (a warm-up) are dropped,
    and so are the row counts of the optimizer steps among them.
    """
    data = json.loads(Path(path).read_text())
    spans, rows = data["spans"], data.get("rows", [])
    if since is not None:
        steps = sum(s["name"] == "nn.optim.step" for s in spans)
        spans = [s for s in spans if s["start"] >= since]
        kept = sum(s["name"] == "nn.optim.step" for s in spans)
        rows = rows[steps - kept:]
    for span in spans:
        span["id"] = (tag, span["id"])
        if span["parent"] is not None:
            span["parent"] = (tag, span["parent"])
    return spans, rows


def _dur(span) -> float:
    return span["end"] - span["start"]


def _index(spans):
    by_name, children = defaultdict(list), defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    return by_name, children


def self_time(span, children) -> float:
    """``span``'s duration minus the union of its children's intervals."""
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children.get(span["id"], ())
    )
    covered, reach = 0.0, span["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return _dur(span) - covered


def train_layers(spans, rows) -> dict:
    """Model builds, batches and the stages of every ``train_step`` in ``spans``."""
    by_name, children = _index(spans)
    steps = by_name["core.trainer.train_step"]
    out = {}

    def per_step_ms(name):
        total = sum(_dur(s) for s in by_name[name])
        return total / len(steps) * 1000.0 if steps else 0.0

    builds = sorted(_dur(s) for s in by_name["core.model.build"])
    out["core.model.build_s"] = builds[len(builds) // 2] if builds else 0.0
    out["data.loader.batch_ms"] = _mean(_dur(s) * 1000.0 for s in by_name["data.loader.batch"])
    out["core.model.forward_ms"] = per_step_ms("core.model.forward")
    out["core.losses.loss_ms"] = per_step_ms("core.losses.loss")
    out["nn.tensor.backward_ms"] = per_step_ms("nn.tensor.backward")
    out["nn.optim.step_ms"] = per_step_ms("nn.optim.step")
    out["nn.optim.rows_touched_share"] = _mean(t / u for t, u in rows if u)
    out["train.step.unattributed_ms"] = _mean(self_time(s, children) * 1000.0 for s in steps)
    return out


def validation_layers(spans) -> dict:
    """Catalog scoring and ranking inside every ``validate()`` in ``spans``."""
    by_name, children = _index(spans)
    validations = by_name["core.trainer.validate"]
    engine = [c for v in validations for c in children.get(v["id"], ())
              if c["name"] == "serve.engine.scores_for_groups"]
    groups = sum(len(c.get("groups", ())) for c in engine)
    return {
        "serve.engine.catalog_ms": (
            sum(_dur(c) for c in engine) / groups * 1000.0 if groups else 0.0),
        "eval.rank_ms": _mean(self_time(v, children) * 1000.0 for v in validations),
    }


def index_layers(spans) -> dict:
    """Index build/load and ranking outside the server (train_wide delivery)."""
    by_name, _ = _index(spans)
    loads = sorted(_dur(s) for s in by_name["serve.index.load"])
    return {
        "serve.index.build_ms": _mean(_dur(s) * 1000.0 for s in by_name["serve.index.build"]),
        "serve.index.load_s": loads[len(loads) // 2] if loads else 0.0,
        "serve.engine.rank_ms": _mean(_dur(s) * 1000.0 for s in by_name["serve.engine.rank"]),
    }


def serve_layers(spans, reads, windows, base_groups: int) -> dict:
    """Read-path metrics; ``reads`` are the load generator's timed reads.

    Server spans are matched to the timed reads by time ``windows``
    (``(start, end)`` of each timed read phase) and by
    group (the delta writer's probes of new groups are excluded), and
    client and server are compared through means over the same reads.
    """
    by_name, children = _index(spans)

    def timed(span) -> bool:
        return any(start <= span["start"] <= end for start, end in windows)

    recommends = [
        s for s in by_name["serve.server.recommend"]
        if not s.get("error") and timed(s) and s.get("group", 0) < base_groups
    ]
    out = {}
    loads = sorted(_dur(s) for s in by_name["serve.index.load"])
    out["serve.index.load_s"] = loads[len(loads) // 2] if loads else 0.0
    if not recommends or not reads:
        return out

    ok = [r for r in reads if r["failure"] is None]
    client_ms = _mean(r["ms"] for r in ok)
    recommend_ms = _mean(_dur(s) * 1000.0 for s in recommends)
    out["serve.server.http_ms"] = client_ms - recommend_ms
    out["serve.server.recommend_ms"] = recommend_ms
    out["serve.cache.hit_share"] = sum(r["source"] == "cache" for r in reads) / len(reads)
    out["serve.fallback.degraded_share"] = sum(
        str(r["source"]).startswith("fallback") for r in reads) / len(reads)

    engine_calls = [s for s in by_name["serve.engine.scores_for_groups"] if timed(s)]
    calls_by_group = defaultdict(list)
    for call in sorted(engine_calls, key=lambda s: s["start"]):
        for group in call["groups"]:
            calls_by_group[group].append(call)
    out["serve.engine.batch_size"] = _mean(len(s["groups"]) for s in engine_calls)
    out["serve.engine.score_ms"] = _mean(_dur(s) * 1000.0 for s in engine_calls)

    hops, waits, scores, miss_recommend = [], [], [], []
    for rec in recommends:
        for scorer in (c for c in children.get(rec["id"], ())
                       if c["name"] == "serve.fallback.scores"):
            batched = [c for c in children.get(scorer["id"], ())
                       if c["name"] == "serve.batcher.scores_for_group"]
            if not batched:
                continue
            batch = batched[0]
            call = _containing_call(calls_by_group[batch["group"]], batch)
            if call is None:
                continue
            hops.append(_dur(scorer) - _dur(batch))
            waits.append(_dur(batch) - _dur(call))
            scores.append(_dur(call))
            miss_recommend.append(_dur(rec))
    out["serve.fallback.hop_ms"] = _mean(h * 1000.0 for h in hops)
    out["serve.engine.batch_wait_ms"] = _mean(w * 1000.0 for w in waits)
    out["serve.engine.rank_ms"] = _mean(
        _dur(c) * 1000.0 for rec in recommends for c in children.get(rec["id"], ())
        if c["name"] == "serve.engine.rank")
    out["serve.read.unattributed_ms"] = _mean(
        self_time(rec, children) * 1000.0 for rec in recommends)
    misses = [r for r in ok if r["source"] == "primary"]
    if misses and miss_recommend:
        miss_client = _mean(r["ms"] for r in misses)
        out["serve.read.miss_client_ms"] = miss_client
        out["serve.read.miss_recommend_ms"] = _mean(d * 1000.0 for d in miss_recommend)
        out["serve.read.miss_http_ms"] = miss_client - out["serve.read.miss_recommend_ms"]
        out["serve.read.miss_score_ms"] = _mean(s * 1000.0 for s in scores)
        # cache lookups, rank and service code of a miss, outside the hop
        out["serve.read.miss_other_ms"] = (
            out["serve.read.miss_recommend_ms"] - out["serve.fallback.hop_ms"]
            - out["serve.engine.batch_wait_ms"] - out["serve.read.miss_score_ms"])
    return out


def _containing_call(calls, batch):
    """The engine call inside ``batch``'s interval that scored its group."""
    starts = [c["start"] for c in calls]
    position = bisect.bisect_left(starts, batch["start"])
    for call in calls[position:]:
        if call["start"] > batch["end"]:
            break
        if call["end"] <= batch["end"] + 1e-6:
            return call
    return None


def stream_layers(spans, deltas) -> dict:
    by_name, children = _index(spans)
    ingests = {s["path"]: s for s in by_name["stream.updater.ingest_path"]}
    rows = defaultdict(list)
    for delta in deltas:
        span = ingests.get(delta["file"])
        if span is None or delta["served"] is None:
            continue
        stage = defaultdict(float)
        for child in children.get(span["id"], ()):
            stage[child["name"]] += _dur(child)
        poll_wait = span["start"] - delta["landed"]
        apply = stage["stream.delta.read"] + stage["stream.delta.apply"]
        named = (poll_wait + apply + stage["stream.grow.warm_start"]
                 + stage["stream.grow.finetune"] + stage["serve.index.build"]
                 + stage["serve.server.reload"])
        rows["stream.updater.poll_wait_ms"].append(poll_wait * 1000.0)
        rows["stream.delta.apply_ms"].append(apply * 1000.0)
        rows["stream.grow.warm_start_s"].append(stage["stream.grow.warm_start"])
        rows["stream.grow.finetune_s"].append(stage["stream.grow.finetune"])
        rows["serve.index.build_ms"].append(stage["serve.index.build"] * 1000.0)
        rows["serve.server.reload_ms"].append(stage["serve.server.reload"] * 1000.0)
        rows["stream.delta.unattributed_ms"].append(
            (delta["served"] - delta["landed"] - named) * 1000.0)
    return {name: _mean(values) for name, values in rows.items()}


def report(values: dict) -> dict:
    """Every per-layer metric with its unit; layers not on the path read 0."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER}
