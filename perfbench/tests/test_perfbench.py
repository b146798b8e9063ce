"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root:  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worlds  # noqa: E402


# -- seeded inputs -----------------------------------------------------------
def test_same_seed_same_read_sequence():
    a = worlds.zipf_sequence(7, 1000, 5000)
    b = worlds.zipf_sequence(7, 1000, 5000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, worlds.zipf_sequence(8, 1000, 5000))


def test_read_sequence_is_skewed_over_the_population():
    sequence = worlds.zipf_sequence(3, 1000, 50_000)
    assert sequence.min() >= 0 and sequence.max() < 1000
    counts = np.sort(np.bincount(sequence, minlength=1000))[::-1]
    # Zipf(1) over 1000 ranks: the 256 hottest groups (the cache size)
    # carry about 80% of the reads.
    assert 0.75 < counts[:256].sum() / counts.sum() < 0.86


@pytest.fixture(scope="module")
def serve_world():
    dataset, _, _ = worlds.make_world("serve", 5)
    return dataset


def test_same_seed_same_delta_files(serve_world, tmp_path):
    first = worlds.write_delta_files(serve_world, tmp_path / "a", 3)
    again = worlds.write_delta_files(worlds.make_world("serve", 5)[0], tmp_path / "b", 3)
    assert [p.name for p in first] == ["0000.jsonl", "0001.jsonl", "0002.jsonl"]
    for x, y in zip(first, again):
        assert x.read_bytes() == y.read_bytes()


def test_delta_files_parse_and_grow_in_order(serve_world, tmp_path):
    from repro.stream.delta import apply_delta, read_delta_jsonl

    dataset = serve_world
    for tag, path in enumerate(worlds.write_delta_files(serve_world, tmp_path, 2)):
        delta = read_delta_jsonl(path)
        assert delta.describe()["new_items"] == 1
        assert delta.describe()["new_groups"] == 1
        assert delta.describe()["new_edges"] > 0
        dataset, _ = apply_delta(dataset, delta)
        assert dataset.num_items == serve_world.num_items + tag + 1
        assert dataset.groups.num_groups == serve_world.groups.num_groups + tag + 1


# -- percentiles and samples -------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert common.percentile(samples, 50) == 50
    assert common.percentile(samples, 90) == 90


def test_percentile_needs_ten_samples_beyond_it():
    assert common.percentile(range(100), 90) == 89  # exactly 10 beyond
    with pytest.raises(ValueError):
        common.percentile(range(99), 90)
    with pytest.raises(ValueError):
        common.percentile([], 50)


def test_failed_reads_count_as_slower_than_any_success():
    reads = [{"ms": 1.0, "failure": None}] * 85 + [{"ms": 0.5, "failure": "http_500"}] * 15
    latencies = common.read_latencies_ms(reads)
    assert common.percentile(latencies, 50) == 1.0
    assert common.percentile(latencies, 90) == common.FAILED_READ_MS


def test_too_few_samples_end_the_run_with_the_failures_seen():
    failures = ["delta 0000.jsonl: not served within timeout"]
    with pytest.raises(run.BenchError) as error:
        run._measure(failures, lambda: {"latency_p90_ms": common.percentile([1.0] * 5, 90)})
    assert error.value.failures == failures
    assert "too few samples" in str(error.value)


# -- failure classification --------------------------------------------------
def _answer(source="primary"):
    return {"source": source, "items": [{"item": 1, "score": 0.5}], "index_version": "v"}


@pytest.mark.parametrize(
    "status,payload,expected",
    [
        (200, _answer("primary"), None),
        (200, _answer("cache"), None),
        (200, _answer("fallback:deadline"), "fallback"),
        (200, _answer("fallback:circuit-open"), "fallback"),
        (200, _answer("fallback:closed"), "fallback"),
        (500, {"error": "internal server error"}, "http_500"),
        (429, {"error": "shed"}, "http_429"),
        (None, None, "transport"),
        (200, None, "malformed"),
        (200, {"source": "primary"}, "malformed"),
    ],
)
def test_classify_read(status, payload, expected):
    assert common.classify_read(status, payload) == expected


def test_topk_check_flags_a_wrong_answer(tmp_path, serve_world):
    from repro.core import KGAG, KGAGConfig
    from repro.serve import RankingEngine, build_index

    config = KGAGConfig(embedding_dim=8, num_layers=1, num_neighbors=2, seed=0)
    dataset = serve_world
    model = KGAG(dataset.kg, dataset.num_users, dataset.num_items,
                 dataset.user_item.pairs, dataset.groups, config)
    index = build_index(model)
    path = index.save(tmp_path / "index.npz")
    engine = RankingEngine(index)
    reads = []
    for group in range(5):
        top = engine.top_k(group, k=5)
        reads.append({"group": group, "version": index.version, "failure": None,
                      "items": [r.item for r in top], "scores": [r.score for r in top]})
    assert run._check_topk(reads, str(path), index.version, seed=0) == []
    reads[2]["scores"] = list(reversed(reads[2]["scores"]))
    assert len(run._check_topk(reads, str(path), index.version, seed=0)) == 1
    assert run._check_topk(reads, str(path), "other-version", seed=0) == [
        "no read was answered by the artifact's index version"]


def test_topk_mismatch_after_a_delta_names_its_timing():
    read = {"version": "v1", "start": 10.0, "end": 10.004}
    delta = {"landed": 9.0, "served": 10.003}
    assert run._relative_to_first_delta(read, [delta]) == (
        " (labelled v1; read from +1000.0 ms to +1004.0 ms of the first delta "
        "landing, first newer-version answer at +1003.0 ms)")
    assert run._relative_to_first_delta({**read, "end": 8.5}, [delta]) == ""
    assert run._relative_to_first_delta(read, []) == ""


def test_delta_writer_needs_the_staging_dir_and_the_group_count():
    with pytest.raises(SystemExit):
        loadgen.main(["--port", "1", "--reads", "r.npy", "--seconds", "1",
                      "--out", "o.json", "--feed-dir", "feed"])


# -- span arithmetic ---------------------------------------------------------
def _span(id_, name, start, end, parent=None, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "thread": 1, "read": None, **attrs}


def test_self_time_subtracts_the_union_of_children():
    parent = _span(1, "p", 0.0, 10.0)
    children = {1: [_span(2, "a", 1.0, 4.0, 1), _span(3, "b", 3.0, 5.0, 1),
                    _span(4, "c", 9.0, 12.0, 1)]}
    # covered: [1, 5] and [9, 10] -> 5 of 10
    assert layers.self_time(parent, children) == pytest.approx(5.0)


def test_read_stages_add_up_to_the_client_latency():
    spans = [
        _span(1, "serve.server.recommend", 10.000, 10.020, group=3),
        _span(2, "serve.cache.get", 10.000, 10.001, 1),
        _span(3, "serve.fallback.scores", 10.001, 10.018, 1),
        _span(4, "serve.batcher.scores_for_group", 10.003, 10.017, 3, group=3),
        _span(5, "serve.engine.scores_for_groups", 10.005, 10.015, 4, groups=[3]),
        _span(6, "serve.engine.rank", 10.018, 10.019, 1),
    ]
    reads = [{"ms": 25.0, "failure": None, "source": "primary"}]
    out = layers.serve_layers(spans, reads, [(0.0, 1.0), (9.0, 11.0)], base_groups=100)
    assert out["serve.server.http_ms"] == pytest.approx(5.0)
    assert out["serve.fallback.hop_ms"] == pytest.approx(3.0)
    assert out["serve.engine.batch_wait_ms"] == pytest.approx(4.0)
    assert out["serve.engine.score_ms"] == pytest.approx(10.0)
    assert out["serve.engine.batch_size"] == 1
    assert out["serve.cache.hit_share"] == 0.0
    # cache lookup 1 ms + rank 1 ms + unattributed service code 1 ms
    assert out["serve.read.unattributed_ms"] == pytest.approx(1.0)
    assert out["serve.read.miss_other_ms"] == pytest.approx(3.0)
    stages = (out["serve.fallback.hop_ms"] + out["serve.engine.batch_wait_ms"]
              + out["serve.read.miss_score_ms"] + out["serve.read.miss_other_ms"])
    assert stages == pytest.approx(out["serve.read.miss_recommend_ms"])
    assert out["serve.read.miss_http_ms"] + out["serve.read.miss_recommend_ms"] == pytest.approx(25.0)


def test_delta_stages_add_up_to_delta_to_serve():
    spans = [
        _span(1, "stream.updater.ingest_path", 1.5, 5.0, path="0000.jsonl"),
        _span(2, "stream.delta.read", 1.5, 1.6, 1),
        _span(3, "stream.delta.apply", 1.6, 1.8, 1),
        _span(4, "stream.grow.warm_start", 1.8, 2.0, 1),
        _span(5, "stream.grow.finetune", 2.0, 4.5, 1),
        _span(6, "serve.index.build", 4.5, 4.9, 1),
        _span(7, "serve.server.reload", 4.9, 4.95, 1),
    ]
    deltas = [{"file": "0000.jsonl", "landed": 1.0, "served": 5.2}]
    out = layers.stream_layers(spans, deltas)
    assert out["stream.updater.poll_wait_ms"] == pytest.approx(500.0)
    named = (out["stream.updater.poll_wait_ms"] + out["stream.delta.apply_ms"]
             + 1000.0 * (out["stream.grow.warm_start_s"] + out["stream.grow.finetune_s"])
             + out["serve.index.build_ms"] + out["serve.server.reload_ms"]
             + out["stream.delta.unattributed_ms"])
    assert named == pytest.approx(4200.0)


def test_training_and_validation_layers_read_only_their_own_spans():
    spans = [
        _span(1, "core.trainer.train_step", 0.0, 0.010),
        _span(2, "core.model.forward", 0.001, 0.004, 1),
        _span(3, "nn.optim.step", 0.005, 0.009, 1),
        _span(4, "core.trainer.validate", 1.0, 1.5),
        _span(5, "serve.engine.scores_for_groups", 1.1, 1.3, 4, groups=[0, 1]),
    ]
    train = layers.train_layers(spans, rows=[(10, 40)])
    assert train["core.model.forward_ms"] == pytest.approx(3.0)
    assert train["nn.optim.step_ms"] == pytest.approx(4.0)
    assert train["nn.optim.rows_touched_share"] == pytest.approx(0.25)
    assert train["train.step.unattributed_ms"] == pytest.approx(3.0)
    assert "serve.engine.catalog_ms" not in train
    validation = layers.validation_layers(spans)
    assert validation["serve.engine.catalog_ms"] == pytest.approx(100.0)
    assert validation["eval.rank_ms"] == pytest.approx(300.0)
    assert layers.train_layers(spans[3:], rows=[])["core.model.forward_ms"] == 0.0


def test_report_lists_every_per_layer_metric():
    report = layers.report({"serve.cache.hit_share": 0.7})
    assert list(report) == [name for name, _ in layers.PER_LAYER]
    assert report["serve.cache.hit_share"] == {"value": 0.7, "unit": "ratio"}
    assert report["stream.delta.apply_ms"]["value"] == 0.0


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


# -- tracer ------------------------------------------------------------------
def test_wrapped_method_keeps_its_result_and_records_a_span():
    class Thing:
        def work(self, x):
            return x + 1

    tracer = tracing.Tracer()
    tracer.wrap_method(Thing, "work", "thing.work")
    assert Thing().work(1) == 2
    assert [s["name"] for s in tracer.spans] == ["thing.work"]
    assert tracer.spans[0]["end"] >= tracer.spans[0]["start"]


def test_tracer_nests_spans_per_thread():
    tracer = tracing.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    inner = next(s for s in tracer.spans if s["name"] == "inner")
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
