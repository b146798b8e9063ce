"""Instrument semantics: counters, gauges, histograms, registry, run log."""

import io
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonlRunLog,
    MetricsRegistry,
    NULL_REGISTRY,
    merge_snapshots,
    quantile_from_snapshot,
)
from repro.obs.metrics import ALPHA, _upper_edge


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = Counter("c")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)

    def test_concurrent_increments_are_not_lost(self):
        counter = Counter("c")
        increments_per_thread = 5000

        def worker():
            for _ in range(increments_per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * increments_per_thread


class TestGauge:
    def test_set_and_read(self):
        gauge = Gauge("g")
        gauge.set(4.2)
        assert gauge.value == 4.2

    def test_callback_mode_reads_live_value(self):
        state = {"v": 1.0}
        gauge = Gauge("g", fn=lambda: state["v"])
        assert gauge.value == 1.0
        state["v"] = 7.0
        assert gauge.value == 7.0

    def test_set_on_callback_gauge_raises(self):
        gauge = Gauge("g", fn=lambda: 0.0)
        with pytest.raises(ValueError, match="callback-backed"):
            gauge.set(1.0)


class TestHistogram:
    def test_bucket_edges_are_upper_inclusive(self):
        # Prometheus `le` semantics in the exposition: each cumulative
        # bucket line counts exactly the samples v <= le.
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        samples = (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 99.0)
        for value in samples:
            hist.observe(value)
        buckets = _exposition_buckets(registry.render_text(), "h")
        assert buckets[0] == (0.0, 1)
        assert buckets[-1] == (float("inf"), len(samples))
        for edge, cumulative in buckets:
            assert cumulative == sum(1 for value in samples if value <= edge)
        # Only non-empty buckets are rendered, plus +Inf.
        assert len(buckets) == len(samples) + 1

    def test_every_edge_lands_in_its_own_bucket(self):
        # A sample equal to a rendered `le` edge is counted on that edge's
        # line, not one line up: bucket choice and edge label must round
        # the same way, which log and pow alone do not.
        keys = range(-2000, 2000)
        edges = [_upper_edge(key) for key in keys]
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for edge in edges:
            hist.observe(edge)
        assert hist.snapshot()["buckets"] == {str(key): 1 for key in keys}
        buckets = _exposition_buckets(registry.render_text(), "h")
        assert [edge for edge, _ in buckets[:-1]] == edges
        for edge, cumulative in buckets:
            assert cumulative == np.searchsorted(edges, edge, side="right")

    def test_count_sum_mean(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 6.0
        assert hist.mean == 2.0

    def test_percentile_matches_serving_nearest_rank_formula(self):
        # The /stats rank rule: rank = min(n-1, round(q*(n-1))), reported
        # as the rank's bucket representative, within ALPHA of the sample.
        hist = Histogram("h")
        samples = [float(v) for v in range(1, 101)]
        for value in samples:
            hist.observe(value)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            _assert_within_alpha(hist.percentile(q), _nearest_rank(samples, q))

    def test_percentile_empty_window_is_zero(self):
        # No samples yet: every quantile reads 0.0.
        hist = Histogram("h")
        assert hist.percentile(0.0) == 0.0
        assert hist.percentile(0.5) == 0.0
        assert hist.percentile(1.0) == 0.0

    def test_zero_and_negative_values_share_the_zero_bucket(self):
        hist = Histogram("h")
        for value in (0.0, -3.0, 0.0, 4.0):
            hist.observe(value)
        record = hist.snapshot()
        assert record["zero"] == 3
        assert sum(record["buckets"].values()) == 1
        assert hist.percentile(0.5) == 0.0
        _assert_within_alpha(hist.percentile(1.0), 4.0)

    def test_non_finite_values_are_rejected(self):
        hist = Histogram("h")
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                hist.observe(value)
        assert hist.count == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                # Subnormals (< 2.2e-308) are left out: the smallest carry a
                # single significant bit, so no float lies within 1% of them.
                st.floats(
                    min_value=0.0,
                    allow_nan=False,
                    allow_infinity=False,
                    allow_subnormal=False,
                ),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_percentile_is_within_alpha_of_nearest_rank(self, samples):
        hist = Histogram("h")
        for value in samples:
            hist.observe(value)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            _assert_within_alpha(hist.percentile(q), _nearest_rank(samples, q))


def _nearest_rank(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _assert_within_alpha(estimate, exact):
    # A sample on a bucket's lower edge is exactly ALPHA away from the
    # representative; the 1e-9 slack absorbs the float rounding of log/pow.
    assert abs(estimate - exact) <= ALPHA * exact * (1.0 + 1e-9), (estimate, exact)


def _exposition_buckets(text, name):
    """``(le, cumulative)`` pairs of one histogram's exposition lines."""
    prefix = f'{name}_bucket{{le="'
    pairs = []
    for line in text.splitlines():
        if line.startswith(prefix):
            label, count = line[len(prefix):].split('"} ')
            pairs.append((float(label), int(count)))
    return pairs


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_covers_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["a"]["value"] == 2
        assert snapshot["b"]["value"] == 1.5
        assert snapshot["c"]["count"] == 1

    def test_render_text_sanitizes_names_and_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("serve/requests_total", help="total").inc(3)
        registry.histogram("lat-ms").observe(0.5)
        text = registry.render_text()
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_requests_total 3" in text
        [(edge, count), infinite] = _exposition_buckets(text, "lat_ms")
        assert 0.5 <= edge < 0.5 * (1.0 + 2.5 * ALPHA)
        assert count == 1
        assert infinite == (float("inf"), 1)
        assert "lat_ms_sum 0.5" in text
        assert "lat_ms_count 1" in text

    def test_render_text_spells_non_finite_values(self):
        # A diverged run leaves NaN / inf in train/loss and train/grad_norm;
        # the exposition must still render.
        registry = MetricsRegistry()
        registry.gauge("train/loss").set(float("nan"))
        registry.gauge("train/grad_norm").set(float("inf"))
        registry.gauge("delta").set(float("-inf"))
        text = registry.render_text()
        assert "train_loss NaN" in text
        assert "train_grad_norm +Inf" in text
        assert "delta -Inf" in text

    def test_null_registry_is_disabled_and_inert(self):
        assert NULL_REGISTRY.enabled is False
        counter = NULL_REGISTRY.counter("x")
        counter.inc()
        assert counter.value == 0.0
        hist = NULL_REGISTRY.histogram("y")
        hist.observe(1.0)
        assert hist.percentile(0.5) == 0.0
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.render_text() == ""
        # All getters hand out the same shared no-op singleton.
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.gauge("b")


class TestJsonlRunLog:
    def test_records_carry_kind_seq_ts(self):
        buffer = io.StringIO()
        clock = iter(float(t) for t in range(10))
        log = JsonlRunLog(buffer, clock=lambda: next(clock))
        log.emit("epoch", epoch=0, loss=0.5)
        log.emit("epoch", epoch=1, loss=0.4)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [r["kind"] for r in records] == ["epoch", "epoch"]
        assert [r["seq"] for r in records] == [0, 1]
        assert [r["ts"] for r in records] == [0.0, 1.0]
        assert records[1]["loss"] == 0.4

    def test_emit_snapshot_embeds_registry_state(self):
        registry = MetricsRegistry()
        registry.counter("steps").inc(7)
        buffer = io.StringIO()
        JsonlRunLog(buffer).emit_snapshot(registry, kind="final_metrics")
        record = json.loads(buffer.getvalue())
        assert record["kind"] == "final_metrics"
        assert record["metrics"]["steps"]["value"] == 7

    def test_file_path_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlRunLog(path) as log:
            log.emit("epoch", epoch=0)
        assert json.loads(path.read_text())["epoch"] == 0


class TestMergeSnapshots:
    """Fleet aggregation: per-process snapshots -> one merged view."""

    @staticmethod
    def _snapshot(requests, latencies):
        registry = MetricsRegistry()
        registry.counter("requests").inc(requests)
        registry.gauge("load").set(float(requests))
        hist = registry.histogram("latency")
        for value in latencies:
            hist.observe(value)
        return registry.snapshot()

    def test_counters_and_gauges_sum(self):
        merged = merge_snapshots(
            [self._snapshot(3, []), self._snapshot(4, [])]
        )
        assert merged["requests"]["value"] == 7
        assert merged["load"]["value"] == 7.0

    def test_histograms_merge_count_sum_and_buckets_key_by_key(self):
        left = self._snapshot(0, [0.5, 3.0])["latency"]
        right = self._snapshot(0, [0.0, 0.5, 99.0])["latency"]
        merged = merge_snapshots([{"latency": left}, {"latency": right}])
        record = merged["latency"]
        assert record["count"] == 5
        assert record["sum"] == pytest.approx(103.0)
        assert record["zero"] == 1
        # Sparse counts add key by key, so cumulative counts add too.
        assert list(record["buckets"].values()) == [2, 1, 1]
        keys = record["buckets"]
        assert _cumulative(record, keys) == [
            a + b for a, b in zip(_cumulative(left, keys), _cumulative(right, keys))
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)),
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False)),
    )
    def test_merge_equals_snapshot_of_union(self, left, right):
        union = Histogram("latency")
        for value in left + right:
            union.observe(value)
        # Snapshots cross process boundaries as JSON (pipes, run logs).
        parts = [json.loads(json.dumps(self._snapshot(0, part))) for part in (left, right)]
        merged = merge_snapshots(parts)["latency"]
        expected = union.snapshot()
        assert merged["sum"] == pytest.approx(expected.pop("sum"))
        merged.pop("sum")
        assert merged == expected
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert quantile_from_snapshot(merged, q) == union.percentile(q)

    def test_mixed_kinds_rejected(self):
        a = MetricsRegistry()
        a.counter("x").inc()
        b = MetricsRegistry()
        b.gauge("x").set(1.0)
        with pytest.raises(ValueError, match="mixed kinds"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_empty_input_merges_to_empty(self):
        assert merge_snapshots([]) == {}
        assert merge_snapshots([{}, {}]) == {}


def _cumulative(record, keys):
    """Cumulative counts of ``record`` at each bucket key, zero bucket first."""
    running = record["zero"]
    counts = []
    for key in keys:
        running += record["buckets"].get(key, 0)
        counts.append(running)
    return counts


class TestQuantileFromSnapshot:
    @staticmethod
    def _record(latencies):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in latencies:
            hist.observe(value)
        return registry.snapshot()["latency"]

    def test_returns_covering_bucket_representative(self):
        samples = [0.5, 0.7, 3.0, 4.0]
        record = self._record(samples)
        for q in (0.0, 0.5, 0.99, 1.0):
            _assert_within_alpha(
                quantile_from_snapshot(record, q), _nearest_rank(samples, q)
            )

    def test_overflow_bucket_reports_largest_finite_edge(self):
        # The top bucket's edge GAMMA**i overflows; it is clamped to the
        # largest float, so exposition and quantiles stay finite.
        registry = MetricsRegistry()
        registry.histogram("latency").observe(sys.float_info.max)
        record = registry.snapshot()["latency"]
        _assert_within_alpha(quantile_from_snapshot(record, 0.99), sys.float_info.max)
        [(edge, count), _] = _exposition_buckets(registry.render_text(), "latency")
        assert (edge, count) == (sys.float_info.max, 1)

    def test_empty_or_foreign_records_report_zero(self):
        assert quantile_from_snapshot({}, 0.5) == 0.0
        assert quantile_from_snapshot(self._record([]), 0.5) == 0.0
        counter_record = {"kind": "counter", "value": 3}
        assert quantile_from_snapshot(counter_record, 0.5) == 0.0

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            quantile_from_snapshot(self._record([1.0]), 1.5)
        with pytest.raises(ValueError, match="quantile"):
            Histogram("h").percentile(-0.1)

    def test_merged_snapshot_feeds_quantiles_directly(self):
        merged = merge_snapshots(
            [self._wrap([0.5] * 9), self._wrap([7.0])]
        )
        _assert_within_alpha(quantile_from_snapshot(merged["latency"], 0.50), 0.5)
        _assert_within_alpha(quantile_from_snapshot(merged["latency"], 0.99), 7.0)

    def test_uniform_latencies_are_not_snapped_to_a_ladder_edge(self):
        # 5,000 latencies from U(26, 32) ms: the old fixed ladder put them
        # all under its 50 ms edge and reported p50 = p90 = p99 = 50.0.
        samples = np.random.default_rng(0).uniform(26.0, 32.0, 5000).tolist()
        record = self._record(samples)
        for q in (0.50, 0.90, 0.99):
            _assert_within_alpha(
                quantile_from_snapshot(record, q), _nearest_rank(samples, q)
            )

    @classmethod
    def _wrap(cls, latencies):
        return {"latency": cls._record(latencies)}
