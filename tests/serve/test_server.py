"""HTTP serving: endpoints, caching source, error handling, degradation."""

import http.client
import json
import logging
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    CircuitBreaker,
    RecommendationServer,
    RecommendationService,
    ServiceError,
)
from repro.serve.server import _as_bool


@pytest.fixture()
def service(index):
    svc = RecommendationService(index, deadline_ms=None)
    yield svc
    svc.close()


@pytest.fixture()
def server(index):
    svc = RecommendationService(index, deadline_ms=None)
    srv = RecommendationServer(svc, port=0).start()
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def other_index(index, dataset, split):
    """A second index over other weights, and a group whose top-5 differs."""
    from repro.core import KGAG, KGAGConfig
    from repro.serve import RankingEngine, build_index

    other_model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        KGAGConfig(embedding_dim=8, num_layers=2, num_neighbors=3, seed=12),
    )
    other = build_index(
        other_model,
        train_interactions=split.train,
        user_interactions=dataset.user_item,
    )
    group = next(
        g
        for g in range(index.num_groups)
        if [r.item for r in RankingEngine(index).top_k(g, k=5)]
        != [r.item for r in RankingEngine(other).top_k(g, k=5)]
    )
    return other, group


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestService:
    def test_recommend_payload(self, service, index):
        payload = service.recommend(0, k=3)
        assert payload["group"] == 0
        assert payload["source"] == "primary"
        assert payload["index_version"] == index.version
        assert len(payload["items"]) == 3
        scores = [item["score"] for item in payload["items"]]
        assert scores == sorted(scores, reverse=True)
        seen = set(index.seen_items(0).tolist())
        assert seen.isdisjoint(item["item"] for item in payload["items"])

    def test_second_request_is_cache_hit(self, service):
        first = service.recommend(1, k=4)
        second = service.recommend(1, k=4)
        assert first["source"] == "primary"
        assert second["source"] == "cache"
        assert [i["item"] for i in first["items"]] == [
            i["item"] for i in second["items"]
        ]

    def test_unknown_group_is_404_and_does_not_touch_breaker(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend(10_000)
        assert excinfo.value.status == 404
        assert service.resilient.stats()["primary_errors"] == 0
        assert service.resilient.breaker.state == CircuitBreaker.CLOSED

    def test_invalid_k_rejected(self, service):
        with pytest.raises(ServiceError):
            service.recommend(0, k=0)

    def test_explain_payload(self, service, index):
        payload = service.explain(2, 3)
        assert payload["group"] == 2
        assert payload["item"] == 3
        assert len(payload["members"]) == index.group_members.shape[1]
        total = sum(member["attention"] for member in payload["members"])
        assert total == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ServiceError):
            service.explain(2, index.num_items + 1)

    def test_failing_primary_degrades_to_popularity(self, index):
        def broken(group_id):
            raise RuntimeError("scorer down")

        svc = RecommendationService(
            index,
            deadline_ms=None,
            breaker=CircuitBreaker(failure_threshold=1),
            primary_override=broken,
        )
        try:
            payload = svc.recommend(0, k=5)
            assert payload["source"] == "fallback:error"
            again = svc.recommend(0, k=5)
            assert again["source"] == "fallback:circuit-open"
            # Fallback order is popularity order (minus seen items).
            seen = set(index.seen_items(0).tolist())
            expected = [
                int(i)
                for i in np.argsort(-index.item_popularity, kind="stable")
                if int(i) not in seen
            ][:5]
            assert [item["item"] for item in payload["items"]] == expected
        finally:
            svc.close()

    def test_reload_index_invalidates_cache(self, service, index):
        service.recommend(0, k=3)
        assert len(service.cache) > 0
        report = service.reload_index(index)
        assert report["cache_entries_dropped"] >= 1
        assert len(service.cache) == 0
        assert service.recommend(0, k=3)["source"] == "primary"

    def test_reload_during_a_miss_answers_from_one_index(self, index, other_index):
        # A reload that lands while a miss is in the scorer used to label
        # the new index's scores with the old version.
        from repro.serve import RankingEngine

        other, group = other_index
        svc = RecommendationService(index, cache_capacity=0, deadline_ms=None)
        entered, gate = threading.Event(), threading.Event()
        score = svc.engine.scores_for_groups

        def held(group_ids):
            # Hold the first miss after it joined its flight, before the
            # engine reads the live index.
            if not entered.is_set():
                entered.set()
                gate.wait()
            return score(group_ids)

        svc.engine.scores_for_groups = held
        payload = {}
        read = threading.Thread(target=lambda: payload.update(svc.recommend(group, k=5)))
        try:
            read.start()
            assert entered.wait(timeout=10)
            svc.reload_index(other)
        finally:
            gate.set()
            read.join(timeout=10)
            svc.close()
        assert payload["index_version"] == other.version
        expected = [r.item for r in RankingEngine(other).top_k(group, k=5)]
        assert [item["item"] for item in payload["items"]] == expected

    def test_read_after_reload_never_gets_a_row_from_the_old_index(
        self, index, other_index
    ):
        # A miss scored on the old index is still in the air when the
        # reload lands; a read of the same group that starts after the
        # reload must not take that row under the new version's label.
        from repro.serve import RankingEngine

        other, group = other_index
        svc = RecommendationService(index, cache_capacity=0, deadline_ms=None)
        entered, gate = threading.Event(), threading.Event()
        score_matrix = svc.engine._score_matrix

        def held(scored_index, group_ids):
            if scored_index is index:
                entered.set()
                gate.wait()
            return score_matrix(scored_index, group_ids)

        svc.engine._score_matrix = held
        answers = {}

        def read(name):
            answers[name] = svc.recommend(group, k=5)

        old_read = threading.Thread(target=read, args=("old",))
        new_read = threading.Thread(target=read, args=("new",))
        try:
            old_read.start()
            assert entered.wait(timeout=10)
            svc.reload_index(other)
            new_read.start()
            new_read.join(timeout=10)
            assert not new_read.is_alive()
        finally:
            gate.set()
            old_read.join(timeout=10)
            new_read.join(timeout=10)
            svc.close()
        expected = [r.item for r in RankingEngine(other).top_k(group, k=5)]
        for payload in answers.values():
            assert payload["index_version"] == other.version
            assert [item["item"] for item in payload["items"]] == expected
        assert sorted(answers) == ["new", "old"]

    def test_stats_shape(self, service):
        service.recommend(0, k=2)
        stats = service.stats()
        assert stats["requests"] == 1
        assert set(stats["latency_ms"]) == {"p50", "p95", "p99"}
        assert stats["resilience"]["primary_answers"] == 1
        assert stats["cache"]["capacity"] == 256
        assert stats["index"]["version"]

    def test_stats_and_metrics_share_one_registry(self, service):
        for _ in range(3):
            service.recommend(0, k=2)
        # note_client_error is the handler-layer hook (HTTP 4xx path).
        service.note_client_error()
        stats = service.stats()
        registry = service.metrics
        # /stats fields are rendered from the same instruments /metrics
        # exposes — counters agree exactly.
        assert stats["requests"] == 3
        assert stats["requests"] == int(
            registry.get("serve/requests_total").value
        )
        assert stats["client_errors"] == 1
        assert stats["client_errors"] == int(
            registry.get("serve/client_errors_total").value
        )
        latency = registry.get("serve/request_latency_ms")
        assert latency.count == 3
        assert stats["latency_ms"]["p50"] == round(latency.percentile(0.50), 3)
        # Callback gauges mirror component-owned state live.
        assert registry.get("serve/batches_run").value == float(
            service.batcher.batches_run
        )
        assert registry.get("serve/cache_hits").value == float(
            stats["cache"]["hits"]
        )
        assert registry.get("serve/breaker_open").value == 0.0

    def test_stats_types_are_byte_compatible(self, service):
        # The migration onto the registry must not change JSON shapes:
        # counters stay ints, percentiles stay 3-decimal floats.
        service.recommend(0, k=2)
        stats = service.stats()
        assert isinstance(stats["requests"], int)
        assert isinstance(stats["client_errors"], int)
        for value in stats["latency_ms"].values():
            assert isinstance(value, float)
            assert value == round(value, 3)

    def test_injected_registry_is_used(self, index):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        svc = RecommendationService(
            index, deadline_ms=None, metrics=registry
        )
        try:
            svc.recommend(0, k=1)
            assert svc.metrics is registry
            assert registry.get("serve/requests_total").value == 1
        finally:
            svc.close()


class TestHTTP:
    def test_healthz(self, server, index):
        status, payload = _get(f"{server.url}/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["index_version"] == index.version

    def test_recommend_roundtrip(self, server):
        status, payload = _get(f"{server.url}/recommend?group=0&k=3")
        assert status == 200
        assert payload["source"] == "primary"
        assert len(payload["items"]) == 3
        status, payload = _get(f"{server.url}/recommend?group=0&k=3")
        assert payload["source"] == "cache"

    def test_recommend_entries_are_well_formed_and_hits_are_counted(self, server):
        _, payload = _get(f"{server.url}/recommend?group=0&k=3")
        for entry in payload["items"]:
            assert set(entry) == {"item", "score", "probability"}
            assert 0.0 <= entry["probability"] <= 1.0
        _get(f"{server.url}/recommend?group=0&k=3")
        _, stats = _get(f"{server.url}/stats")
        assert stats["cache"]["hits"] >= 1

    def test_recommend_post_json_body(self, server):
        request = urllib.request.Request(
            f"{server.url}/recommend",
            data=json.dumps({"group": 1, "k": 2}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["group"] == 1
        assert len(payload["items"]) == 2

    def test_explain_endpoint(self, server):
        status, payload = _get(f"{server.url}/explain?group=0&item=1")
        assert status == 200
        assert payload["members"]

    def test_stats_endpoint(self, server):
        _get(f"{server.url}/recommend?group=2&k=2")
        status, payload = _get(f"{server.url}/stats")
        assert status == 200
        assert payload["requests"] >= 1
        assert "cache" in payload

    def test_metrics_endpoint_serves_plain_text_exposition(self, server):
        _get(f"{server.url}/recommend?group=1&k=2")
        request = urllib.request.Request(f"{server.url}/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            body = response.read().decode("utf-8")
        assert "# TYPE serve_requests_total counter" in body
        assert "serve_requests_total 1" in body
        assert 'serve_request_latency_ms_bucket{le="+Inf"} 1' in body
        # /stats and /metrics agree on the shared counter.
        _, stats = _get(f"{server.url}/stats")
        assert stats["requests"] == 1

    def test_missing_parameter_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/recommend")
        assert excinfo.value.code == 400

    def test_unknown_group_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/recommend?group=9999")
        assert excinfo.value.code == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/nope")
        assert excinfo.value.code == 404


def _raw_post(server, headers, body=b""):
    """POST /recommend with verbatim headers (urllib would fix them up)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.putrequest("POST", "/recommend", skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


class TestHardening:
    """Regression tests for the HTTP-edge sweep: each one fails on the
    pre-fix handler (uncaught ValueError tearing down the connection,
    silent boolean coercion, traceback-leaking 500s, lying ``stop``)."""

    # -- bugfix 1: malformed Content-Length --------------------------------
    def test_malformed_content_length_is_400(self, server):
        status, payload = _raw_post(server, {"Content-Length": "abc"})
        assert status == 400
        assert "Content-Length" in payload["error"]
        # The connection answered JSON instead of resetting, and the
        # mistake was counted as the client's.
        assert server.service.stats()["client_errors"] == 1

    def test_negative_content_length_is_400(self, server):
        status, payload = _raw_post(server, {"Content-Length": "-5"})
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_valid_post_still_works_after_malformed_one(self, server):
        _raw_post(server, {"Content-Length": "abc"})
        body = json.dumps({"group": 0, "k": 2}).encode()
        status, payload = _raw_post(
            server,
            {"Content-Type": "application/json", "Content-Length": str(len(body))},
            body,
        )
        assert status == 200
        assert len(payload["items"]) == 2

    # -- bugfix 2: unexpected exceptions -----------------------------------
    def test_internal_error_is_json_500_and_counted(self, server):
        def raiser():
            raise RuntimeError("injected stats failure")

        server.service.stats = raiser  # instance attribute shadows the method
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/stats")
        finally:
            del server.service.stats
        error = excinfo.value
        assert error.code == 500
        assert json.loads(error.read())["error"] == "internal server error"
        registry = server.service.metrics
        assert registry.get("serve/internal_errors_total").value == 1.0
        # The counter is visible through /metrics exposition.
        request = urllib.request.Request(f"{server.url}/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            body = response.read().decode("utf-8")
        assert "serve_internal_errors_total 1" in body
        # And reported by /stats once the method is back.
        _, stats = _get(f"{server.url}/stats")
        assert stats["internal_errors"] == 1

    # -- bugfix 3: boolean parameter vocabulary ----------------------------
    def test_as_bool_accepted_vocabulary_is_pinned(self):
        for literal in ("1", "true", "yes", "on", "TRUE", " Yes "):
            assert _as_bool({"x": literal}, "x", default=False) is True
        for literal in ("0", "false", "no", "off", "OFF", " False "):
            assert _as_bool({"x": literal}, "x", default=True) is False
        assert _as_bool({}, "x", default=True) is True
        assert _as_bool({"x": True}, "x", default=False) is True

    def test_as_bool_rejects_unknown_literals(self):
        for literal in ("ture", "2", "", "y", "None"):
            with pytest.raises(ServiceError, match="must be one of"):
                _as_bool({"x": literal}, "x", default=True)

    def test_boolean_typo_is_400_not_silent_false(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/recommend?group=0&k=3&exclude_seen=ture")
        assert excinfo.value.code == 400
        assert "exclude_seen" in json.loads(excinfo.value.read())["error"]

    # -- keep-alive (load-path hardening) ----------------------------------
    def test_keep_alive_serves_sequential_requests_on_one_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for _ in range(2):
                conn.request("GET", "/recommend?group=0&k=2")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["items"]
        finally:
            conn.close()


class TestStopContract:
    """Bugfix 4: ``stop`` must report whether the serve thread exited."""

    def test_clean_stop_returns_true(self, index):
        svc = RecommendationService(index, deadline_ms=None)
        server = RecommendationServer(svc, port=0).start()
        _get(f"{server.url}/healthz")
        assert server.stop(timeout=5.0) is True

    def test_stop_before_start_does_not_block(self, index):
        svc = RecommendationService(index, deadline_ms=None)
        server = RecommendationServer(svc, port=0)
        # Pre-fix, shutdown() on a never-served server blocks forever.
        assert server.stop(timeout=1.0) is True

    def test_timed_out_join_is_reported_and_logged(self, index, caplog):
        svc = RecommendationService(index, deadline_ms=None)
        server = RecommendationServer(svc, port=0).start()
        real = server._thread
        release = threading.Event()
        hung = threading.Thread(target=release.wait, name="wedged", daemon=True)
        hung.start()
        server._thread = hung  # simulate a serve thread that will not exit
        try:
            with caplog.at_level(logging.WARNING, logger="repro.serve.server"):
                assert server.stop(timeout=0.2) is False
            assert any("did not exit" in rec.message for rec in caplog.records)
        finally:
            release.set()
            hung.join(timeout=5.0)
            real.join(timeout=5.0)

    def test_stop_with_wedged_handler_does_not_hang(self, index):
        svc = RecommendationService(index, deadline_ms=None)
        server = RecommendationServer(svc, port=0).start()
        entered = threading.Event()
        release = threading.Event()

        def blocked_healthz():
            entered.set()
            release.wait()
            return {"status": "ok"}

        svc.healthz = blocked_healthz  # instance attribute shadows the method

        def client():
            try:
                urllib.request.urlopen(f"{server.url}/healthz", timeout=30)
            except OSError:
                pass  # the connection dies with the server; that's fine

        client_thread = threading.Thread(target=client, daemon=True)
        client_thread.start()
        assert entered.wait(5.0), "handler never reached the blocked healthz"

        outcome = {}

        def stopper():
            outcome["clean"] = server.stop(timeout=1.0)

        stop_thread = threading.Thread(target=stopper, daemon=True)
        stop_thread.start()
        stop_thread.join(timeout=10.0)
        try:
            # Pre-fix, server_close() joins the wedged handler thread and
            # stop() never returns at all.
            assert not stop_thread.is_alive(), "stop() wedged on a blocked handler"
            assert "clean" in outcome
        finally:
            release.set()
            client_thread.join(timeout=5.0)
            stop_thread.join(timeout=5.0)
