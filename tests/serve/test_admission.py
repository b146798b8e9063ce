"""Admission control: permits, queueing, shedding, HTTP 429 mapping."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    RecommendationServer,
    RecommendationService,
    ShedError,
)
from repro.serve.admission import build_controllers


class TestController:
    def test_admit_under_limit_is_immediate(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=2))
        with controller.admit():
            assert controller.inflight == 1
            with controller.admit():
                assert controller.inflight == 2
        assert controller.inflight == 0
        assert controller.stats()["admitted_total"] == 2

    def test_queue_full_sheds_with_retry_after(self):
        controller = AdmissionController(
            AdmissionConfig(max_inflight=1, max_queue=0, retry_after_s=2.0)
        )
        with controller.admit():
            with pytest.raises(ShedError) as excinfo:
                controller.admit()
        error = excinfo.value
        assert error.status == 429
        assert error.reason == "queue_full"
        assert error.retry_after_header == "2"
        stats = controller.stats()
        assert stats["shed_queue_full"] == 1
        assert stats["shed_total"] == 1

    def test_queued_waiter_times_out(self):
        controller = AdmissionController(
            AdmissionConfig(max_inflight=1, max_queue=4, queue_timeout_ms=30.0)
        )
        with controller.admit():
            with pytest.raises(ShedError) as excinfo:
                controller.admit()
        assert excinfo.value.reason == "timeout"
        stats = controller.stats()
        assert stats["shed_timeout"] == 1
        assert stats["queued"] == 0  # the waiter left the queue

    def test_queued_waiter_is_admitted_after_release(self):
        controller = AdmissionController(
            AdmissionConfig(max_inflight=1, max_queue=4, queue_timeout_ms=5000.0)
        )
        first = controller.admit()
        admitted = threading.Event()

        def waiter():
            with controller.admit():
                admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            # The waiter is parked in the queue, not admitted yet.
            assert not admitted.wait(0.05)
            assert controller.queued == 1
            first.release()
            assert admitted.wait(5.0), "release did not wake the queued waiter"
        finally:
            thread.join(timeout=5.0)
        assert controller.stats()["admitted_total"] == 2

    def test_permit_release_is_idempotent(self):
        controller = AdmissionController(AdmissionConfig(max_inflight=1))
        permit = controller.admit()
        permit.release()
        permit.release()
        assert controller.inflight == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(queue_timeout_ms=-1.0)


class TestBuildControllers:
    def test_none_disables_admission(self):
        assert build_controllers(None) == {}

    def test_single_config_gates_every_scoring_endpoint(self):
        controllers = build_controllers(AdmissionConfig(max_inflight=3))
        assert set(controllers) == {"recommend", "explain"}

    def test_dict_form_gates_named_endpoints_only(self):
        controllers = build_controllers(
            {"recommend": AdmissionConfig(max_inflight=1)}
        )
        assert set(controllers) == {"recommend"}

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown admission endpoint"):
            build_controllers({"healthz": AdmissionConfig()})


@pytest.fixture()
def gated_service(index):
    svc = RecommendationService(
        index,
        deadline_ms=None,
        admission=AdmissionConfig(max_inflight=1, max_queue=0, queue_timeout_ms=50.0),
    )
    yield svc
    svc.close()


class TestServiceIntegration:
    def test_saturated_endpoint_sheds_and_counts(self, gated_service):
        with gated_service.admission["recommend"].admit():
            with pytest.raises(ShedError):
                gated_service.recommend(0, k=3)
        stats = gated_service.stats()
        assert stats["shed"] == 1
        assert stats["admission"]["recommend"]["shed_total"] == 1
        assert (
            gated_service.metrics.get("serve/shed_total").value == 1.0
        )

    def test_endpoints_are_gated_independently(self, gated_service):
        # Saturating /recommend must not shed /explain.
        with gated_service.admission["recommend"].admit():
            payload = gated_service.explain(0, 1)
        assert payload["members"]

    def test_dict_admission_leaves_other_endpoints_ungated(self, index):
        svc = RecommendationService(
            index,
            deadline_ms=None,
            admission={
                "recommend": AdmissionConfig(max_inflight=1, max_queue=0)
            },
        )
        try:
            assert set(svc.admission) == {"recommend"}
            # explain has no controller -> never sheds.
            assert svc.explain(0, 1)["members"]
        finally:
            svc.close()

    def test_admission_gauges_registered(self, gated_service):
        registry = gated_service.metrics
        with gated_service.admission["recommend"].admit():
            assert registry.get("serve/admission/recommend/inflight").value == 1.0
        assert registry.get("serve/admission/recommend/inflight").value == 0.0
        assert registry.get("serve/admission/recommend/queued").value == 0.0


class TestHTTP429:
    def test_shed_request_maps_to_429_with_retry_after(self, index):
        svc = RecommendationService(
            index,
            deadline_ms=None,
            admission=AdmissionConfig(
                max_inflight=1, max_queue=0, queue_timeout_ms=50.0, retry_after_s=3.0
            ),
        )
        server = RecommendationServer(svc, port=0).start()
        try:
            # Hold the single permit from the test thread so the HTTP
            # request finds the endpoint saturated.
            with svc.admission["recommend"].admit():
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(
                        f"{server.url}/recommend?group=0&k=3", timeout=10
                    )
            error = excinfo.value
            assert error.code == 429
            assert error.headers["Retry-After"] == "3"
            body = json.loads(error.read().decode("utf-8"))
            assert body["reason"] == "queue_full"
            assert "error" in body
            # A shed is not a client error.
            assert svc.stats()["client_errors"] == 0
            assert svc.stats()["shed"] == 1
        finally:
            server.stop()

    def test_healthz_is_never_gated(self, index):
        svc = RecommendationService(
            index,
            deadline_ms=None,
            admission=AdmissionConfig(max_inflight=1, max_queue=0),
        )
        server = RecommendationServer(svc, port=0).start()
        try:
            with svc.admission["recommend"].admit():
                with urllib.request.urlopen(
                    f"{server.url}/healthz", timeout=10
                ) as response:
                    assert response.status == 200
                    assert json.loads(response.read())["status"] == "ok"
        finally:
            server.stop()
