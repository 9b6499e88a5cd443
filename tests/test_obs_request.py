"""The request record: its rules and the one recorder every sink reads."""

import logging

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.request import (
    REQUEST_EVENT_KEYS,
    RequestRecord,
    RequestRecorder,
    request_event,
)
from repro.obs.telemetry import TelemetryWriter, read_events
from repro.obs.tracing import Tracer

LOG = logging.getLogger("repro.test.request")


class TestRules:
    @pytest.mark.parametrize("record, outcome, deadline_met", [
        # served in time
        (RequestRecord(latency_s=0.01, deadline_s=0.05), "ok", True),
        # served late
        (RequestRecord(latency_s=0.09, deadline_s=0.05), "ok", False),
        # a fallback plan served in time
        (RequestRecord(latency_s=0.01, deadline_s=0.05, degraded=True),
         "degraded", True),
        # shed: nothing was served, however fast the answer
        (RequestRecord(latency_s=0.001, deadline_s=0.05, error="shed",
                       reason="deadline below the service floor"),
         "shed", False),
        # error
        (RequestRecord(latency_s=0.001, deadline_s=0.05, error="boom"),
         "error", False),
        # no deadline
        (RequestRecord(latency_s=5.0), "ok", None),
        (RequestRecord(latency_s=5.0, error="shed"), "shed", None),
        (RequestRecord(latency_s=5.0, error="boom"), "error", None),
    ])
    def test_outcome_and_deadline_met(self, record, outcome, deadline_met):
        assert record.outcome == outcome
        assert record.deadline_met is deadline_met

    def test_every_event_has_every_key(self):
        served = RequestRecord(latency_s=0.002, trace_id="t", fingerprint="f",
                               model="lenet", scheme="accpar",
                               source="memory", phases=(0.001, 0.0005))
        shed = RequestRecord(latency_s=0.0001, error="shed", reason="queue",
                             action="shed", deadline_s=0.001)
        for record, component in ((served, "service"), (shed, "frontend")):
            event = request_event(record, component)
            assert tuple(event) == REQUEST_EVENT_KEYS
            assert event["type"] == "request"
            assert event["component"] == component
        assert request_event(served, "service")["breakdown_ms"] == {
            "fingerprint": 1.0, "cache_lookup": 0.5, "plan_wait": 0.5}
        event = request_event(shed, "frontend")
        assert event["reason"] == "queue" and event["deadline_ms"] == 1.0
        # without a reason, the error says why
        assert request_event(RequestRecord(error="boom"),
                             "service")["reason"] == "boom"


class TestRecorder:
    def recorder(self, tmp_path=None, **kwargs):
        telemetry = TelemetryWriter(tmp_path) if tmp_path else None
        return RequestRecorder(
            "service", MetricsRegistry(), "request_latency_s", LOG,
            tracer=Tracer(), slo="latency_ms=100,objective=0.9",
            telemetry=telemetry, **kwargs)

    def test_every_record_feeds_the_slo_and_telemetry(self, tmp_path):
        recorder = self.recorder(tmp_path, labels={"shard": "3"})
        recorder.observe(RequestRecord(latency_s=0.01, source="planned"))
        recorder.observe(RequestRecord(latency_s=0.01, error="boom"))
        recorder.telemetry.close()
        slo = recorder.slo.snapshot()
        assert (slo["good_total"], slo["bad_total"]) == (1, 1)
        events = read_events(tmp_path, types=("request",))
        assert [e["outcome"] for e in events] == ["ok", "error"]
        assert {e["shard"] for e in events} == {"3"}
        assert all(set(e) == set(REQUEST_EVENT_KEYS) | {"ts"}
                   for e in events)

    def test_only_served_plans_feed_latency_and_the_slow_log(self, caplog):
        recorder = self.recorder(slow_request_s=0.0)
        with caplog.at_level(logging.WARNING, logger=LOG.name):
            recorder.observe(RequestRecord(latency_s=0.01, trace_id="a"))
            recorder.observe(RequestRecord(latency_s=0.01, error="shed"))
            recorder.observe(RequestRecord(latency_s=0.01, error="boom"))
        assert recorder.latency.count == 1
        assert recorder.metrics.value("slow_requests") == 1
        slow = [r for r in caplog.records if r.message == "slow plan request"]
        assert [r.trace_id for r in slow] == ["a"]

    def test_snapshot_sections(self, tmp_path):
        assert set(self.recorder().snapshot()) == {"slo", "tracer"}
        recorder = self.recorder(tmp_path)
        assert set(recorder.snapshot()) == {"slo", "tracer", "telemetry"}
        recorder.telemetry.close()
