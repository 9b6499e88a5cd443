"""JSON logging and the service's threshold-gated slow-request log."""

import io
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.hardware import heterogeneous_array
from repro.obs.logging import (
    DEFAULT_SLOW_REQUEST_S,
    SLOW_REQUEST_ENV,
    JsonLogFormatter,
    configure_json_logging,
    get_logger,
    slow_request_threshold_s,
)
from repro.obs.tracing import Participant, set_request_context
from repro.service import PlanRequest, PlanService

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture
def json_log():
    """A throwaway logger wired to a StringIO through the JSON formatter."""
    buffer = io.StringIO()
    logger = logging.getLogger("repro.test_obs_logging")
    logger.propagate = False
    handler = configure_json_logging(
        stream=buffer, level=logging.DEBUG,
        logger_name="repro.test_obs_logging",
    )
    yield logger, buffer
    logger.removeHandler(handler)
    logger.propagate = True


def emitted(buffer):
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


class TestJsonLogFormatter:
    def test_standard_fields(self, json_log):
        logger, buffer = json_log
        logger.info("hello %s", "world")
        (document,) = emitted(buffer)
        assert document["message"] == "hello world"
        assert document["level"] == "info"
        assert document["logger"] == "repro.test_obs_logging"
        assert isinstance(document["ts"], float)
        assert "trace_id" not in document

    def test_extra_fields_pass_through(self, json_log):
        logger, buffer = json_log
        logger.warning("slow", extra={"latency_ms": 12.5, "model": "lenet"})
        (document,) = emitted(buffer)
        assert document["latency_ms"] == 12.5
        assert document["model"] == "lenet"

    def test_unserializable_extra_falls_back_to_repr(self, json_log):
        logger, buffer = json_log
        logger.info("odd", extra={"payload": {1, 2}})
        (document,) = emitted(buffer)
        assert document["payload"] == repr({1, 2})

    def test_trace_id_from_the_request_context(self, json_log):
        logger, buffer = json_log
        previous = set_request_context(Participant(), "deadbeefcafe0000")
        try:
            logger.info("traced")
        finally:
            set_request_context(*previous)
        logger.info("untraced")
        traced, untraced = emitted(buffer)
        assert traced["trace_id"] == "deadbeefcafe0000"
        assert "trace_id" not in untraced

    def test_exception_rendering(self, json_log):
        logger, buffer = json_log
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            logger.exception("failed")
        (document,) = emitted(buffer)
        assert document["level"] == "error"
        assert "RuntimeError: boom" in document["exception"]

    def test_configure_is_idempotent_per_stream(self, json_log):
        logger, buffer = json_log
        again = configure_json_logging(
            stream=buffer, logger_name="repro.test_obs_logging"
        )
        assert sum(
            isinstance(h.formatter, JsonLogFormatter) for h in logger.handlers
        ) == 1
        assert again in logger.handlers


class TestParticipantLogFields:
    """A participant's log fields (e.g. a fleet shard's name) on every line
    logged while a thread works for it."""

    def test_fields_appear_on_every_line(self, json_log):
        logger, buffer = json_log
        previous = set_request_context(Participant(log_fields={"shard": "3"}))
        try:
            logger.info("one")
            logger.warning("two")
        finally:
            set_request_context(*previous)
        documents = emitted(buffer)
        assert len(documents) == 2
        for document in documents:
            assert document["shard"] == "3"

    def test_explicit_extra_wins_over_fields(self, json_log):
        logger, buffer = json_log
        previous = set_request_context(Participant(log_fields={"shard": "3"}))
        try:
            logger.info("override", extra={"shard": "9"})
        finally:
            set_request_context(*previous)
        (document,) = emitted(buffer)
        assert document["shard"] == "9"

    def test_fields_are_the_participants_own(self, json_log):
        logger, buffer = json_log
        fields = {"shard": "3", "region": "east"}
        participant = Participant(log_fields=fields)
        fields.pop("region")
        assert participant.log_fields == {"shard": "3", "region": "east"}
        assert Participant().log_fields == {}
        previous = set_request_context(participant)
        set_request_context(*previous)
        logger.info("bare")  # the context was put back
        (document,) = emitted(buffer)
        assert "shard" not in document and "region" not in document

    def test_each_thread_logs_its_own_participants_fields(self, json_log):
        """Two shards' services in one process (thread shards) each stamp
        their own name, whichever logs first."""
        logger, buffer = json_log
        started = threading.Barrier(2)

        def serve(name):
            previous = set_request_context(
                Participant(log_fields={"shard": name}))
            try:
                started.wait(5)
                for _ in range(20):
                    logger.info("line", extra={"sender": name})
            finally:
                set_request_context(*previous)

        threads = [threading.Thread(target=serve, args=(name,))
                   for name in ("0", "1")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        documents = emitted(buffer)
        assert len(documents) == 40
        assert all(d["shard"] == d["sender"] for d in documents)


class TestShardLogLines:
    """``repro serve --shards 2`` with every request logged as slow: the
    shard that served it logs a JSON line naming itself."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_a_shards_slow_request_line_names_it(self, mode):
        line = json.dumps({"model": "lenet", "array": "tpu-v2:2,tpu-v3:2",
                           "batch": 32})
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--shards", "2",
             "--shard-mode", mode, "--cache-dir", ""],
            input=line + "\n", capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC, SLOW_REQUEST_ENV: "0"})
        assert result.returncode == 0, result.stderr
        (reply,) = [json.loads(text) for text in result.stdout.splitlines()]
        assert reply["ok"], reply
        shard_lines = []
        for text in result.stderr.splitlines():
            if "slow plan request" not in text:
                continue
            document = json.loads(text)  # every such line is JSON
            if document["logger"] == "repro.service":
                shard_lines.append(document)
        assert len(shard_lines) == 1, result.stderr
        (document,) = shard_lines
        assert document["shard"] == reply["shard"]
        assert document["trace_id"] == reply["trace_id"]


class TestSlowRequestThreshold:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(SLOW_REQUEST_ENV, raising=False)
        assert slow_request_threshold_s() == DEFAULT_SLOW_REQUEST_S

    def test_env_override_is_milliseconds(self, monkeypatch):
        monkeypatch.setenv(SLOW_REQUEST_ENV, "250")
        assert slow_request_threshold_s() == 0.25

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(SLOW_REQUEST_ENV, "250")
        assert slow_request_threshold_s(2.0) == 2.0

    def test_bad_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(SLOW_REQUEST_ENV, "not-a-number")
        assert slow_request_threshold_s() == DEFAULT_SLOW_REQUEST_S

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            slow_request_threshold_s(-1.0)


class TestServiceSlowRequestLog:
    @pytest.fixture
    def array(self):
        return heterogeneous_array(2, 2)

    def test_threshold_zero_logs_every_request(self, array, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            with PlanService(workers=2, slow_request_s=0.0) as service:
                response = service.plan(
                    PlanRequest(model="lenet", array=array, batch=32)
                )
        records = [r for r in caplog.records if r.message == "slow plan request"]
        assert len(records) == 1
        record = records[0]
        assert record.trace_id == response.trace_id
        assert record.model == "lenet"
        assert record.latency_ms >= 0
        assert record.threshold_ms == 0.0
        assert service.metrics.value("slow_requests") == 1

    def test_large_threshold_stays_quiet(self, array, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            with PlanService(workers=2, slow_request_s=3600.0) as service:
                service.plan(PlanRequest(model="lenet", array=array, batch=32))
        assert not [r for r in caplog.records
                    if r.message == "slow plan request"]
        assert service.metrics.value("slow_requests") == 0

    def test_get_logger_namespace(self):
        assert get_logger().name == "repro"
        assert get_logger("repro.service").name == "repro.service"
