"""Structured JSON logging with trace-id correlation.

One JSON object per line, machine-parseable, carrying the trace id of the
thread's request context (:func:`repro.obs.tracing.current_trace_id`) so a
request's log lines and its spans join on the same key, and the log fields
of the participant that context names (a fleet shard's service carries
``{"shard": name}``, so its lines join the ``{shard="n"}`` metric series
in thread and process shards alike).  Built on the
stdlib ``logging`` module: any handler/level configuration users already
have keeps working, and
:func:`configure_json_logging` is a convenience, not a requirement.

The plan service and the fleet frontend use :func:`get_logger` for their
slow-request log (:mod:`repro.obs.request`): a warning line gated on a
configurable latency threshold (see ``PlanService(slow_request_s=...)``
and the ``REPRO_SLOW_REQUEST_MS`` environment variable).
"""

from __future__ import annotations

import json
import logging
import os
from typing import Optional, TextIO

from .tracing import current_participant, current_trace_id

#: environment variable overriding the slow-request threshold (milliseconds)
SLOW_REQUEST_ENV = "REPRO_SLOW_REQUEST_MS"

#: default slow-request threshold in seconds when neither the constructor
#: argument nor the environment variable is set
DEFAULT_SLOW_REQUEST_S = 1.0

#: LogRecord attributes that are plumbing, not payload; anything else an
#: ``extra={...}`` passes through lands in the JSON document
_RECORD_FIELDS = frozenset(logging.LogRecord(
    "", 0, "", 0, "", (), None).__dict__) | {"message", "asctime",
                                             "taskName"}

class JsonLogFormatter(logging.Formatter):
    """Format records as one JSON object per line.

    Standard fields: ``ts`` (epoch seconds), ``level``, ``logger``,
    ``message``; plus ``trace_id`` when the emitting thread serves a
    request, every ``extra`` key the call site attached, and the
    ``log_fields`` of the participant the thread works for (an ``extra``
    key of the same name wins).
    """

    def format(self, record: logging.LogRecord) -> str:
        document = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        trace_id = getattr(record, "trace_id", None) or current_trace_id()
        if trace_id:
            document["trace_id"] = trace_id
        for key, value in record.__dict__.items():
            if key in _RECORD_FIELDS or key in document:
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            document[key] = value
        participant = current_participant()
        if participant is not None:
            for key, value in participant.log_fields.items():
                document.setdefault(key, value)
        if record.exc_info:
            document["exception"] = self.formatException(record.exc_info)
        return json.dumps(document, sort_keys=True)


def get_logger(name: str = "repro") -> logging.Logger:
    """The stdlib logger under the shared ``repro`` namespace."""
    return logging.getLogger(name)


def configure_json_logging(
    stream: Optional[TextIO] = None,
    level: int = logging.INFO,
    logger_name: str = "repro",
) -> logging.Handler:
    """Attach a JSON-formatting stream handler to the ``repro`` logger.

    Returns the handler so callers (tests, CLI teardown) can detach it
    with ``logger.removeHandler(handler)``.  Idempotent enough for a CLI:
    it does not duplicate an existing JSON handler on the same stream.
    """
    logger = logging.getLogger(logger_name)
    logger.setLevel(level)
    for existing in logger.handlers:
        if isinstance(existing.formatter, JsonLogFormatter) and (
            stream is None or getattr(existing, "stream", None) is stream
        ):
            return existing
    handler = logging.StreamHandler(stream) if stream is not None \
        else logging.StreamHandler()
    handler.setFormatter(JsonLogFormatter())
    logger.addHandler(handler)
    return handler


def slow_request_threshold_s(override: Optional[float] = None) -> float:
    """Resolve the slow-request threshold: argument > env var > default."""
    if override is not None:
        if override < 0:
            raise ValueError("slow-request threshold cannot be negative")
        return override
    raw = os.environ.get(SLOW_REQUEST_ENV)
    if raw:
        try:
            return max(float(raw) / 1e3, 0.0)
        except ValueError:
            pass
    return DEFAULT_SLOW_REQUEST_S
