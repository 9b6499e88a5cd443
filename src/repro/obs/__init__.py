"""repro.obs — unified tracing, metrics, and profiling.

Three telemetry concerns, one dependency-free layer:

* :mod:`repro.obs.tracing` — structured spans with thread-local nesting,
  one :class:`~repro.obs.tracing.Tracer` per participant (a plan service,
  a fleet shard's service, the fleet frontend, a profiling run) and the
  request context naming the participant a thread works for; near-zero
  overhead while disabled, which is the default.
* :mod:`repro.obs.registry` — the canonical home of the metric primitives
  (:class:`~repro.obs.registry.Counter`,
  :class:`~repro.obs.registry.LatencyHistogram`,
  :class:`~repro.obs.registry.MetricsRegistry`) plus Prometheus
  text-exposition rendering.
* :mod:`repro.obs.export` — Chrome Trace Event JSON and a self-time /
  cumulative-time profile table over collected spans.
* :mod:`repro.obs.logging` — structured JSON log lines carrying the active
  trace id plus a process-wide context (shard name in shard processes).
* :mod:`repro.obs.telemetry` — the durable half: an append-only JSONL
  event store (segment rotation, bounded retention, corrupt-line
  quarantine) recording request lifecycles, per-op sim timings and
  planner search records; each producer writes only to the
  :class:`~repro.obs.telemetry.TelemetryWriter` its owner hands it.
* :mod:`repro.obs.slo` — latency/deadline SLO accounting: good/bad
  classification against an :class:`~repro.obs.slo.SLOConfig`, error
  budget and fast/slow burn-rate windows.

Typical profiling session (what ``repro profile`` does)::

    from repro.obs import Participant, render_profile, set_request_context

    profiled = Participant()
    profiled.tracer.enable()
    previous = set_request_context(profiled)
    planner.plan(network, batch)
    set_request_context(*previous)
    print(render_profile(profiled.tracer.drain()))
"""

from .export import (
    REQUIRED_EVENT_KEYS,
    chrome_trace_document,
    chrome_trace_from_dicts,
    dict_spans_to_events,
    profile_rows,
    render_profile,
    save_trace_document,
    spans_to_events,
)
from .logging import JsonLogFormatter, configure_json_logging, get_logger
from .registry import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    render_prometheus,
)
from .slo import SLOConfig, SLOSpecError, SLOTracker
from .telemetry import TelemetryWriter
from .tracing import Participant, Span, Tracer, new_trace_id, set_request_context

__all__ = [
    "Counter",
    "JsonLogFormatter",
    "LatencyHistogram",
    "MetricsRegistry",
    "Participant",
    "REQUIRED_EVENT_KEYS",
    "SLOConfig",
    "SLOSpecError",
    "SLOTracker",
    "Span",
    "TelemetryWriter",
    "Tracer",
    "chrome_trace_document",
    "chrome_trace_from_dicts",
    "configure_json_logging",
    "dict_spans_to_events",
    "get_logger",
    "new_trace_id",
    "profile_rows",
    "render_profile",
    "render_prometheus",
    "save_trace_document",
    "set_request_context",
    "spans_to_events",
]
