"""The request record: one per answered plan request, read by every sink.

The plan service and the fleet frontend build one :class:`RequestRecord`
on every exit of a plan request, and their :class:`RequestRecorder` is the
one place that feeds it to the SLO tracker and the telemetry ``request``
event (every record), and to the latency histogram and the slow-request
log (served plans only).  A record's ``outcome``, its ``deadline_met`` and
its event's keys (:data:`REQUEST_EVENT_KEYS`, one set for both components)
are decided here.  With telemetry off, no event dict is built.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .logging import slow_request_threshold_s
from .registry import MetricsRegistry
from .slo import SLOTracker
from .tracing import Tracer


@dataclass
class RequestRecord:
    """What happened to one plan request (``None`` where it does not apply).

    ``error`` is ``None`` when a plan was served, else the reply's error
    (``"shed"`` for a shed).  ``phases`` is the service's (fingerprint,
    cache lookup) time in seconds.
    """

    latency_s: float = 0.0
    trace_id: Optional[str] = None
    fingerprint: Optional[str] = None
    model: Optional[str] = None
    scheme: Optional[str] = None
    backend: Optional[str] = None
    shard: Optional[str] = None
    source: Optional[str] = None
    degraded: bool = False
    coalesced: bool = False
    action: Optional[str] = None
    error: Optional[str] = None
    reason: Optional[str] = None
    failover_from: Optional[str] = None
    deadline_s: Optional[float] = None
    phases: Optional[Tuple[float, float]] = None

    @property
    def outcome(self) -> str:
        """``ok``, ``degraded``, ``shed`` or ``error``."""
        if self.error is not None:
            return "shed" if self.error == "shed" else "error"
        return "degraded" if self.degraded else "ok"

    @property
    def deadline_met(self) -> Optional[bool]:
        """True when a plan was served within the deadline; None without one."""
        if self.deadline_s is None:
            return None
        return self.error is None and self.latency_s <= self.deadline_s


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def request_event(record: RequestRecord, component: str) -> Dict[str, Any]:
    """The telemetry ``request`` event of one record."""
    deadline_s, phases = record.deadline_s, record.phases
    return {
        "type": "request",
        "component": component,
        "trace_id": record.trace_id,
        "fingerprint": record.fingerprint,
        "model": record.model,
        "scheme": record.scheme,
        "backend": record.backend,
        "shard": record.shard,
        "source": record.source,
        "outcome": record.outcome,
        "degraded": record.degraded,
        "coalesced": record.coalesced,
        "action": record.action,
        "reason": record.reason or record.error,
        "failover_from": record.failover_from,
        "latency_ms": _ms(record.latency_s),
        "deadline_ms": None if deadline_s is None else _ms(deadline_s),
        "deadline_met": record.deadline_met,
        # everything after the cache lookup is the plan wait
        "breakdown_ms": None if phases is None else {
            "fingerprint": _ms(phases[0]),
            "cache_lookup": _ms(phases[1]),
            "plan_wait": _ms(record.latency_s - phases[0] - phases[1]),
        },
    }


#: the keys of every ``request`` event (the writer adds ``ts``)
REQUEST_EVENT_KEYS = tuple(request_event(RequestRecord(), "service"))


class RequestRecorder:
    """The request sinks of one component.

    ``tracer`` is the component's own, whose health the snapshot reports.
    ``slo`` is an :class:`SLOTracker`, an ``SLOConfig``, a spec string or
    None; ``telemetry`` the component's writer, or None to record no events.
    ``labels`` are merged into every event.  A served plan slower than
    ``slow_request_s`` (default ``REPRO_SLOW_REQUEST_MS``, then 1 s) logs
    ``slow plan request`` on ``log`` and counts ``slow_requests``.
    """

    def __init__(
        self,
        component: str,
        metrics: MetricsRegistry,
        histogram: str,
        log: logging.Logger,
        *,
        tracer: Tracer,
        slo=None,
        telemetry=None,
        labels: Optional[Dict[str, Any]] = None,
        slow_request_s: Optional[float] = None,
    ):
        self.component = component
        self.metrics = metrics
        self.latency = metrics.histogram(histogram)
        self.log = log
        self.tracer = tracer
        self.slo = slo if isinstance(slo, SLOTracker) else SLOTracker(slo)
        self.telemetry = telemetry
        self.labels = dict(labels or {})
        self.slow_request_s = slow_request_threshold_s(slow_request_s)

    def observe(self, record: RequestRecord) -> None:
        """Feed one record to every sink; called once per request."""
        latency_s = record.latency_s
        served = record.error is None
        self.slo.observe(latency_s, ok=served,
                         deadline_met=record.deadline_met)
        t = self.telemetry
        if t is not None and t.enabled:
            t.record({**request_event(record, self.component), **self.labels})
        if not served:
            return
        self.latency.observe(latency_s)
        if latency_s >= self.slow_request_s:
            self.metrics.counter("slow_requests").inc()
            self.log.warning(
                "slow plan request",
                extra={
                    "trace_id": record.trace_id,
                    "fingerprint": record.fingerprint,
                    "model": record.model,
                    "source": record.source,
                    "degraded": record.degraded,
                    "latency_ms": _ms(latency_s),
                    "threshold_ms": _ms(self.slow_request_s),
                },
            )

    def snapshot(self) -> Dict[str, Any]:
        """The ``slo``, ``tracer`` and (with a writer) ``telemetry`` stats."""
        snap = {"slo": self.slo.snapshot(), "tracer": self.tracer.health()}
        if self.telemetry is not None:
            snap["telemetry"] = self.telemetry.snapshot()
        return snap
