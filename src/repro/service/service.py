"""The plan service: cache → single-flight → worker pool → deadline fallback.

Request lifecycle (:meth:`PlanService.plan`):

1. **fingerprint** the request (model structure + array + knobs);
2. **cache lookup** — a memory or disk hit returns immediately;
3. **single-flight** — on a miss, the first caller becomes the leader and
   submits one exact planning job to the worker pool; concurrent identical
   requests coalesce onto the same in-flight future;
4. **deadline** — a caller whose deadline expires before the exact job lands
   gets a fast fallback plan marked ``degraded=True``: the *same* scheme and
   knobs re-run under :data:`FALLBACK_BACKEND`.  The exact job keeps running
   in the pool and upgrades the cache entry when it finishes (background
   refinement), so the *next* request gets the exact plan.

Distinct fingerprints run concurrently across the pool; identical ones never
plan twice.  :meth:`PlanService.plan_many` serves several requests at once
(a ``plan_batch`` frame): it runs steps 1-3 for every request before it
waits on any, so their misses plan side by side, and it finishes each
request as soon as its answer is ready.  All counters land in a
:class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import wait as wait_any
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.planner import PartitionScheme, PlannedExecution, Planner
from ..obs.logging import get_logger
from ..obs.registry import MetricsRegistry, render_prometheus
from ..obs.request import RequestRecord, RequestRecorder
from ..obs.slo import render_slo_lines
from ..obs.tracing import Participant, new_trace_id, set_request_context, span
from .cache import PlanCache
from .fingerprint import PlanRequest
from .singleflight import SingleFlight

log = get_logger("repro.service")

#: the search backend of the deadline fallback (:meth:`PlanService.plan`)
FALLBACK_BACKEND = "greedy"


@dataclass
class PlanResponse(RequestRecord):
    """A served plan plus its request record.

    ``source`` is one of ``memory`` / ``disk`` (cache tiers), ``planned``
    (this call ran the planner), ``coalesced`` (another in-flight request ran
    it) or ``degraded`` (deadline fallback).  ``planned`` is set on every
    response :meth:`PlanService.plan` returns.
    """

    planned: Optional[PlannedExecution] = None

    @property
    def cache_hit(self) -> bool:
        return self.source in ("memory", "disk")


class _Started:
    """One request between :meth:`PlanService._start` and
    :meth:`PlanService._finish`: a cache answer, or the single-flight
    future it waits on, or the error its start raised."""

    __slots__ = ("request", "response", "start", "span", "future", "leader",
                 "waiting_since", "error")

    def __init__(self, request: PlanRequest, response: PlanResponse,
                 start: float, span):
        self.request = request
        self.response = response
        self.start = start
        self.span = span
        self.future: Optional[Future] = None
        self.leader = False
        self.waiting_since = start
        self.error: Optional[BaseException] = None

    def time_left(self, now: float) -> float:
        """Seconds a miss may still wait for its exact plan at ``now``."""
        deadline_s = self.response.deadline_s
        if deadline_s is None:
            return math.inf
        return deadline_s - (now - self.waiting_since)


class PlanService:
    """Long-running, concurrent planning front-end over the AccPar planner."""

    def __init__(
        self,
        cache: Optional[PlanCache] = None,
        workers: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        slow_request_s: Optional[float] = None,
        slo=None,
        telemetry=None,
        telemetry_labels: Optional[dict] = None,
        default_profile=None,
    ):
        self.cache = cache if cache is not None else PlanCache()
        #: hardware profile substituted into requests that do not pin one
        #: (``serve --profile``).  Applied *before* fingerprinting, so the
        #: cache keys — and the fleet's shard routing — always reflect the
        #: rates that actually priced the plan.
        self.default_profile = (
            None if default_profile is None
            or getattr(default_profile, "is_analytic", False)
            else default_profile
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: this service's spans, planner counts and log fields: every
        #: request and planning job runs with it in the thread's request
        #: context, so a fleet shard's log lines carry ``{"shard": name}``
        self.participant = Participant(log_fields=telemetry_labels)
        #: SLO, telemetry (a fleet shard labels events ``{"shard": name}``),
        #: ``request_latency_s`` and the slow-request log
        self.recorder = RequestRecorder(
            "service", self.metrics, "request_latency_s", log,
            tracer=self.participant.tracer, slo=slo, telemetry=telemetry,
            labels=telemetry_labels, slow_request_s=slow_request_s)
        self._flight = SingleFlight()
        self._pool = ThreadPoolExecutor(
            max_workers=workers or os.cpu_count() or 4,
            thread_name_prefix="plan-worker",
        )
        self._pending: set = set()
        self._pending_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def plan(
        self,
        request: PlanRequest,
        deadline_s: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> PlanResponse:
        """Serve one request, waiting at most ``deadline_s`` for exactness.

        ``deadline_s=None`` waits for the exact plan.  A deadline of 0 is
        legal and means "whatever is ready right now or the greedy fallback";
        an exact job the request starts itself never counts as ready.

        Every request gets a trace id — a fresh one unless the caller
        passes ``trace_id`` (the fleet frontend does, so one id follows a
        request across the frontend and the owning shard process).  It is
        in this thread's request context, with :attr:`participant`, for
        the duration of the call (spans and log lines pick it up),
        propagated into the worker that plans on the request's behalf,
        and returned on the :class:`PlanResponse`.

        Every exit, a raised error too, hands the response to the
        service's :class:`~repro.obs.request.RequestRecorder` once.
        """
        return self._finish(self._start(request, deadline_s, trace_id))

    def plan_many(
        self,
        requests: Sequence[Tuple[PlanRequest, Optional[float],
                                 Optional[str]]],
    ) -> List[PlanResponse]:
        """Serve ``(request, deadline_s, trace_id)`` triples as if each had
        arrived alone, now, as :meth:`plan` serves one.

        Every request starts before any miss is waited for: it is
        fingerprinted and looked up, and on a miss its exact job is
        submitted (or joins one in flight).  So the misses plan at the same
        time in the worker pool, and each waits at most its own deadline,
        counted from its start.  A cache hit is finished as soon as it
        starts, and a miss as soon as its plan lands or its deadline
        passes, so no request is timed across another's wait.  A failed
        request does not raise: its response comes back with ``error`` set
        and no ``planned``, recorded as :meth:`plan` records it.
        """
        started: List[_Started] = []
        waiting: List[_Started] = []
        for entry in requests:
            one = self._start(*entry)
            started.append(one)
            if one.future is None:  # a cache hit, or a failed start
                self._finish(one, raise_error=False)
            else:
                waiting.append(one)
        while waiting:
            now = time.perf_counter()
            due = [one for one in waiting
                   if one.future.done() or one.time_left(now) <= 0]
            if not due:
                timeout = min(one.time_left(now) for one in waiting)
                wait_any({one.future for one in waiting},
                         None if timeout == math.inf else timeout,
                         FIRST_COMPLETED)
                continue
            for one in due:
                waiting.remove(one)
                self._finish(one, raise_error=False)
        return [one.response for one in started]

    def _start(self, request: PlanRequest, deadline_s: Optional[float],
               trace_id: Optional[str]) -> _Started:
        """The first half of a request: everything before the wait."""
        if self._closed:
            raise RuntimeError("PlanService is closed")
        start = time.perf_counter()
        trace_id = trace_id or new_trace_id()
        tracer = self.participant.tracer
        previous = set_request_context(self.participant, trace_id)
        request_span = tracer.begin("service.request", category="service",
                                    model=request.model, scheme=request.scheme)
        try:
            with tracer.resume(request_span):
                if self.default_profile is not None and \
                        request.profile is None:
                    # substitute before fingerprinting: a profiled service
                    # must key (and cache) its plans under the profile that
                    # priced them
                    request = dataclasses.replace(
                        request, profile=self.default_profile)
                self.metrics.counter("requests").inc()
                started = _Started(request, PlanResponse(
                    trace_id=trace_id, model=request.model,
                    scheme=request.scheme, backend=request.backend,
                    deadline_s=deadline_s), start, request_span)
                try:
                    self._look_up(started)
                except BaseException as exc:  # _finish records and raises it
                    started.error = exc
        finally:
            set_request_context(*previous)
        if started.error is not None and \
                not isinstance(started.error, Exception):
            self._finish(started)  # an interrupt: record it and raise now
        return started

    def _look_up(self, started: _Started) -> None:
        """Answer from the cache, or begin the single-flight job."""
        request, response = started.request, started.response
        with span("service.fingerprint", category="service"):
            key = response.fingerprint = request.fingerprint()
        after_fingerprint = time.perf_counter()

        with span("service.cache_lookup", category="service"):
            planned, tier = self.cache.get_with_tier(key)
        response.phases = (after_fingerprint - started.start,
                           time.perf_counter() - after_fingerprint)
        if planned is not None:
            self.metrics.counter(f"hits_{tier}").inc()
            response.planned, response.source = planned, tier
            return

        self.metrics.counter("misses").inc()
        future, leader = self._flight.begin(key)
        if leader:
            self._submit_exact(key, request, future, response.trace_id)
        else:
            self.metrics.counter("coalesced").inc()
        response.coalesced = not leader
        started.future, started.leader = future, leader
        started.waiting_since = time.perf_counter()

    def _finish(self, started: _Started,
                raise_error: bool = True) -> PlanResponse:
        """The second half of a request: wait, fall back, record."""
        response = started.response
        tracer = self.participant.tracer
        previous = set_request_context(self.participant, response.trace_id)
        try:
            with tracer.resume(started.span):
                if started.error is None and started.future is not None:
                    try:
                        self._wait(started)
                    except BaseException as exc:
                        started.error = exc
                if started.error is not None:
                    response.error = (str(started.error)
                                      or type(started.error).__name__)
                response.latency_s = time.perf_counter() - started.start
                self.recorder.observe(response)
        finally:
            tracer.finish(started.span)
            set_request_context(*previous)
        error = started.error
        if error is not None and (raise_error
                                  or not isinstance(error, Exception)):
            raise error
        return response

    def _wait(self, started: _Started) -> None:
        """Wait out the deadline for the exact plan, else fall back."""
        request, response = started.request, started.response
        future, leader = started.future, started.leader
        deadline_s = response.deadline_s
        try:
            with span("service.singleflight_wait", category="service",
                      leader=leader):
                if leader and deadline_s is not None and deadline_s <= 0:
                    # "ready right now" is decided on arrival: the exact job
                    # this request just started is not, however fast it is
                    raise FutureTimeout()
                timeout = None
                if deadline_s is not None:
                    timeout = max(0.0, deadline_s - (
                        time.perf_counter() - started.waiting_since))
                response.planned = future.result(timeout=timeout)
        except FutureTimeout:
            self.metrics.counter("degraded").inc()
            with span("service.degraded_fallback", category="service"):
                response.planned = self._plan_degraded(request)
            response.source, response.degraded = "degraded", True
            return
        except Exception:
            self.metrics.counter("errors").inc()
            raise
        response.source = "planned" if leader else "coalesced"

    def warm(self, requests: Iterable[PlanRequest]) -> List[PlanResponse]:
        """Pre-populate the cache; returns one response per request."""
        return [self.plan(request) for request in requests]

    # ------------------------------------------------------------------
    # planning internals
    # ------------------------------------------------------------------
    def _submit_exact(self, key: str, request: PlanRequest, future: Future,
                      trace_id: str = "") -> None:
        def job() -> None:
            # the worker works for this service, on the requesting thread's
            # trace id, so the exact plan's spans, counts and logs correlate
            # with the request
            previous = set_request_context(self.participant, trace_id or None)
            try:
                # a caller can miss the cache, then lose the begin() race to
                # a leader that already finished: re-check before planning so
                # a fingerprint is never planned twice
                planned = self.cache.peek(key)
                if planned is None:
                    self.metrics.counter("planner_runs").inc()
                    t0 = time.perf_counter()
                    with span("service.plan_exact", category="service",
                              model=request.model, scheme=request.scheme,
                              fingerprint=key):
                        planned = self._plan_exact(request)
                    self.metrics.histogram("exact_plan_s").observe(
                        time.perf_counter() - t0
                    )
                    self.cache.put(key, planned)
                future.set_result(planned)
            except BaseException as exc:  # must reach the waiting callers
                future.set_exception(exc)
            finally:
                # only after the put: a new caller either finds the cache
                # entry or joins a still-open flight, never a stale gap
                self._flight.finish(key)
                set_request_context(*previous)

        pooled = self._pool.submit(job)
        with self._pending_lock:
            self._pending.add(pooled)
        pooled.add_done_callback(self._discard_pending)

    def _discard_pending(self, fut: Future) -> None:
        with self._pending_lock:
            self._pending.discard(fut)

    def _plan(self, request: PlanRequest,
              scheme: PartitionScheme) -> PlannedExecution:
        """Plan ``request`` under ``scheme``; the search event goes to this
        service's writer."""
        planner = Planner(request.array, scheme,
                          dtype_bytes=request.dtype_bytes,
                          levels=request.levels,
                          telemetry=self.recorder.telemetry)
        return planner.plan(request.model, request.batch)

    def _plan_exact(self, request: PlanRequest) -> PlannedExecution:
        return self._plan(request, request.partition_scheme())

    def _plan_degraded(self, request: PlanRequest) -> PlannedExecution:
        """The deadline fallback: same scheme, fallback search backend, inline.

        Deliberately NOT cached — the background exact job owns the cache
        entry, so a degraded answer can never mask the exact plan.
        """
        return self._plan(request, request.partition_scheme(FALLBACK_BACKEND))

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def pending_jobs(self) -> int:
        """Planning jobs currently in flight in the worker pool."""
        with self._pending_lock:
            return len(self._pending)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every in-flight planning job has finished.

        Lets callers observe background refinement deterministically (tests,
        clean shutdown); new requests may still be submitted afterwards.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._pending_lock:
                pending = list(self._pending)
            if not pending:
                return
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("drain timed out with jobs in flight")
            for fut in pending:
                fut.exception(timeout=remaining)

    def snapshot(self) -> dict:
        """JSON-compatible stats: metrics, cache counters, planner counters.

        ``planner`` holds the search work of the plans this service ran
        (:attr:`participant`): packed step costings, ratio-solver path
        split, hierarchy memo hits, multipath DP runs — the cold-path cost
        behind every ``planner_runs`` increment.
        """
        cache_stats = self.cache.stats.as_dict()
        cache_stats["memory_entries"] = len(self.cache)
        cache_stats["disk_entries"] = len(self.cache.disk_keys())
        return {
            "metrics": self.metrics.snapshot(),
            "cache": cache_stats,
            "planner": self.participant.planner_counts(),
            **self.recorder.snapshot(),
        }

    def render_stats(self) -> str:
        snap = self.snapshot()
        lines = [self.metrics.render()]
        cache = snap["cache"]
        lines.append("plan cache")
        width = max(len(k) for k in cache)
        for name, value in sorted(cache.items()):
            lines.append(f"  {name:<{width}}  {value}")
        planner = snap["planner"]
        lines.append("planner counters")
        if not planner:
            lines.append("  (no planner work recorded)")
        else:
            width = max(len(k) for k in planner)
            for name, value in planner.items():
                lines.append(f"  {name:<{width}}  {value}")
        lines.append(render_slo_lines(snap["slo"]))
        health = snap["tracer"]
        lines.append("tracer")
        lines.append(
            f"  spans_started={health['spans_started']}"
            f" spans_dropped={health['spans_dropped']}"
            f" buffer={health['buffer_len']}"
            f" high_water={health['buffer_high_water']}"
            f"/{health['max_spans']}"
        )
        telemetry = snap.get("telemetry")
        if telemetry:
            lines.append("telemetry")
            lines.append(
                f"  dir={telemetry['directory']}"
                f" events_written={telemetry['events_written']}"
                f" events_dropped={telemetry['events_dropped']}"
                f" segment={telemetry['segment_seq']}"
            )
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """The full stats snapshot as Prometheus text exposition."""
        return render_prometheus(self.snapshot())

    def close(self, wait: bool = True) -> None:
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
