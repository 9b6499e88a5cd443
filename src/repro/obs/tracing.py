"""Structured span tracing, and the request context that says whose it is.

A :class:`Span` is one timed region of execution — a hierarchy level plan, a
DP stage, a ratio solve, a service request — with nanosecond timestamps,
free-form attributes and a parent pointer maintained by a thread-local
stack, so concurrent planning jobs in the service's worker pool each build
their own correctly nested tree.

Each participant of the serving stack owns its tracer: a plan service
(single-process or a fleet shard's) and a ``repro profile`` run through a
:class:`Participant`, which also holds their planner counts, and the fleet
frontend directly.  Work done for a participant runs with it in the
thread's request context (:func:`set_request_context`), beside the
request's trace id (:func:`new_trace_id`): the planner's spans
(:func:`span`) and counts reach their owner through it, and spans and log
lines read the trace id there.

Design constraints, in priority order:

1. **Disabled means free.**  A tracer starts disabled, and a disabled
   :meth:`Tracer.span` (so :func:`span` too) returns the shared
   :data:`NULL_SPAN` singleton without allocating a span (the DP search
   starts *no* span on the disabled path — asserted by
   ``tests/test_obs_tracing.py`` via :attr:`Tracer.spans_started`, not by
   timing).
2. **No dependencies.**  Only the standard library; the exporters in
   :mod:`repro.obs.export` turn collected spans into Chrome Trace Event
   JSON and profile tables.
3. **Bounded memory.**  A tracer keeps at most ``max_spans`` finished
   spans; further spans are timed but dropped (counted in
   :attr:`Tracer.spans_dropped`), so an accidentally long trace session
   degrades instead of exhausting memory.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .registry import MetricsRegistry


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id for request correlation."""
    return os.urandom(8).hex()


class Span:
    """One timed, attributed region; also its own context manager.

    ``__slots__`` and direct attribute bumps keep construction cheap: a
    fully-enabled planner trace creates one of these per hierarchy node,
    DP stage and ratio solve.
    """

    __slots__ = (
        "name",
        "category",
        "span_id",
        "parent_id",
        "trace_id",
        "thread_id",
        "start_ns",
        "end_ns",
        "attributes",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attributes: Optional[Dict[str, Any]]):
        self.name = name
        self.category = category
        self.span_id = next(tracer._ids)
        self.parent_id: Optional[int] = None
        self.trace_id: Optional[str] = None
        self.thread_id = 0
        self.start_ns = 0
        self.end_ns = 0
        self.attributes: Dict[str, Any] = attributes if attributes else {}
        self._tracer = tracer

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute (e.g. a result only known at span end)."""
        self.attributes[key] = value

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def complete(self) -> bool:
        """True once the span has both endpoints recorded."""
        return self.end_ns >= self.start_ns > 0

    def __enter__(self) -> "Span":
        local = self._tracer._local
        stack: List[Span] = getattr(local, "stack", None) or []
        if stack:
            self.parent_id = stack[-1].span_id
        self.trace_id = _context.current[1]
        self.thread_id = threading.get_ident()
        stack.append(self)
        local.stack = stack
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end_ns = time.perf_counter_ns()
        stack = self._tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._collect(self)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible dump (tests and ad-hoc inspection)."""
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "thread_id": self.thread_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """The do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


#: shared disabled-path singleton; never allocated per call
NULL_SPAN = _NullSpan()


class _Resumed:
    """Puts an open span back on the calling thread's stack for a block,
    without closing it (:meth:`Tracer.resume`)."""

    __slots__ = ("_span",)

    def __init__(self, span: Span):
        self._span = span

    def __enter__(self) -> Span:
        local = self._span._tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        stack.append(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        stack = self._span._tracer._local.stack
        if stack and stack[-1] is self._span:
            stack.pop()


class Tracer:
    """One participant's spans; disabled (and nearly free) by default."""

    def __init__(self, enabled: bool = False, max_spans: int = 200_000):
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.enabled = enabled
        self.max_spans = max_spans
        #: spans actually started (never bumped on the disabled path; the
        #: no-allocation tests assert on deltas of this counter)
        self.spans_started = 0
        #: finished spans discarded because the buffer was full
        self.spans_dropped = 0
        #: most spans ever held at once — how close the buffer has come
        #: to the ``max_spans`` cap (silent truncation made visible)
        self.buffer_high_water = 0
        self._finished: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop every collected span and zero the drop counter."""
        with self._lock:
            self._finished.clear()
            self.spans_dropped = 0
            self.buffer_high_water = 0

    # ------------------------------------------------------------------
    # span creation and collection
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "planner", **attributes):
        """Open a span; ``with tracer.span("dp.search", stages=3): ...``.

        Returns :data:`NULL_SPAN` while disabled.
        """
        if not self.enabled:
            return NULL_SPAN
        self.spans_started += 1
        return Span(self, name, category, attributes)

    def begin(self, name: str, category: str = "planner", **attributes):
        """Open a span that outlives the call: for work done in parts.

        The span starts now, under the thread's current span and trace id,
        but stays off the thread's stack.  Run each part under
        ``with tracer.resume(span):`` so the spans it opens nest under this
        one, and close it with :meth:`finish`.  Returns :data:`NULL_SPAN`
        while disabled, which both accept.
        """
        if not self.enabled:
            return NULL_SPAN
        span = self.span(name, category, **attributes)
        span.__enter__()
        self._local.stack.pop()
        return span

    def resume(self, span):
        """A context manager that makes ``span`` (from :meth:`begin`) the
        thread's current span for a block, without closing it."""
        return span if span is NULL_SPAN else _Resumed(span)

    def finish(self, span) -> None:
        """Close and collect a span opened by :meth:`begin`."""
        if span is not NULL_SPAN:
            span.end_ns = time.perf_counter_ns()
            self._collect(span)

    def record(
        self,
        name: str,
        category: str = "fleet",
        *,
        start_ns: int,
        end_ns: int,
        trace_id: Optional[str] = None,
        parent_id: Optional[int] = None,
        **attributes: Any,
    ) -> None:
        """Collect an already-timed span without touching the thread-local
        stack.

        The context-manager API assumes one nesting stack per thread, which
        asyncio code breaks: tasks interleave on the loop thread, so a span
        held across an ``await`` would corrupt the stack for every other
        task.  The fleet frontend therefore measures with
        ``time.perf_counter_ns()`` and records completed spans here, with
        the trace id passed explicitly instead of read from the request
        context.
        """
        if not self.enabled:
            return
        span = Span(self, name, category, dict(attributes))
        span.trace_id = trace_id
        span.parent_id = parent_id
        span.thread_id = threading.get_ident()
        span.start_ns = start_ns
        span.end_ns = end_ns
        self.spans_started += 1
        self._collect(span)

    def _collect(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.spans_dropped += 1
                return
            self._finished.append(span)
            if len(self._finished) > self.buffer_high_water:
                self.buffer_high_water = len(self._finished)

    def health(self) -> Dict[str, Any]:
        """Buffer-health snapshot (the ``"tracer"`` stats section).

        Production question this answers: are traces being silently
        truncated by the ``max_spans`` cap?  ``spans_dropped > 0`` or a
        high-water mark near ``max_spans`` says yes.
        """
        with self._lock:
            buffer_len = len(self._finished)
            high_water = self.buffer_high_water
        return {
            "enabled": self.enabled,
            "spans_started": self.spans_started,
            "spans_dropped": self.spans_dropped,
            "buffer_len": buffer_len,
            "buffer_high_water": high_water,
            "max_spans": self.max_spans,
        }

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Copy of the collected spans (oldest first)."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> List[Span]:
        """Return the collected spans and clear the buffer."""
        with self._lock:
            spans, self._finished = self._finished, []
        return spans


class Participant:
    """A plan service's or a ``repro profile`` run's tracer, the search
    counts of the plans it ran, and the fields its JSON log lines carry
    (``log_fields``, e.g. a fleet shard's ``{"shard": name}``)."""

    __slots__ = ("tracer", "_planner", "log_fields")

    def __init__(self, log_fields: Optional[Mapping[str, Any]] = None
                 ) -> None:
        self.tracer = Tracer()
        self._planner = MetricsRegistry()
        self.log_fields: Dict[str, Any] = dict(log_fields or {})

    def count(self, counts: Mapping[str, int]) -> None:
        """Add one plan's search counts (from any thread)."""
        for name, amount in counts.items():
            if amount:
                self._planner.counter(name).inc(amount)

    def planner_counts(self) -> Dict[str, int]:
        """The search counts so far, sorted by name."""
        return self._planner.snapshot()["counters"]


class _Context(threading.local):
    #: (participant, trace id) of the request the thread works on
    current: Tuple[Optional[Participant], Optional[str]] = (None, None)


_context = _Context()


def set_request_context(participant: Optional[Participant],
                        trace_id: Optional[str] = None
                        ) -> Tuple[Optional[Participant], Optional[str]]:
    """Make the calling thread work for ``participant`` on the request
    ``trace_id``: :func:`span` records to its tracer, the planner counts
    to it, and spans and log lines carry ``trace_id``.

    Returns the context it replaces; put that back with
    ``set_request_context(*previous)`` when the work is done.
    """
    previous = _context.current
    _context.current = (participant, trace_id)
    return previous


def current_participant() -> Optional[Participant]:
    """The participant the calling thread works for, if any."""
    return _context.current[0]


def current_trace_id() -> Optional[str]:
    """The trace id of the request the calling thread serves, if any."""
    return _context.current[1]


def span(name: str, category: str = "planner", **attributes):
    """A span on the current participant's tracer; :data:`NULL_SPAN` when
    no participant runs or its tracer is disabled."""
    participant = _context.current[0]
    if participant is None or not participant.tracer.enabled:
        return NULL_SPAN
    return participant.tracer.span(name, category, **attributes)


def thread_rows(spans: List[Span]) -> Dict[int, int]:
    """Stable small-integer row (``tid``) per OS thread id, for exporters."""
    rows: Dict[int, int] = {}
    for span in sorted(spans, key=lambda s: (s.start_ns, s.span_id)):
        if span.thread_id not in rows:
            rows[span.thread_id] = len(rows)
    return rows
