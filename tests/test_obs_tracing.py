"""Tracer tests: nesting, the disabled fast path, and Chrome export."""

import contextlib
import sys
import threading

import pytest

from repro.core.cost_model import PairCostModel
from repro.core.dp_vectorized import search_stages
from repro.core.planner import AccParPlanner
from repro.core.stages import to_sharded_stages
from repro.hardware import heterogeneous_array
from repro.hardware.cluster import bisection_tree
from repro.models import build_model
from repro.obs.export import (
    REQUIRED_EVENT_KEYS,
    chrome_trace_document,
    spans_to_events,
)
from repro.obs.tracing import (
    NULL_SPAN,
    Participant,
    Tracer,
    current_participant,
    current_trace_id,
    new_trace_id,
    set_request_context,
)
from repro.service import PlanRequest, PlanService


@contextlib.contextmanager
def working_for(participant, trace_id=None):
    """The calling thread works for ``participant`` inside the block."""
    previous = set_request_context(participant, trace_id)
    try:
        yield participant
    finally:
        set_request_context(*previous)


@pytest.fixture
def enabled_tracer():
    """A participant's enabled tracer, this thread working for the
    participant for one test."""
    owner = Participant()
    owner.tracer.enable()
    with working_for(owner):
        yield owner.tracer


@pytest.fixture
def array():
    return heterogeneous_array(2, 2)


def plan_spans(enabled_tracer, array, model="lenet", batch=32):
    AccParPlanner(array).plan(build_model(model), batch)
    return enabled_tracer.drain()


def traced_service(**kwargs):
    """A plan service whose own tracer is enabled."""
    service = PlanService(**kwargs)
    service.participant.tracer.enable()
    return service


class TestTracerBasics:
    def test_span_records_times_and_attributes(self):
        t = Tracer(enabled=True)
        with t.span("work", category="test", answer=42) as span:
            span.set("late", "yes")
        (collected,) = t.drain()
        assert collected.name == "work"
        assert collected.category == "test"
        assert collected.complete
        assert collected.end_ns >= collected.start_ns > 0
        assert collected.attributes == {"answer": 42, "late": "yes"}
        assert collected.thread_id == threading.get_ident()

    def test_nesting_sets_parent_ids(self):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("sibling"):
                pass
        by_name = {s.name: s for s in t.drain()}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["sibling"].parent_id == by_name["outer"].span_id

    def test_threads_have_independent_stacks(self):
        t = Tracer(enabled=True)
        done = threading.Event()

        def worker():
            with t.span("thread_root"):
                pass
            done.set()

        with t.span("main_root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.wait(1)
        by_name = {s.name: s for s in t.drain()}
        assert by_name["thread_root"].parent_id is None
        assert by_name["main_root"].parent_id is None
        assert by_name["thread_root"].thread_id != by_name["main_root"].thread_id

    def test_max_spans_bounds_memory(self):
        t = Tracer(enabled=True, max_spans=3)
        for index in range(5):
            with t.span(f"s{index}"):
                pass
        assert len(t.spans()) == 3
        assert t.spans_dropped == 2
        t.clear()
        assert t.spans() == [] and t.spans_dropped == 0

    def test_trace_id_is_thread_local(self):
        owner = Participant()
        owner.tracer.enable()
        seen = {}

        def worker():
            seen["worker"] = (current_participant(), current_trace_id())

        with working_for(owner, "abc"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert current_trace_id() == "abc"
            assert current_participant() is owner
            with owner.tracer.span("tagged") as tagged:
                pass
        assert seen["worker"] == (None, None)
        assert tagged.trace_id == "abc"

    def test_the_previous_request_context_comes_back(self):
        outer, inner = Participant(), Participant()
        assert set_request_context(outer, "a") == (None, None)
        assert set_request_context(inner, "b") == (outer, "a")
        assert (current_participant(), current_trace_id()) == (inner, "b")
        set_request_context(outer, "a")
        assert set_request_context(None) == (outer, "a")
        assert (current_participant(), current_trace_id()) == (None, None)

    def test_new_trace_id_shape(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 16
        int(a, 16)  # valid hex


class TestParticipant:
    def test_planner_counts_add_up_per_name(self):
        owner = Participant()
        owner.count({"step_calls": 2})
        owner.count({"step_calls": 3, "ratio_solves": 7, "zero": 0})
        assert owner.planner_counts() == {"ratio_solves": 7, "step_calls": 5}
        assert list(owner.planner_counts()) == ["ratio_solves", "step_calls"]
        with pytest.raises(ValueError):
            owner.count({"step_calls": -1})
        assert owner.planner_counts()["step_calls"] == 5

    def test_concurrent_plans_lose_no_count(self):
        """A service's worker threads add their plans' counts at once."""
        owner = Participant()
        threads = [threading.Thread(target=lambda: [
            owner.count({"step_calls": 1, "vec_searches": 2})
            for _ in range(500)]) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert owner.planner_counts() == {"step_calls": 4000,
                                          "vec_searches": 8000}

    def test_a_plan_counts_to_the_participant_it_runs_for(self, array):
        owner, bystander = Participant(), Participant()
        with working_for(owner):
            AccParPlanner(array).plan(build_model("lenet"), 32)
        counts = owner.planner_counts()
        # a root split and two distinct child splits on 2+2 boards
        assert counts["level_plans_dp"] == 3
        assert counts["step_calls"] > 0
        assert bystander.planner_counts() == {}
        # a plan with no participant running counts nowhere
        AccParPlanner(array).plan(build_model("lenet"), 32)
        assert owner.planner_counts() == counts


class TestTracerHealth:
    def test_health_reports_buffer_state(self):
        t = Tracer(enabled=True, max_spans=4)
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        health = t.health()
        assert health["enabled"] is True
        assert health["spans_started"] == 2
        assert health["spans_dropped"] == 0
        assert health["buffer_len"] == 2
        assert health["buffer_high_water"] == 2
        assert health["max_spans"] == 4

    def test_high_water_survives_drain_and_counts_drops(self):
        t = Tracer(enabled=True, max_spans=2)
        for name in ("a", "b", "c"):
            with t.span(name):
                pass
        health = t.health()
        assert health["spans_dropped"] == 1
        assert health["buffer_high_water"] == 2
        t.drain()
        after = t.health()
        assert after["buffer_len"] == 0
        # high-water is a lifetime mark, not a gauge of the live buffer
        assert after["buffer_high_water"] == 2
        t.clear()
        assert t.health()["buffer_high_water"] == 0


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_singleton(self):
        t = Tracer(enabled=False)
        assert t.span("anything") is NULL_SPAN
        assert t.span("anything") is t.span("other")

    def test_dp_inner_loop_allocates_no_spans_when_disabled(self, array):
        """Counter-based (not timing-based) no-allocation guard.

        With the running participant's tracer disabled, a full DP search
        must not start a single span: ``spans_started`` only moves on the
        enabled path, so a zero delta proves the disabled branch never
        reaches span construction.
        """
        owner = Participant()
        tracer = owner.tracer
        assert not tracer.enabled
        network = build_model("resnet18")  # includes multi-path stages
        stages = to_sharded_stages(network.stages(32))
        node = bisection_tree(array, 1, "type-separated")
        model = PairCostModel(node.left.group, node.right.group, 2, "balanced")
        before_started = tracer.spans_started
        with working_for(owner):
            search_stages(stages, model)
        assert tracer.spans_started == before_started
        assert tracer.spans() == []


class TestPlannerSpanTree:
    def test_span_tree_covers_hierarchy_dp_and_ratio(self, enabled_tracer, array):
        spans = plan_spans(enabled_tracer, array)
        names = {s.name for s in spans}
        assert {"hierarchy.plan", "dp.search", "dp.pack", "dp.recurrence",
                "ratio.solve"} <= names

    def test_hierarchy_recursion_nests(self, enabled_tracer, array):
        spans = plan_spans(enabled_tracer, array)
        index = {s.span_id: s for s in spans}
        hierarchy = [s for s in spans if s.name == "hierarchy.plan"]
        # 4 accelerators -> a root split (level 1) plus child splits (level 2)
        levels = sorted(s.attributes["level"] for s in hierarchy)
        assert levels[0] == 1 and levels[-1] == 2
        for span in hierarchy:
            if span.attributes["level"] == 1:
                assert span.parent_id is None
            else:
                parent = index[span.parent_id]
                assert parent.name == "hierarchy.plan"
                assert parent.attributes["level"] == span.attributes["level"] - 1
                # the child's interval sits inside the parent's
                assert parent.start_ns <= span.start_ns
                assert span.end_ns <= parent.end_ns

    def test_dp_spans_nest_under_hierarchy(self, enabled_tracer, array):
        spans = plan_spans(enabled_tracer, array)
        index = {s.span_id: s for s in spans}
        for span in spans:
            if span.name == "dp.search":
                assert index[span.parent_id].name == "hierarchy.plan"
            elif span.name in ("dp.pack", "dp.recurrence"):
                assert index[span.parent_id].name == "dp.search"
            elif span.name == "ratio.solve":
                # the batched Eq. 10 solve of one pack, with its path split
                assert index[span.parent_id].name == "dp.pack"
                assert span.attributes["cells"] > 0
                assert sum(span.attributes["paths"].values()) == \
                    span.attributes["cells"]

    def test_search_splits_into_pack_and_recurrence(self, enabled_tracer, array):
        spans = plan_spans(enabled_tracer, array, model="resnet18")
        searches = {s.span_id: s for s in spans if s.name == "dp.search"}
        assert searches
        children = {}
        for span in spans:
            if span.parent_id in searches:
                children.setdefault(span.parent_id, []).append(span)
        for span_id, parent in searches.items():
            kids = children[span_id]
            assert sorted(k.name for k in kids) == ["dp.pack", "dp.recurrence"]
            for kid in kids:
                assert parent.start_ns <= kid.start_ns
                assert kid.end_ns <= parent.end_ns


class TestChromeExport:
    def test_events_have_required_trace_event_keys(self, enabled_tracer, array):
        spans = plan_spans(enabled_tracer, array)
        events = spans_to_events(spans)
        assert events
        for event in events:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event, (key, event["name"])
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] > 0
            assert event["pid"] == 0
            assert isinstance(event["tid"], int)

    def test_document_shape_and_time_rebase(self, enabled_tracer, array):
        spans = plan_spans(enabled_tracer, array)
        document = chrome_trace_document(spans)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert min(e["ts"] for e in events) == 0.0

    def test_incomplete_spans_are_excluded(self):
        t = Tracer(enabled=True)
        with t.span("finished"):
            pass
        spans = t.drain()
        dangling = t.span("dangling")
        dangling.__enter__()  # never exited
        spans.append(dangling)
        events = spans_to_events(spans)
        assert [e["name"] for e in events] == ["finished"]

    def test_empty_span_list_exports_empty_document(self):
        assert chrome_trace_document([]) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }


class TestServiceTracing:
    def test_request_gets_trace_id_and_lifecycle_spans(self, array):
        with traced_service(workers=2) as service:
            request = PlanRequest(model="lenet", array=array, batch=32)
            response = service.plan(request)
            service.drain()
        spans = service.participant.tracer.drain()
        assert response.trace_id and len(response.trace_id) == 16
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        for name in ("service.request", "service.fingerprint",
                     "service.cache_lookup", "service.singleflight_wait",
                     "service.plan_exact"):
            assert name in by_name, name
        # every service span of this request carries the same trace id,
        # including the one recorded on the worker-pool thread
        for name in ("service.request", "service.plan_exact"):
            (span,) = by_name[name]
            assert span.trace_id == response.trace_id
        (request_span,) = by_name["service.request"]
        (exact_span,) = by_name["service.plan_exact"]
        assert exact_span.thread_id != 0
        assert request_span.attributes["model"] == "lenet"

    def test_cache_hit_requests_get_distinct_trace_ids(self, array):
        with traced_service(workers=2) as service:
            request = PlanRequest(model="lenet", array=array, batch=32)
            first = service.plan(request)
            second = service.plan(request)
        assert second.cache_hit
        assert first.trace_id != second.trace_id

    def test_planner_spans_inherit_request_trace_id(self, array):
        with traced_service(workers=2) as service:
            request = PlanRequest(model="lenet", array=array, batch=32)
            response = service.plan(request)
            service.drain()
        spans = service.participant.tracer.drain()
        dp_spans = [s for s in spans if s.name == "dp.search"]
        assert dp_spans
        assert all(s.trace_id == response.trace_id for s in dp_spans)
