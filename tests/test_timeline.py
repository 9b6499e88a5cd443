"""Unit tests for the Chrome-trace timeline exporter."""

import json
from pathlib import Path

import pytest

from repro.baselines import get_scheme
from repro.cli import parse_array
from repro.core.planner import AccParPlanner, Planner
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.hardware.profile import load_profile
from repro.models import build_model
from repro.sim.executor import evaluate
from repro.sim.timeline import critical_path_timeline, save_chrome_trace

PROFILE = Path(__file__).parent.parent / "examples" / "profiles" / "effective-tpu.json"


def _assert_draws_report(planned, profile=None):
    """The level rows are ``evaluate``'s critical path, to event rounding."""
    events = critical_path_timeline(planned, profile=profile)
    comm = [e for e in events if e["cat"] == "communication"]
    levels = evaluate(planned, profile=profile).levels
    assert [e["tid"] for e in comm] == list(range(len(levels)))
    for event, record in zip(comm, levels):
        assert event["name"].startswith(f"level {record.level} exchange")
        assert event["dur"] == pytest.approx(record.comm_time * 1e6, abs=1e-3)
    assert len(comm) == len(levels)


def _assert_span_covers_total(planned, profile=None):
    """The span is the reported time plus the leaf rows' lost overlap."""
    events = critical_path_timeline(planned, profile=profile)
    span_s = max(e["ts"] + e["dur"] for e in events) / 1e6
    total = evaluate(planned, profile=profile).total_time
    assert total <= span_s <= 1.05 * total


@pytest.fixture(scope="module")
def planned():
    return AccParPlanner(heterogeneous_array(2, 2)).plan(
        build_model("alexnet"), batch=64
    )


class TestTimeline:
    def test_event_structure(self, planned):
        events = critical_path_timeline(planned)
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] > 0
            assert event["cat"] in ("communication", "compute", "optimizer")

    def test_one_comm_event_per_level(self, planned):
        events = critical_path_timeline(planned)
        comm = [e for e in events if e["cat"] == "communication"]
        assert len(comm) == planned.hierarchy_levels()

    def test_leaf_has_three_phases_plus_update_per_layer(self, planned):
        events = critical_path_timeline(planned)
        compute = [e for e in events if e["cat"] == "compute"]
        updates = [e for e in events if e["cat"] == "optimizer"]
        n_layers = len(planned.root_level_plan.layer_assignments())
        assert len(compute) == 3 * n_layers
        assert len(updates) == n_layers

    def test_events_are_sequential(self, planned):
        events = critical_path_timeline(planned)
        cursor = 0.0
        for event in events:
            assert event["ts"] >= cursor - 1e-6
            cursor = event["ts"]

    def test_level_rows_are_the_reported_levels(self, planned):
        _assert_draws_report(planned)

    def test_span_close_to_simulated_total(self, planned):
        _assert_span_covers_total(planned)

    def test_save_chrome_trace(self, planned, tmp_path):
        path = tmp_path / "trace.json"
        save_chrome_trace(planned, path)
        document = json.loads(path.read_text())
        assert "traceEvents" in document
        assert document["traceEvents"]

    def test_single_board_timeline_is_leaf_only(self):
        planned = AccParPlanner(homogeneous_array(1)).plan(
            build_model("lenet"), batch=8
        )
        events = critical_path_timeline(planned)
        assert all(e["cat"] != "communication" for e in events)


# unbalanced pairing trees, where the critical path is not the left spine
# and the drawn leaf is the slower child's; and a plan scored under a
# calibrated profile, which the trace must draw at the same rates
@pytest.mark.parametrize("model,array,scheme,profiled", [
    ("alexnet", "tpu-v3:3", "dp", False),
    ("alexnet", "tpu-v3:3", "accpar", False),
    ("resnet50", "tpu-v2:3,tpu-v3:2", "accpar", False),
    ("vgg19", "tpu-v2:3,tpu-v3:2", "owt", False),
    ("resnet50", "tpu-v2:3,tpu-v3:2", "accpar", True),
])
def test_trace_draws_the_evaluated_critical_path(model, array, scheme,
                                                 profiled):
    profile = load_profile(PROFILE) if profiled else None
    planned = Planner(parse_array(array),
                      get_scheme(scheme, profile=profile)).plan(
        build_model(model), batch=512)
    _assert_draws_report(planned, profile)
    _assert_span_covers_total(planned, profile)
