"""Unit tests for plan serialization and verification."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.planner import AccParPlanner, Planner
from repro.core.serialize import (
    FORMAT_VERSION,
    PlanFormatError,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from repro.core.types import PartitionType
from repro.core.verify import PlanVerificationError, verify_planned
from repro.plan.ir import LayerAssignment, LevelPlan
from repro.baselines import get_scheme
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.models import build_model
from repro.sim.executor import evaluate
from repro.training.optimizers import ADAM

from tests.build_counts import NO_BUILD, ONE_BUILD, count_builds

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture
def planned():
    return AccParPlanner(heterogeneous_array(2, 2)).plan(
        build_model("alexnet"), batch=64
    )


def _without_layer(level, name):
    """A copy of ``level`` with one layer's assignment entry dropped."""
    kept = tuple(
        e for e in level.entries
        if not (isinstance(e, LayerAssignment) and e.name == name)
    )
    assert len(kept) < len(level.entries), f"{name} not present"
    return LevelPlan(entries=kept, cost=level.cost, scheme=level.scheme)


class TestRoundTrip:
    def test_dict_roundtrip_preserves_simulation(self, planned):
        data = plan_to_dict(planned)
        reloaded = plan_from_dict(data)
        assert reloaded.network_name == planned.network_name
        assert reloaded.batch == planned.batch
        assert reloaded.scheme == planned.scheme
        assert evaluate(reloaded).total_time == pytest.approx(
            evaluate(planned).total_time
        )

    def test_file_roundtrip(self, planned, tmp_path):
        path = tmp_path / "plan.json"
        save_plan(planned, path)
        reloaded = load_plan(path)
        assert reloaded.hierarchy_levels() == planned.hierarchy_levels()
        # the document is genuine JSON
        document = json.loads(path.read_text())
        assert document["format_version"] == FORMAT_VERSION

    def test_assignments_preserved(self, planned):
        reloaded = plan_from_dict(plan_to_dict(planned))
        original = planned.root_level_plan.assignments
        restored = reloaded.root_level_plan.assignments
        assert set(original) == set(restored)
        for name in original:
            assert original[name].ptype is restored[name].ptype
            assert original[name].ratio == pytest.approx(restored[name].ratio)

    def test_multipath_model_roundtrip(self):
        planned = Planner(homogeneous_array(4), get_scheme("accpar")).plan(
            build_model("resnet18"), batch=32
        )
        reloaded = plan_from_dict(plan_to_dict(planned))
        assert evaluate(reloaded).total_time == pytest.approx(
            evaluate(planned).total_time
        )

    def test_unknown_version_raises(self, planned):
        data = plan_to_dict(planned)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            plan_from_dict(data)

    def test_depth_mismatch_raises(self, planned):
        data = plan_to_dict(planned)
        data["levels"] = 1  # tree will be shallower than the stored plan
        with pytest.raises(ValueError, match="depth"):
            plan_from_dict(data)

    def test_custom_network_builder(self, planned, monkeypatch):
        data = plan_to_dict(planned)
        calls = []

        def builder(name):
            calls.append(name)
            return build_model(name)

        reloaded = plan_from_dict(data, network_builder=builder)
        assert calls == ["alexnet"]
        # the builder's model makes the stages: nothing is built again
        builds = count_builds(monkeypatch)
        assert reloaded.stages == planned.stages
        assert builds == {**NO_BUILD, "stages": 1, "infer_shapes": 1,
                          "ipdom": 1}
        assert calls == ["alexnet"]


class TestLazyStages:
    """A loaded plan makes its stages on first read, not at load, from the
    model's one entry per process."""

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_load_builds_nothing(self, planned, monkeypatch, version):
        if version == 3:
            document = plan_to_dict(planned)
        else:
            path = FIXTURES / f"plans_v{version}" / "alexnet_hetero_accpar.json"
            document = json.loads(path.read_text())
        # alexnet under a function no earlier test registered: the first
        # read builds its model entry
        builds = count_builds(monkeypatch, "alexnet")
        loaded = plan_from_dict(document)
        assert builds == NO_BUILD
        stages = loaded.stages
        assert builds == ONE_BUILD
        assert loaded.stages is stages
        assert builds == ONE_BUILD
        # a second plan of the model, at another batch, builds nothing
        other = plan_from_dict({**document, "batch": loaded.batch + 5})
        assert other.stages.skeleton.names == stages.skeleton.names
        assert builds == ONE_BUILD
        for plan in (loaded, other):
            assert plan.stages == AccParPlanner(heterogeneous_array(2, 2)).plan(
                build_model("alexnet"), batch=plan.batch).stages

    def test_planned_plan_keeps_its_stages(self, planned, monkeypatch):
        builds = count_builds(monkeypatch)
        assert planned.stages is planned.stages
        assert builds == NO_BUILD

    def test_replace_carries_the_stages(self, planned):
        loaded = plan_from_dict(plan_to_dict(planned))
        replaced = dataclasses.replace(loaded, scheme="renamed")
        assert replaced.stages is loaded.stages
        assert replaced.stages == planned.stages
        assert replaced.plan is loaded.plan

    @pytest.mark.parametrize("field", ["batch", "dtype_bytes"])
    @pytest.mark.parametrize("value", [0, -1, 1.5, "64", None, True, [64]])
    def test_bad_size_field_is_a_format_error(self, planned, field, value):
        document = plan_to_dict(planned)
        document[field] = value
        with pytest.raises(PlanFormatError, match="not a positive integer"):
            plan_from_dict(document)


class TestVerifyPlanned:
    def test_fresh_plan_verifies_clean(self, planned):
        assert verify_planned(planned) == []

    def test_all_schemes_verify(self):
        for scheme in ("dp", "owt", "hypar", "accpar"):
            planned = Planner(heterogeneous_array(2, 2), get_scheme(scheme)).plan(
                build_model("resnet18"), batch=32
            )
            assert verify_planned(planned) == []

    def test_missing_assignment_detected(self, planned):
        planned.plan.level_plan = _without_layer(planned.root_level_plan, "cv1")
        issues = verify_planned(planned)
        assert any("cv1" in issue for issue in issues)

    def test_unknown_layer_detected(self, planned):
        level = planned.root_level_plan
        planned.plan.level_plan = LevelPlan(
            entries=level.entries + (
                LayerAssignment("ghost", PartitionType.TYPE_I, 0.5),
            ),
            cost=level.cost,
            scheme=level.scheme,
        )
        issues = verify_planned(planned)
        assert any("ghost" in issue for issue in issues)

    def test_strict_mode_raises(self, planned):
        planned.plan.level_plan = _without_layer(planned.root_level_plan, "cv1")
        with pytest.raises(PlanVerificationError):
            verify_planned(planned, strict=True)

    def test_memory_overflow_detected(self):
        from repro.hardware import AcceleratorSpec, make_group

        tiny = AcceleratorSpec("tiny", flops=1e12, memory_bytes=1e6,
                               memory_bandwidth=1e9, network_bandwidth=1e9)
        planned = AccParPlanner(make_group(tiny, 2)).plan(
            build_model("alexnet"), batch=64
        )
        issues = verify_planned(planned)
        assert any("GiB" in issue for issue in issues)

    def test_optimizer_state_counts_against_memory(self, planned):
        # Adam triples the weight-adjacent footprint; still fits TPU HBM here
        assert verify_planned(planned, optimizer=ADAM) == []
