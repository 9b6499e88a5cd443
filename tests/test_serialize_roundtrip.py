"""Round-trip property test: every registry model × array kind, plus the
forward-compatibility behavior of the plan reader (PlanFormatError, unknown
spec keys) that the disk cache tier depends on."""

import json

import pytest

from repro.core.planner import AccParPlanner
from repro.core.serialize import (
    PlanFormatError,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from repro.core.hierarchy import collect_level_plans
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.models import available_models, build_model
from repro.sim.executor import evaluate

ARRAYS = {
    "homogeneous": lambda: homogeneous_array(4),
    "heterogeneous": lambda: heterogeneous_array(2, 2),
}


@pytest.mark.parametrize("model_name", available_models())
@pytest.mark.parametrize("array_kind", sorted(ARRAYS))
def test_roundtrip_preserves_plan(model_name, array_kind, tmp_path):
    """save_plan → load_plan reproduces assignments, ratios and cost."""
    planned = AccParPlanner(ARRAYS[array_kind]()).plan(
        build_model(model_name), batch=32
    )
    path = tmp_path / "plan.json"
    save_plan(planned, path)
    reloaded = load_plan(path)

    assert reloaded.network_name == planned.network_name
    assert reloaded.batch == planned.batch
    assert reloaded.scheme == planned.scheme
    assert reloaded.hierarchy_levels() == planned.hierarchy_levels()
    # built from the stored model and batch on first read
    assert reloaded.stages == planned.stages

    original_levels = collect_level_plans(planned.plan)
    reloaded_levels = collect_level_plans(reloaded.plan)
    assert len(original_levels) == len(reloaded_levels)
    for original, restored in zip(original_levels, reloaded_levels):
        assert set(original.assignments) == set(restored.assignments)
        for name, lp in original.assignments.items():
            assert restored.assignments[name].ptype is lp.ptype
            assert restored.assignments[name].ratio == pytest.approx(lp.ratio)
        assert restored.cost == pytest.approx(original.cost)

    assert evaluate(reloaded).total_time == pytest.approx(
        evaluate(planned).total_time
    )


@pytest.fixture
def alexnet_doc():
    planned = AccParPlanner(heterogeneous_array(2, 2)).plan(
        build_model("alexnet"), batch=64
    )
    return plan_to_dict(planned)


class TestForwardCompatibility:
    def test_unknown_spec_keys_are_ignored(self, alexnet_doc):
        for spec, _ in alexnet_doc["array"]:
            spec["future_field"] = "from-a-newer-writer"
            spec["another"] = [1, 2, 3]
        reloaded = plan_from_dict(alexnet_doc)
        assert reloaded.network_name == "alexnet"

    def test_missing_spec_field_raises_plan_format_error(self, alexnet_doc):
        spec, _ = alexnet_doc["array"][0]
        del spec["flops"]
        with pytest.raises(PlanFormatError, match="missing fields"):
            plan_from_dict(alexnet_doc)

    def test_version_mismatch_raises_plan_format_error(self, alexnet_doc):
        alexnet_doc["format_version"] = 99
        with pytest.raises(PlanFormatError, match="format version"):
            plan_from_dict(alexnet_doc)

    def test_plan_format_error_is_a_value_error(self):
        assert issubclass(PlanFormatError, ValueError)

    @pytest.mark.parametrize("document", [[1, 2], 42, "plan", None])
    def test_non_object_document_raises_plan_format_error(self, document):
        with pytest.raises(PlanFormatError, match="JSON object"):
            plan_from_dict(document)

    @pytest.mark.parametrize("field,value", [
        ("plan", "oops"),
        ("plan", [1]),
        ("array", None),
        ("array", [7]),
        ("levels", "2"),
        ("network", None),
    ])
    def test_wrong_shaped_field_raises_plan_format_error(self, alexnet_doc,
                                                         field, value):
        alexnet_doc[field] = value
        with pytest.raises(PlanFormatError):
            plan_from_dict(alexnet_doc)

    @pytest.mark.parametrize("field", ["batch", "scheme", "dtype_bytes",
                                       "plan", "network"])
    def test_missing_field_raises_plan_format_error(self, alexnet_doc, field):
        del alexnet_doc[field]
        with pytest.raises(PlanFormatError):
            plan_from_dict(alexnet_doc)

    @pytest.mark.parametrize("value", ["IV", "i", 1, None, ["I"], {"I": 1}])
    def test_unknown_partition_type_raises_plan_format_error(
            self, alexnet_doc, value):
        alexnet_doc["nodes"][alexnet_doc["plan"]]["entries"][0]["type"] = value
        with pytest.raises(PlanFormatError, match="unknown partition type"):
            plan_from_dict(alexnet_doc)

    def test_wrong_shaped_entry_raises_plan_format_error(self, alexnet_doc):
        alexnet_doc["nodes"][alexnet_doc["plan"]]["entries"][0] = 3
        with pytest.raises(PlanFormatError):
            plan_from_dict(alexnet_doc)

    def test_extra_document_keys_roundtrip(self, alexnet_doc, tmp_path):
        # the disk cache tier stores the fingerprint inside the document;
        # the reader must not choke on keys it does not know
        alexnet_doc["fingerprint"] = "abcdef0123456789"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(alexnet_doc))
        assert load_plan(path).network_name == "alexnet"
