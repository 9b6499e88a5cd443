"""Unit tests for ratio quantization."""

import pytest

from repro.core.planner import AccParPlanner
from repro.core.quantize import (
    QuantizationError,
    partitioned_extent,
    quantize_plan,
    quantize_ratio,
)
from repro.core.types import PartitionType, ShardedWorkload
from repro.core.verify import verify_planned
from repro.graph.layers import LayerWorkload
from repro.hardware import heterogeneous_array
from repro.models import build_model
from repro.sim.executor import evaluate

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


class TestQuantizeRatio:
    def test_exact_split_unchanged(self):
        assert quantize_ratio(0.5, 512) == 0.5

    def test_rounds_to_nearest(self):
        assert quantize_ratio(0.70003, 512) == pytest.approx(358 / 512)

    def test_keeps_both_sides_nonempty(self):
        assert quantize_ratio(0.001, 4) == 0.25
        assert quantize_ratio(0.999, 4) == 0.75

    def test_tiny_axis_raises(self):
        with pytest.raises(QuantizationError):
            quantize_ratio(0.5, 1.0)

    def test_fractional_extent_uses_floor(self):
        # an effective length of 7.9 allows splits of a 7-long axis
        assert quantize_ratio(0.5, 7.9) == pytest.approx(4 / 7)


class TestPartitionedExtent:
    def test_per_type(self):
        sw = ShardedWorkload(
            LayerWorkload("l", 8, 6, 4, (1, 1), (1, 1), (1, 1), False)
        )
        assert partitioned_extent(sw, I) == 8
        assert partitioned_extent(sw, II) == 6
        assert partitioned_extent(sw, III) == 4


class TestQuantizePlan:
    @pytest.fixture(scope="class")
    def planned(self):
        return AccParPlanner(heterogeneous_array(2, 2)).plan(
            build_model("alexnet"), batch=512
        )

    def test_all_ratios_become_integer_splits(self, planned):
        quantized, report = quantize_plan(planned)
        assert report.n_ratios > 0
        assert report.levels_quantized == len(quantized.level_plans())
        # check the root level explicitly
        by_name = {sw.name: sw for sw in planned.stages.workloads()}
        for name, lp in quantized.root_level_plan.layer_assignments().items():
            extent = int(partitioned_extent(by_name[name], lp.ptype))
            assert lp.ratio * extent == pytest.approx(round(lp.ratio * extent))

    def test_quantized_plan_verifies(self, planned):
        quantized, _ = quantize_plan(planned)
        assert verify_planned(quantized) == []

    def test_cost_drift_is_small(self, planned):
        """Rounding 512-long axes moves ratios by < 1/256 and the simulated
        time by well under a percent."""
        quantized, report = quantize_plan(planned)
        t_orig = evaluate(planned).total_time
        t_quant = evaluate(quantized).total_time
        assert abs(t_quant - t_orig) / t_orig < 0.05

    def test_report_shift_bounded_by_half_step(self, planned):
        _, report = quantize_plan(planned)
        # alexnet's smallest partitionable extents are large; shifts from
        # interior rounding stay below one full step of the smallest axis,
        # except where the solver pinned alpha at the boundary (0.999)
        assert report.max_ratio_shift < 0.2

    def test_original_plan_untouched(self, planned):
        before = {
            name: lp.ratio
            for name, lp in planned.root_level_plan.assignments.items()
        }
        quantize_plan(planned)
        after = {
            name: lp.ratio
            for name, lp in planned.root_level_plan.assignments.items()
        }
        assert before == after


class TestUnrealizableAxes:
    # at batch 16 the 256-board alexnet plan shards 220 (level, layer) axes
    # below two elements; at batch 512 it shards none
    @pytest.fixture(scope="class")
    def planned(self):
        return AccParPlanner(heterogeneous_array(128, 128)).plan(
            build_model("alexnet"), batch=16
        )

    def test_deep_hierarchy_counts_unrealizable(self, planned):
        """At full depth on 256 boards some axes shard below 2 elements;
        non-strict quantization reports them instead of crashing."""
        quantized, report = quantize_plan(planned)
        assert report.unrealizable > 0
        assert report.n_ratios > 0
        # the quantized plan still evaluates
        evaluate(quantized)

    def test_strict_mode_raises_on_unsplittable(self, planned):
        with pytest.raises(QuantizationError):
            quantize_plan(planned, strict=True)
