"""Unit tests for memory-footprint accounting."""

import pytest

from repro.core.stages import to_sharded_stages
from repro.core.types import PartitionType
from repro.plan.ir import LayerAssignment, LevelPlan
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.models import build_model
from repro.sim.memory import leaf_memory_report

I, II = PartitionType.TYPE_I, PartitionType.TYPE_II


@pytest.fixture
def stages():
    return to_sharded_stages(build_model("alexnet").stages(batch=64))


class TestFootprint:
    def test_weight_bytes(self, stages):
        report = leaf_memory_report(stages, make_group(TPU_V3, 1))
        expected = sum(sw.a_weight() for sw in stages.workloads()) * 2
        assert report.weight_bytes == pytest.approx(expected)

    def test_gradients_mirror_weights(self, stages):
        report = leaf_memory_report(stages, make_group(TPU_V3, 1))
        assert report.gradient_bytes == report.weight_bytes

    def test_total_is_components_sum(self, stages):
        report = leaf_memory_report(stages, make_group(TPU_V3, 1))
        assert report.total_bytes == pytest.approx(
            report.weight_bytes + report.gradient_bytes + report.activation_bytes
        )

    def test_alexnet_fits_on_one_board(self, stages):
        report = leaf_memory_report(stages, make_group(TPU_V2, 1))
        assert report.fits
        assert 0.0 < report.utilization < 1.0

    def test_sharding_reduces_footprint(self, stages):
        level = LevelPlan([LayerAssignment(name, II, 0.5)
                           for name in stages.skeleton.names])
        left = stages.shard(level, "left")
        full = leaf_memory_report(stages, make_group(TPU_V3, 1))
        half = leaf_memory_report(left, make_group(TPU_V3, 1))
        assert half.weight_bytes == pytest.approx(full.weight_bytes / 2)

    def test_capacity_from_group(self, stages):
        one = leaf_memory_report(stages, make_group(TPU_V3, 1))
        two = leaf_memory_report(stages, make_group(TPU_V3, 2))
        assert two.capacity_bytes == pytest.approx(2 * one.capacity_bytes)

    def test_overflow_detected(self, stages):
        from repro.hardware import AcceleratorSpec

        tiny = AcceleratorSpec("tiny", flops=1e12, memory_bytes=1e6,
                               memory_bandwidth=1e9, network_bandwidth=1e9)
        report = leaf_memory_report(stages, make_group(tiny, 1))
        assert not report.fits
        assert report.utilization > 1.0
