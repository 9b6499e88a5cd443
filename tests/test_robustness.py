"""API robustness: invalid inputs fail loudly and early, never silently."""

import pytest

from repro.baselines import get_scheme
from repro.core.planner import PartitionScheme, Planner
from repro.graph import Conv2d, FeatureMap, Input, Linear, Network
from repro.hardware import homogeneous_array, make_group, TPU_V3
from repro.models import build_model


class TestBatchValidation:
    def test_zero_batch_rejected_at_shape_inference(self):
        net = build_model("lenet")
        with pytest.raises(ValueError):
            net.infer_shapes(0)

    def test_negative_batch_rejected(self):
        net = build_model("lenet")
        with pytest.raises(ValueError):
            net.workloads(-4)

    def test_planner_propagates_batch_validation(self):
        planner = Planner(homogeneous_array(2), get_scheme("accpar"))
        with pytest.raises(ValueError):
            planner.plan(build_model("lenet"), batch=0)


class TestSchemeConfiguration:
    def test_invalid_ratio_mode_in_scheme(self):
        scheme = PartitionScheme(ratio_mode="psychic")
        planner = Planner(homogeneous_array(2), scheme)
        with pytest.raises(ValueError, match="ratio_mode"):
            planner.plan(build_model("lenet"), batch=8)

    def test_empty_space_in_scheme(self):
        scheme = PartitionScheme(space=())
        planner = Planner(homogeneous_array(2), scheme)
        with pytest.raises(ValueError, match="space"):
            planner.plan(build_model("lenet"), batch=8)


class TestFeatureMapBounds:
    def test_negative_spatial_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(1, 1, -5, 5)

    def test_float_dimension_rejected(self):
        with pytest.raises(ValueError):
            FeatureMap(1, 1, 2.5, 5)  # type: ignore[arg-type]


class TestGraphMisuse:
    def test_conv_after_flatten_mismatch(self):
        from repro.graph import Flatten

        net = Network("bad", Input("in", channels=3, height=4, width=4))
        net.add(Flatten("f"))
        net.add(Conv2d("c", 3, 4, kernel=3))
        with pytest.raises(ValueError):
            net.infer_shapes(2)

    def test_linear_fan_in_mismatch_at_planning(self):
        net = Network("bad", Input("in", channels=10))
        net.add(Linear("fc", 99, 5))
        planner = Planner(homogeneous_array(2), get_scheme("dp"))
        with pytest.raises(ValueError, match="input features"):
            planner.plan(net, batch=4)


class TestDegenerateArrays:
    def test_single_board_all_schemes(self):
        """A one-board array means no partitioning — every scheme produces
        a leaf plan and the simulator still reports sane numbers."""
        from repro.sim.executor import evaluate

        array = make_group(TPU_V3, 1)
        for scheme in ("dp", "owt", "hypar", "accpar"):
            planned = Planner(array, get_scheme(scheme)).plan(
                build_model("lenet"), batch=16
            )
            report = evaluate(planned)
            assert report.comm_time == 0.0
            assert report.total_time > 0.0

    def test_two_board_minimum_partition(self):
        planned = Planner(make_group(TPU_V3, 2), get_scheme("accpar")).plan(
            build_model("lenet"), batch=16
        )
        assert planned.hierarchy_levels() == 1
