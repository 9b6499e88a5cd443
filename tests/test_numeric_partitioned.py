"""Executable validation of Section 3: partitioned == monolithic training.

These tests run the two-device executor over every type combination and
assert exact numerical agreement with the reference trainer, plus the
measured communication element counts against Tables 4 and 5.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import PartitionType
from repro.numeric import (
    AxisShard,
    Layout,
    MlpSpec,
    PartitionedExecutor,
    expected_inter_elements,
    expected_intra_elements,
    input_layout,
    output_layout,
    overlap_elements,
    split_point,
    validate_partitioned_training,
)
from repro.plan import LayerPartition

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


class TestShardingPrimitives:
    def test_split_point_bounds(self):
        assert split_point(8, 0.0001) == 1
        assert split_point(8, 0.9999) == 7
        assert split_point(8, 0.5) == 4

    def test_split_point_rejects_tiny_axis(self):
        with pytest.raises(ValueError):
            split_point(1, 0.5)

    def test_axis_shard_validation(self):
        with pytest.raises(ValueError):
            AxisShard(8, 0)
        with pytest.raises(ValueError):
            AxisShard(8, 8)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            Layout("full", AxisShard(4, 2))
        with pytest.raises(ValueError):
            Layout("row", None)
        with pytest.raises(ValueError):
            Layout("diagonal")

    def test_overlap_row_vs_col(self):
        row = Layout("row", AxisShard(8, 2))
        col = Layout("col", AxisShard(6, 3))
        # device 0 owns 2x6 under row, needs 8x3 under col; overlap 2x3
        assert overlap_elements(row, col, 0, (8, 6)) == 6

    def test_overlap_full_covers_everything(self):
        full = Layout("full")
        col = Layout("col", AxisShard(6, 3))
        assert overlap_elements(full, col, 0, (8, 6)) == 8 * 3


class TestLayouts:
    def test_type_i_layouts(self):
        plan = LayerPartition(I, 0.5)
        assert input_layout(plan, 8, 4, 4).kind == "row"
        assert output_layout(plan, 8, 4, 4).kind == "row"

    def test_type_ii_layouts(self):
        plan = LayerPartition(II, 0.5)
        assert input_layout(plan, 8, 4, 4).kind == "col"
        assert output_layout(plan, 8, 4, 4).kind == "full"

    def test_type_iii_layouts(self):
        plan = LayerPartition(III, 0.5)
        assert input_layout(plan, 8, 4, 4).kind == "full"
        assert output_layout(plan, 8, 4, 4).kind == "col"


class TestAllTypeCombinations:
    """The paper's algebra, executed: every 2-layer and 3-layer plan."""

    @pytest.mark.parametrize(
        "t0,t1", list(itertools.product((I, II, III), repeat=2))
    )
    def test_two_layer_exact(self, t0, t1):
        spec = MlpSpec([8, 8, 8])
        plan = [LayerPartition(t0, 0.5), LayerPartition(t1, 0.5)]
        report = validate_partitioned_training(spec, plan, batch=8)
        assert report.numerically_exact
        assert report.intra_matches_table4
        assert report.inter_matches_table5

    @pytest.mark.parametrize(
        "combo", list(itertools.product((I, II, III), repeat=3))
    )
    def test_three_layer_exact(self, combo):
        spec = MlpSpec([8, 8, 8, 8])
        plan = [LayerPartition(t, 0.25) for t in combo]
        report = validate_partitioned_training(spec, plan, batch=8)
        assert report.numerically_exact
        assert report.intra_matches_table4
        assert report.inter_matches_table5

    @pytest.mark.parametrize("ratio", [0.125, 0.25, 0.75, 0.875])
    def test_asymmetric_ratios(self, ratio):
        spec = MlpSpec([16, 16, 16])
        plan = [LayerPartition(II, ratio), LayerPartition(III, ratio)]
        report = validate_partitioned_training(spec, plan, batch=16)
        assert report.numerically_exact
        assert report.inter_matches_table5

    def test_rectangular_widths(self):
        spec = MlpSpec([12, 20, 8, 4])
        plan = [LayerPartition(I, 0.5), LayerPartition(II, 0.5),
                LayerPartition(III, 0.5)]
        report = validate_partitioned_training(spec, plan, batch=6,
                                               check_tables=False)
        assert report.numerically_exact

    def test_mismatched_plan_length_raises(self):
        spec = MlpSpec([8, 8, 8])
        with pytest.raises(ValueError):
            PartitionedExecutor(spec, spec.init_weights(),
                                [[LayerPartition(I, 0.5)]], batch=8)


class TestCommunicationCounts:
    def test_free_transitions_move_nothing_between_layers(self):
        """I→I, II→III, III→II must show zero inter-layer traffic."""
        spec = MlpSpec([8, 8, 8])
        for t0, t1 in [(I, I), (II, III), (III, II)]:
            plan = [LayerPartition(t0, 0.5), LayerPartition(t1, 0.5)]
            report = validate_partitioned_training(spec, plan, batch=8)
            expected = expected_inter_elements(spec, plan, 8)
            assert expected["boundary1"] == (0, 0)
            assert report.inter_matches_table5

    def test_data_parallel_comm_is_gradient_sync_only(self):
        spec = MlpSpec([8, 8, 8])
        plan = [LayerPartition(I, 0.5), LayerPartition(I, 0.5)]
        weights = spec.init_weights(0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8))
        target = rng.standard_normal((8, 8))
        trace = PartitionedExecutor(spec, weights, [plan], 8).step(x, target)
        # inter-layer traffic: none
        assert all(v == (0, 0) for v in trace.comm.inter_forward.values())
        assert all(v == (0, 0) for v in trace.comm.inter_backward.values())
        # intra traffic: exactly the two weight tensors per device
        assert trace.comm.intra == {(0, "fc0"): (64, 64), (0, "fc1"): (64, 64)}

    def test_expected_intra_skips_first_layer_type_iii(self):
        spec = MlpSpec([8, 8])
        expected = expected_intra_elements(spec, [LayerPartition(III, 0.5)], 8)
        assert expected == {}


class TestPropertyBased:
    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.sampled_from([I, II, III]), min_size=2, max_size=4),
        st.sampled_from([0.25, 0.5, 0.75]),
        st.integers(min_value=0, max_value=5),
    )
    def test_random_plans_are_exact(self, types, ratio, seed):
        widths = [8] * (len(types) + 1)
        spec = MlpSpec(widths)
        plan = [LayerPartition(t, ratio) for t in types]
        report = validate_partitioned_training(spec, plan, batch=8, seed=seed)
        assert report.numerically_exact
        assert report.intra_matches_table4
        assert report.inter_matches_table5
