"""Unit tests for the partition algebra (Section 3 / Tables 3 and 6)."""

import pytest

from repro.core.types import (
    ALL_TYPES,
    HYPAR_TYPES,
    PARTITIONED_DIM,
    PSUM_PHASE,
    PartitionType,
    Phase,
    REPLICATED_TENSOR,
    ShardedWorkload,
)
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.plan.ir import JoinAlignment, LayerAssignment, LayerPartition, LevelPlan
from tests.tables import table


def fc_workload(batch=8, d_in=6, d_out=4, name="fc"):
    return LayerWorkload(name, batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)


def conv_workload(batch=2, d_in=3, d_out=5, in_hw=(8, 8), out_hw=(8, 8),
                  kernel=(3, 3), name="cv"):
    return LayerWorkload(name, batch, d_in, d_out, in_hw, out_hw, kernel, True)


class TestTypeSpace:
    def test_three_types(self):
        assert len(ALL_TYPES) == 3

    def test_hypar_misses_type_iii(self):
        assert PartitionType.TYPE_III not in HYPAR_TYPES
        assert set(HYPAR_TYPES) == {PartitionType.TYPE_I, PartitionType.TYPE_II}

    def test_str(self):
        assert str(PartitionType.TYPE_III) == "Type-III"

    def test_table3_rotational_symmetry(self):
        """Each type partitions a distinct dimension, replicates a distinct
        tensor and psums in a distinct phase — the paper's Table 3."""
        assert PARTITIONED_DIM[PartitionType.TYPE_I] == "B"
        assert PARTITIONED_DIM[PartitionType.TYPE_II] == "D_i"
        assert PARTITIONED_DIM[PartitionType.TYPE_III] == "D_o"
        assert len(set(PARTITIONED_DIM.values())) == 3
        assert len(set(REPLICATED_TENSOR.values())) == 3
        assert len(set(PSUM_PHASE.values())) == 3
        assert PSUM_PHASE[PartitionType.TYPE_I] is Phase.GRADIENT
        assert PSUM_PHASE[PartitionType.TYPE_II] is Phase.FORWARD
        assert PSUM_PHASE[PartitionType.TYPE_III] is Phase.BACKWARD


class TestShardedWorkloadSizes:
    def test_unsharded_fc_sizes(self):
        sw = ShardedWorkload(fc_workload())
        assert sw.a_input_fm() == 8 * 6
        assert sw.a_output_fm() == 8 * 4
        assert sw.a_weight() == 6 * 4

    def test_unsharded_conv_sizes(self):
        sw = ShardedWorkload(conv_workload())
        assert sw.a_input_fm() == 2 * 3 * 64
        assert sw.a_output_fm() == 2 * 5 * 64
        assert sw.a_weight() == 3 * 5 * 9

    def test_psum_tensor_per_type(self):
        sw = ShardedWorkload(fc_workload())
        assert sw.a_psum(PartitionType.TYPE_I) == sw.a_weight()
        assert sw.a_psum(PartitionType.TYPE_II) == sw.a_output_fm()
        assert sw.a_psum(PartitionType.TYPE_III) == sw.a_input_fm()

    def test_replicated_tensor_per_type(self):
        sw = ShardedWorkload(fc_workload())
        assert sw.a_replicated(PartitionType.TYPE_I) == sw.a_weight()
        assert sw.a_replicated(PartitionType.TYPE_II) == sw.a_output_fm()
        assert sw.a_replicated(PartitionType.TYPE_III) == sw.a_input_fm()


class TestTable6Flops:
    def test_fc_forward(self):
        # A(F_{l+1}) * (2 D_i - 1)
        sw = ShardedWorkload(fc_workload(batch=8, d_in=6, d_out=4))
        assert sw.flops_forward() == 32 * 11

    def test_fc_backward(self):
        # A(E_l) * (2 D_o - 1)
        sw = ShardedWorkload(fc_workload(batch=8, d_in=6, d_out=4))
        assert sw.flops_backward() == 48 * 7

    def test_fc_gradient(self):
        # A(W) * (2 B - 1)
        sw = ShardedWorkload(fc_workload(batch=8, d_in=6, d_out=4))
        assert sw.flops_gradient() == 24 * 15

    def test_conv_forward_scales_with_kernel(self):
        # per Section 4.3: reduction length = D_i * K_h * K_w
        sw = ShardedWorkload(conv_workload())
        assert sw.flops_forward() == sw.a_output_fm() * (2 * 3 * 9 - 1)

    def test_conv_gradient_scales_with_output_map(self):
        sw = ShardedWorkload(conv_workload())
        assert sw.flops_gradient() == sw.a_weight() * (2 * 2 * 64 - 1)

    def test_total_is_sum_of_phases(self):
        sw = ShardedWorkload(conv_workload())
        assert sw.flops_total() == pytest.approx(
            sw.flops_forward() + sw.flops_backward() + sw.flops_gradient()
        )

    def test_phase_accessor(self):
        sw = ShardedWorkload(fc_workload())
        assert sw.flops_phase(Phase.FORWARD) == sw.flops_forward()
        assert sw.flops_phase(Phase.BACKWARD) == sw.flops_backward()
        assert sw.flops_phase(Phase.GRADIENT) == sw.flops_gradient()

    def test_subunit_reduction_never_negative(self):
        sw = ShardedWorkload(fc_workload(d_in=6), din_frac=0.01)
        assert sw.flops_forward() >= 0.0


def one_layer(sw):
    """The one-layer sub-problem holding ``sw``."""
    return table([LayerStage(sw)])


def shard(sw, ptype, alpha, side="left"):
    """``sw`` after one level assigns it ``ptype`` at ratio ``alpha``."""
    level = LevelPlan([LayerAssignment(sw.name, ptype, alpha)])
    (out,) = one_layer(sw).shard(level, side).workloads()
    return out


class TestSharding:
    """A level's shard, on the table (:meth:`ShardedStages.shard`)."""

    def test_type_i_shards_batch(self):
        sw = shard(ShardedWorkload(fc_workload()), PartitionType.TYPE_I, 0.25)
        assert sw.batch == pytest.approx(2.0)
        assert sw.d_in == 6 and sw.d_out == 4

    def test_type_ii_shards_din(self):
        sw = shard(ShardedWorkload(fc_workload()), PartitionType.TYPE_II, 0.5)
        assert sw.d_in == pytest.approx(3.0)

    def test_type_iii_shards_dout(self):
        sw = shard(ShardedWorkload(fc_workload()), PartitionType.TYPE_III, 0.5)
        assert sw.d_out == pytest.approx(2.0)

    def test_shards_compose_multiplicatively(self):
        once = shard(ShardedWorkload(fc_workload()), PartitionType.TYPE_I, 0.5)
        sw = shard(once, PartitionType.TYPE_I, 0.5)
        assert sw.batch_frac == pytest.approx(0.25)

    def test_shard_volume_conservation(self):
        """The alpha- and beta-shards partition the split dimension exactly
        and leave the other two dimensions untouched."""
        for ptype in ALL_TYPES:
            base = ShardedWorkload(conv_workload())
            left = shard(base, ptype, 0.3, "left")
            right = shard(base, ptype, 0.3, "right")
            if ptype is PartitionType.TYPE_I:
                assert left.batch + right.batch == pytest.approx(base.batch)
                assert left.d_in == base.d_in and left.d_out == base.d_out
            elif ptype is PartitionType.TYPE_II:
                assert left.d_in + right.d_in == pytest.approx(base.d_in)
                assert left.batch == base.batch and left.d_out == base.d_out
            else:
                assert left.d_out + right.d_out == pytest.approx(base.d_out)
                assert left.batch == base.batch and left.d_in == base.d_in

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            shard(ShardedWorkload(fc_workload()), PartitionType.TYPE_I, 0.0)
        with pytest.raises(ValueError):
            shard(ShardedWorkload(fc_workload()), PartitionType.TYPE_I, 1.5)

    def test_invalid_fraction_field_raises(self):
        with pytest.raises(ValueError):
            ShardedWorkload(fc_workload(), batch_frac=0.0)

    def test_key_distinguishes_fractions(self):
        a = one_layer(ShardedWorkload(fc_workload(), batch_frac=0.5))
        b = one_layer(ShardedWorkload(fc_workload(), batch_frac=0.25))
        assert a.key() != b.key()
        assert a.key() == one_layer(ShardedWorkload(fc_workload(),
                                                    batch_frac=0.5)).key()


class TestLayerPartition:
    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            LayerPartition(PartitionType.TYPE_I, 0.0)
        with pytest.raises(ValueError):
            LayerPartition(PartitionType.TYPE_I, 1.0)

    def test_str(self):
        lp = LayerPartition(PartitionType.TYPE_II, 0.25)
        assert "Type-II" in str(lp) and "0.250" in str(lp)


class TestLevelPlan:
    def test_layer_assignments_filter_join_entries(self):
        plan = LevelPlan(
            entries=(
                LayerAssignment("c1", PartitionType.TYPE_I),
                JoinAlignment("fork@x", PartitionType.TYPE_II),
            )
        )
        assert list(plan.layer_assignments()) == ["c1"]
        assert [j.stage for j in plan.joins()] == ["fork@x"]

    def test_type_counts(self):
        plan = LevelPlan(
            entries=(
                LayerAssignment("a", PartitionType.TYPE_I),
                LayerAssignment("b", PartitionType.TYPE_I),
                LayerAssignment("c", PartitionType.TYPE_III),
            )
        )
        counts = plan.type_counts()
        assert counts[PartitionType.TYPE_I] == 2
        assert counts[PartitionType.TYPE_II] == 0
        assert counts[PartitionType.TYPE_III] == 1
