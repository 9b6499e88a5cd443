"""Property-based tests (hypothesis) of the core invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.brute_force import brute_force_chain
from repro.core.cost_model import PairCostModel, inter_layer_elements
from repro.core.dp_vectorized import search_stages
from repro.core.ratio import RATIO_HI, RATIO_LO, solve_balanced_ratio
from repro.core.types import ALL_TYPES, PartitionType, ShardedWorkload
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.graph.shapes import TensorShape
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.plan.ir import LayerAssignment, LevelPlan
from repro.sim.trace import EventKind, TraceEvent
from tests.tables import table
from repro.core.types import Phase

types_st = st.sampled_from(list(ALL_TYPES))
ratio_st = st.floats(min_value=0.01, max_value=0.99)
fm_st = st.floats(min_value=1.0, max_value=1e9)


dims_st = st.integers(min_value=1, max_value=512)
batch_st = st.integers(min_value=1, max_value=256)


def make_fc(batch, d_in, d_out, name="fc"):
    return ShardedWorkload(
        LayerWorkload(name, batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)
    )


def shard(sw, ptype, alpha, side="left"):
    """``sw`` after one level assigns it ``ptype`` at ratio ``alpha``."""
    level = LevelPlan([LayerAssignment(sw.name, ptype, alpha)])
    (out,) = table([LayerStage(sw)]).shard(level, side).workloads()
    return out


class TestInterLayerProperties:
    @given(fm_st, types_st, types_st, ratio_st)
    def test_amounts_nonnegative_and_bounded(self, a_fm, tt, t, alpha):
        amount_i, amount_j = inter_layer_elements(a_fm, tt, t, alpha)
        assert 0.0 <= amount_i <= 2.0 * a_fm + 1e-9
        assert 0.0 <= amount_j <= 2.0 * a_fm + 1e-9

    @given(fm_st, types_st, types_st, ratio_st)
    def test_party_swap_symmetry(self, a_fm, tt, t, alpha):
        """Evaluating at beta with parties swapped gives the mirrored costs."""
        forward = inter_layer_elements(a_fm, tt, t, alpha)
        mirrored = inter_layer_elements(a_fm, tt, t, 1.0 - alpha)
        assert forward[0] == pytest.approx(mirrored[1], rel=1e-9, abs=1e-9)
        assert forward[1] == pytest.approx(mirrored[0], rel=1e-9, abs=1e-9)

    @given(fm_st, types_st, ratio_st)
    def test_rotation_free_transitions(self, a_fm, t, alpha):
        """Type-II→III and III→II are always free, like I→I (Figure 2)."""
        for tt, t2 in [
            (PartitionType.TYPE_I, PartitionType.TYPE_I),
            (PartitionType.TYPE_II, PartitionType.TYPE_III),
            (PartitionType.TYPE_III, PartitionType.TYPE_II),
        ]:
            assert inter_layer_elements(a_fm, tt, t2, alpha) == (0.0, 0.0)

    @given(fm_st, ratio_st)
    def test_amount_scales_linearly_with_tensor(self, a_fm, alpha):
        one = inter_layer_elements(a_fm, PartitionType.TYPE_I,
                                   PartitionType.TYPE_III, alpha)
        two = inter_layer_elements(2 * a_fm, PartitionType.TYPE_I,
                                   PartitionType.TYPE_III, alpha)
        assert two[0] == pytest.approx(2 * one[0])


class TestShardedWorkloadProperties:
    @given(batch_st, dims_st, dims_st, types_st, ratio_st)
    def test_shard_conserves_split_dimension(self, batch, d_in, d_out, t, alpha):
        base = make_fc(batch, d_in, d_out)
        left = shard(base, t, alpha, "left")
        right = shard(base, t, alpha, "right")
        assert left.batch + right.batch == pytest.approx(base.batch + (
            base.batch if t is not PartitionType.TYPE_I else 0.0
        )) or t is PartitionType.TYPE_I
        if t is PartitionType.TYPE_I:
            assert left.batch + right.batch == pytest.approx(base.batch)
        elif t is PartitionType.TYPE_II:
            assert left.d_in + right.d_in == pytest.approx(base.d_in)
        else:
            assert left.d_out + right.d_out == pytest.approx(base.d_out)

    @given(batch_st, dims_st, dims_st, types_st, ratio_st)
    def test_flops_nonnegative_and_monotone(self, batch, d_in, d_out, t, alpha):
        base = make_fc(batch, d_in, d_out)
        sharded = shard(base, t, alpha)
        assert sharded.flops_total() >= 0.0
        assert sharded.flops_total() <= base.flops_total() + 1e-6

    @given(batch_st, dims_st, dims_st, types_st)
    def test_psum_matches_replicated_tensor_size(self, batch, d_in, d_out, t):
        """Table 3: the psum tensor and the replicated tensor have the same
        shape under every type (rotational symmetry)."""
        sw = make_fc(batch, d_in, d_out)
        assert sw.a_psum(t) == sw.a_replicated(t)


class TestRatioSolverProperties:
    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_affine_costs_balance_or_minimax(self, vi, vj, ui, uj):
        def pair(a):
            return ui + vi * a, uj + vj * (1.0 - a)

        alpha = solve_balanced_ratio(pair)
        assert RATIO_LO <= alpha <= RATIO_HI
        ci, cj = pair(alpha)
        exact = (uj + vj - ui) / (vi + vj)
        if RATIO_LO < exact < RATIO_HI:
            assert ci == pytest.approx(cj, rel=1e-4, abs=1e-6)
        else:
            # no interior balance: result must sit at (or near) a boundary
            assert alpha <= RATIO_LO + 0.02 or alpha >= RATIO_HI - 0.02


class TestDpOptimalityProperty:
    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(st.integers(min_value=2, max_value=2048), min_size=2, max_size=5),
        st.integers(min_value=1, max_value=512),
        st.sampled_from(["balanced", "equal", "comm-volume"]),
    )
    def test_dp_equals_brute_force(self, widths, batch, ratio_mode):
        stages = table([
            LayerStage(make_fc(batch, widths[i], widths[i + 1], f"fc{i}"))
            for i in range(len(widths) - 1)
        ])
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                              ratio_mode=ratio_mode)
        dp = search_stages(stages, model)
        bf = brute_force_chain(stages, model)
        assert dp.cost == pytest.approx(bf.cost, rel=1e-9)

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(st.integers(min_value=2, max_value=2048), min_size=2, max_size=4),
        st.lists(types_st, min_size=3, max_size=3),
        st.integers(min_value=1, max_value=128),
    )
    def test_dp_beats_any_fixed_assignment(self, widths, fixed_types, batch):
        stages = table([
            LayerStage(make_fc(batch, widths[i], widths[i + 1], f"fc{i}"))
            for i in range(len(widths) - 1)
        ])
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))
        optimal = search_stages(stages, model)
        pinned = search_stages(
            stages,
            model,
            space_fn=lambda w: (fixed_types[int(w.name[2:]) % 3],),
        )
        assert optimal.cost <= pinned.cost + 1e-9


class TestTraceProperties:
    @given(st.floats(min_value=0.0, max_value=1e12),
           st.integers(min_value=1, max_value=1024))
    def test_quantization_bounds(self, amount, granule):
        e = TraceEvent(EventKind.LOAD, "l", Phase.FORWARD, amount, granule)
        q = e.quantized_amount()
        assert q >= amount - 1e-6
        assert q < amount + granule + 1e-6
        if granule > 1:
            # quantized amounts land on whole granules; granule-1 (FC) traces
            # keep fractional effective amounts untouched
            assert math.isclose(q % granule, 0.0, abs_tol=1e-6) or math.isclose(
                q % granule, granule, abs_tol=1e-6
            )


class TestShapeProperties:
    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=5))
    def test_size_is_product(self, dims):
        assert TensorShape(tuple(dims)).size == math.prod(dims)
