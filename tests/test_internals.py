"""Direct unit tests for internals exercised only indirectly elsewhere."""

import numpy as np
import pytest

from repro.core.cost_model import PairCostModel
from repro.core.types import (
    PartitionType,
    Phase,
    ShardedWorkload,
)
from repro.graph.layers import LayerWorkload
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.numeric.executor import CommLog
from repro.numeric.sharding import (
    AxisShard,
    Layout,
    effective_alpha,
    error_consumer_layout,
    error_producer_layout,
    reassemble,
    take,
)
from repro.plan import LayerPartition
from repro.sim.trace import EventKind, optimizer_update_events, total_amount
from repro.training.optimizers import ADAM, SGD

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def fc_workload(name="fc", batch=8, d_in=6, d_out=4):
    w = LayerWorkload(name, batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)
    return ShardedWorkload(w)


@pytest.fixture
def model():
    return PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))


class TestStepPairCosts:
    def test_decomposition_sums(self, model):
        sw = fc_workload()
        ci, cj, (cp_i, cp_j), (cm_i, cm_j) = model.step_pair_costs(
            sw, I, II, 0.5
        )
        assert ci == pytest.approx(cp_i + cm_i)
        assert cj == pytest.approx(cp_j + cm_j)


class TestShardingHelpers:
    def test_slice_of(self):
        shard = AxisShard(10, 3)
        assert shard.slice_of(0) == slice(0, 3)
        assert shard.slice_of(1) == slice(3, 10)
        with pytest.raises(ValueError):
            shard.slice_of(2)

    def test_take_reassemble_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 4))
        shard = AxisShard(6, 2)
        parts = [take(m, shard, d, axis=0) for d in (0, 1)]
        np.testing.assert_array_equal(reassemble(*parts, axis=0), m)

    def test_layout_owned_extent(self):
        row = Layout("row", AxisShard(8, 3))
        assert row.owned_extent(0, (8, 5)) == (3, 5)
        assert row.owned_extent(1, (8, 5)) == (5, 5)
        full = Layout("full")
        assert full.owned_extent(0, (8, 5)) == (8, 5)

    def test_layout_device_part(self):
        m = np.arange(12).reshape(3, 4)
        col = Layout("col", AxisShard(4, 1))
        np.testing.assert_array_equal(col.device_part(m, 0), m[:, :1])
        np.testing.assert_array_equal(col.device_part(m, 1), m[:, 1:])


class TestErrorLayouts:
    def test_consumer_layouts(self):
        dims = (8, 4, 4)
        assert error_consumer_layout(LayerPartition(I, 0.5), *dims).kind == "row"
        assert error_consumer_layout(LayerPartition(II, 0.5), *dims).kind == "full"
        assert error_consumer_layout(LayerPartition(III, 0.5), *dims).kind == "col"

    def test_producer_layouts(self):
        dims = (8, 4, 4)
        assert error_producer_layout(LayerPartition(I, 0.5), *dims).kind == "row"
        assert error_producer_layout(LayerPartition(II, 0.5), *dims).kind == "col"
        assert error_producer_layout(LayerPartition(III, 0.5), *dims).kind == "full"

    def test_effective_alpha_tracks_integer_split(self):
        plan = LayerPartition(I, 0.3)
        assert effective_alpha(plan, 10, 4, 4) == pytest.approx(0.3)
        # with a tiny axis the snap is coarse
        assert effective_alpha(LayerPartition(I, 0.3), 3, 4, 4) == pytest.approx(1 / 3)


class TestCommLog:
    def test_record_accumulates(self):
        log = CommLog()
        log.record(log.intra, (0, "fc0"), 5, 7)
        log.record(log.intra, (0, "fc0"), 1, 2)
        assert log.intra[(0, "fc0")] == (6, 9)

    def test_total_elements(self):
        log = CommLog()
        log.record(log.intra, (0, "a"), 1, 2)
        log.record(log.inter_forward, "b", 3, 4)
        log.record(log.inter_backward, "c", 5, 6)
        assert log.total_elements() == 21


class TestOptimizerUpdateEvents:
    def test_sgd_event_amounts(self):
        sw = fc_workload()
        events = optimizer_update_events(sw, SGD)
        assert total_amount(events, EventKind.LOAD, quantized=False) == (
            2 * sw.a_weight()
        )
        assert total_amount(events, EventKind.STORE, quantized=False) == (
            sw.a_weight()
        )
        assert total_amount(events, EventKind.ADD, quantized=False) == (
            SGD.flops_per_weight * sw.a_weight()
        )

    def test_adam_touches_more_state(self):
        sw = fc_workload()
        sgd_loads = total_amount(optimizer_update_events(sw, SGD),
                                 EventKind.LOAD, quantized=False)
        adam_loads = total_amount(optimizer_update_events(sw, ADAM),
                                  EventKind.LOAD, quantized=False)
        assert adam_loads == sgd_loads + 2 * sw.a_weight()

    def test_update_events_have_no_network(self):
        sw = fc_workload()
        events = optimizer_update_events(sw, ADAM)
        assert total_amount(events, EventKind.NET_READ) == 0.0


class TestNetworkAccessors:
    def test_input_name_and_successors(self):
        from repro.graph import Input, Linear, Network

        net = Network("n", Input("in", channels=4))
        net.add(Linear("fc", 4, 2))
        assert net.input_name == "in"
        assert net.successors("in") == ["fc"]
        assert net.predecessors("fc") == ["in"]
