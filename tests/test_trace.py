"""Unit tests for trace generation and quantization."""

import pytest

from repro.core.types import PartitionType, Phase, ShardedWorkload
from repro.graph.layers import LayerWorkload
from repro.sim.trace import (
    EventKind,
    TraceEvent,
    granule_of,
    layer_events,
    layer_phase_events,
    psum_exchange_events,
    total_amount,
)

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def fc_sw(batch=8, d_in=6, d_out=4):
    return ShardedWorkload(
        LayerWorkload("fc", batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)
    )


def conv_sw():
    return ShardedWorkload(
        LayerWorkload("cv", 2, 3, 5, (8, 8), (8, 8), (3, 3), True)
    )


class TestTraceEvent:
    def test_quantization_rounds_up(self):
        e = TraceEvent(EventKind.LOAD, "l", Phase.FORWARD, 10.0, granule=9)
        assert e.quantized_amount() == 18.0

    def test_granule_one_is_identity(self):
        e = TraceEvent(EventKind.LOAD, "l", Phase.FORWARD, 10.5, granule=1)
        assert e.quantized_amount() == 10.5

    def test_exact_multiple_unchanged(self):
        e = TraceEvent(EventKind.LOAD, "l", Phase.FORWARD, 18.0, granule=9)
        assert e.quantized_amount() == 18.0

    def test_negative_amount_raises(self):
        with pytest.raises(ValueError):
            TraceEvent(EventKind.LOAD, "l", Phase.FORWARD, -1.0)

    def test_bad_granule_raises(self):
        with pytest.raises(ValueError):
            TraceEvent(EventKind.LOAD, "l", Phase.FORWARD, 1.0, granule=0)


class TestGranularity:
    def test_fc_is_element_wise(self):
        assert granule_of(fc_sw()) == 1

    def test_conv_is_kernel_wise(self):
        assert granule_of(conv_sw()) == 9


class TestPhaseEvents:
    def test_forward_tensor_roles(self):
        sw = fc_sw()
        events = layer_phase_events(sw, Phase.FORWARD)
        loads = total_amount(events, EventKind.LOAD, quantized=False)
        stores = total_amount(events, EventKind.STORE, quantized=False)
        assert loads == sw.a_input_fm() + sw.a_weight()
        assert stores == sw.a_output_fm()

    def test_backward_reads_three_tensors(self):
        sw = fc_sw()
        events = layer_phase_events(sw, Phase.BACKWARD)
        loads = total_amount(events, EventKind.LOAD, quantized=False)
        assert loads == sw.a_output_fm() + sw.a_weight() + sw.a_input_fm()

    def test_gradient_writes_weight(self):
        sw = fc_sw()
        events = layer_phase_events(sw, Phase.GRADIENT)
        stores = total_amount(events, EventKind.STORE, quantized=False)
        assert stores == sw.a_weight()

    def test_flops_match_table6(self):
        sw = fc_sw()
        for phase in Phase:
            events = layer_phase_events(sw, phase)
            flops = (
                total_amount(events, EventKind.MULT, quantized=False)
                + total_amount(events, EventKind.ADD, quantized=False)
            )
            assert flops == pytest.approx(sw.flops_phase(phase))

    def test_mults_one_more_than_adds(self):
        # a 2K-1 reduction is K mults and K-1 adds
        sw = fc_sw()
        events = layer_phase_events(sw, Phase.FORWARD)
        mults = total_amount(events, EventKind.MULT, quantized=False)
        adds = total_amount(events, EventKind.ADD, quantized=False)
        assert mults > adds

    def test_layer_events_cover_three_phases(self):
        events = layer_events(fc_sw())
        phases = {e.phase for e in events}
        assert phases == set(Phase)


class TestPsumEvents:
    @pytest.mark.parametrize(
        "ptype,phase",
        [(I, Phase.GRADIENT), (II, Phase.FORWARD), (III, Phase.BACKWARD)],
    )
    def test_exchange_in_correct_phase(self, ptype, phase):
        events = psum_exchange_events(fc_sw(), ptype)
        assert all(e.phase is phase for e in events)

    def test_exchange_amount_is_psum_size(self):
        sw = fc_sw()
        events = psum_exchange_events(sw, I)
        net = total_amount(events, EventKind.NET_READ, quantized=False)
        adds = total_amount(events, EventKind.ADD, quantized=False)
        assert net == sw.a_psum(I)
        assert adds == sw.a_psum(I)

    def test_conv_exchange_quantized_to_kernel(self):
        sw = ShardedWorkload(conv_sw().base, batch_frac=0.3)
        events = psum_exchange_events(sw, I)
        for e in events:
            assert e.quantized_amount() % 9 == 0
