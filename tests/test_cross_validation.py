"""Cross-layer consistency: the analytic cost model vs the numeric executor.

The planner prices communication with closed forms (Tables 4/5 via
``ShardedWorkload`` and ``inter_layer_elements``); the numeric executor
*counts* transferred elements while actually training.  These tests tie the
two together on identical workloads: the closed forms must equal the
counted elements exactly, layer by layer and boundary by boundary.
"""

import itertools

import numpy as np
import pytest

from repro.core.cost_model import inter_layer_elements
from repro.core.types import ALL_TYPES, PartitionType, ShardedWorkload
from repro.graph.layers import LayerWorkload
from repro.numeric import (
    MlpSpec,
    PartitionedExecutor,
    expected_intra_elements,
)
from repro.plan import LayerPartition

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III

WIDTHS = [16, 12, 8, 20]
BATCH = 8
SPEC = MlpSpec(WIDTHS)


def analytic_workloads():
    """The spec's layers expressed as the planner's ShardedWorkloads."""
    return [
        ShardedWorkload(
            LayerWorkload(f"layer{k}", BATCH, WIDTHS[k], WIDTHS[k + 1],
                          (1, 1), (1, 1), (1, 1), False)
        )
        for k in range(SPEC.n_layers)
    ]


def run_numeric(plan):
    rng = np.random.default_rng(0)
    weights = SPEC.init_weights(0)
    x = rng.standard_normal((BATCH, WIDTHS[0]))
    target = rng.standard_normal((BATCH, WIDTHS[-1]))
    return PartitionedExecutor(SPEC, weights, [plan], BATCH).step(x, target)


class TestIntraConsistency:
    @pytest.mark.parametrize("ptype", ALL_TYPES)
    def test_psum_closed_form_equals_counted(self, ptype):
        """a_psum(t) (the planner's Table 4 quantity) equals what the
        executor actually moved for every layer."""
        plan = [LayerPartition(ptype, 0.5) for _ in range(SPEC.n_layers)]
        trace = run_numeric(plan)
        for k, sw in enumerate(analytic_workloads()):
            if ptype is III and k == 0:
                continue  # first layer's backward psum never runs
            counted_i, counted_j = trace.comm.intra[(0, f"fc{k}")]
            assert counted_i == sw.a_psum(ptype)
            assert counted_j == sw.a_psum(ptype)

    def test_expected_helper_agrees_with_planner_quantities(self):
        """numeric.validate's hand-derived expectations equal a_psum too."""
        for ptype in ALL_TYPES:
            plan = [LayerPartition(ptype, 0.5) for _ in range(SPEC.n_layers)]
            expected = expected_intra_elements(SPEC, plan, BATCH)
            for k, sw in enumerate(analytic_workloads()):
                if ptype is III and k == 0:
                    continue
                assert expected[f"layer{k}"] == (
                    sw.a_psum(ptype), sw.a_psum(ptype)
                )


class TestInterConsistency:
    @pytest.mark.parametrize(
        "tt,t", list(itertools.product(ALL_TYPES, repeat=2))
    )
    def test_boundary_closed_form_equals_counted(self, tt, t):
        """Table 5's closed form equals the executor's counted re-sharding
        traffic at the layer0/layer1 boundary, per device, F+E combined."""
        plan = [LayerPartition(tt, 0.5)] + [
            LayerPartition(t, 0.5) for _ in range(SPEC.n_layers - 1)
        ]
        trace = run_numeric(plan)
        boundary_elements = float(BATCH * WIDTHS[1])
        expect_i, expect_j = inter_layer_elements(boundary_elements, tt, t, 0.5)
        fwd = trace.comm.inter_forward.get("boundary1", (0, 0))
        bwd = trace.comm.inter_backward.get("boundary1", (0, 0))
        assert fwd[0] + bwd[0] == pytest.approx(expect_i)
        assert fwd[1] + bwd[1] == pytest.approx(expect_j)

    def test_asymmetric_ratio_consistency(self):
        """Same check at alpha=0.25 on an exactly divisible axis."""
        tt, t = I, III
        plan = [LayerPartition(tt, 0.25)] + [
            LayerPartition(t, 0.25) for _ in range(SPEC.n_layers - 1)
        ]
        trace = run_numeric(plan)
        boundary_elements = float(BATCH * WIDTHS[1])
        expect_i, expect_j = inter_layer_elements(boundary_elements, tt, t, 0.25)
        fwd = trace.comm.inter_forward.get("boundary1", (0, 0))
        bwd = trace.comm.inter_backward.get("boundary1", (0, 0))
        assert fwd[0] + bwd[0] == pytest.approx(expect_i)
        assert fwd[1] + bwd[1] == pytest.approx(expect_j)


class TestFlopConsistency:
    def test_table6_flops_match_reference_mat_muls(self):
        """The cost model's FLOP counts equal the actual multiply/add counts
        of the reference implementation's mat-muls (2K-1 per output)."""
        for k, sw in enumerate(analytic_workloads()):
            b, d_in, d_out = BATCH, WIDTHS[k], WIDTHS[k + 1]
            assert sw.flops_forward() == (b * d_out) * (2 * d_in - 1)
            assert sw.flops_backward() == (b * d_in) * (2 * d_out - 1)
            assert sw.flops_gradient() == (d_in * d_out) * (2 * b - 1)
