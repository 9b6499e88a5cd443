"""End-to-end: plans from the real planner execute numerically, exactly.

The final link of the reproduction: AccParPlanner (cost model + Eq. 9 DP +
Eq. 10 ratios, heterogeneous pairing tree) produces a plan; the numeric
executor runs that exact plan — asymmetric per-node types and real-valued
ratios included — with real matrices, and the result matches single-device
training to float64 precision.
"""

import numpy as np
import pytest

from repro.baselines import get_scheme
from repro.cli import parse_array
from repro.core.planner import Planner
from repro.core.quantize import quantize_plan
from repro.graph import Conv2d, Input, Network, ReLU
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.models.synthetic import mlp_network
from repro.numeric.conv_reference import (
    CnnSpec,
    ConvLayerSpec,
    conv_reference_step,
)
from repro.numeric.executor import PartitionedExecutor
from repro.numeric.reference import MlpSpec, reference_step


WIDTHS = [32, 48, 32, 16]
BATCH = 32


def plan_and_execute(scheme="accpar", array=None, widths=WIDTHS, batch=BATCH,
                     seed=0):
    array = array if array is not None else heterogeneous_array(2, 2)
    network = mlp_network(widths)
    planned = Planner(array, get_scheme(scheme)).plan(network, batch)

    spec = MlpSpec(widths)
    weights = spec.init_weights(seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, widths[0]))
    target = rng.standard_normal((batch, widths[-1]))

    executor = PartitionedExecutor(spec, weights, planned.plan, batch)
    hier = executor.step(x, target)
    ref = reference_step(weights, x, target)
    return planned, ref, hier


def max_divergence(ref, hier):
    grad = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(ref.gradients, hier.gradients)
    )
    return max(grad, abs(ref.loss - hier.loss))


class TestPlannerPlansExecute:
    @pytest.mark.parametrize("scheme", ["dp", "owt", "hypar", "accpar"])
    def test_heterogeneous_plans_exact(self, scheme):
        planned, ref, hier = plan_and_execute(scheme=scheme)
        assert planned.hierarchy_levels() == 2
        assert hier.n_leaf_devices == 4
        assert max_divergence(ref, hier) < 1e-9

    def test_asymmetric_ratios_from_eq10(self):
        """The heterogeneous AccPar plan carries non-half ratios; execution
        must still be exact (integer snapping happens inside the split)."""
        planned, ref, hier = plan_and_execute(scheme="accpar")
        ratios = {
            lp.ratio
            for lp in planned.root_level_plan.layer_assignments().values()
        }
        assert any(abs(r - 0.5) > 0.01 for r in ratios)
        assert max_divergence(ref, hier) < 1e-9

    def test_deeper_homogeneous_tree(self):
        planned, ref, hier = plan_and_execute(
            scheme="accpar", array=homogeneous_array(8),
            widths=[64, 64, 64], batch=64,
        )
        assert hier.n_leaf_devices == 8
        assert max_divergence(ref, hier) < 1e-9

    def test_quantized_plan_executes_too(self):
        array = heterogeneous_array(2, 2)
        network = mlp_network(WIDTHS)
        planned = Planner(array, get_scheme("accpar")).plan(network, BATCH)
        quantized, _ = quantize_plan(planned)

        spec = MlpSpec(WIDTHS)
        weights = spec.init_weights(0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((BATCH, WIDTHS[0]))
        target = rng.standard_normal((BATCH, WIDTHS[-1]))
        hier = PartitionedExecutor(spec, weights, quantized.plan, BATCH).step(
            x, target
        )
        ref = reference_step(weights, x, target)
        assert max_divergence(ref, hier) < 1e-9

    def test_dp_plan_comm_matches_level_accounting(self):
        """Under the planner's DP plan, every level's psum traffic equals
        the expected node-count x 2 x A(W) pattern."""
        planned, _, hier = plan_and_execute(scheme="dp")
        weights_elements = sum(
            WIDTHS[k] * WIDTHS[k + 1] for k in range(len(WIDTHS) - 1)
        )
        totals = hier.comm.per_level_totals()
        assert totals[0] == 2 * weights_elements
        assert totals[1] == 4 * weights_elements

    def test_missing_assignment_rejected(self):
        planned, _, _ = plan_and_execute()
        spec = MlpSpec(WIDTHS)
        with pytest.raises(ValueError, match="layer_names must cover"):
            PartitionedExecutor(spec, spec.init_weights(), planned.plan,
                                BATCH, layer_names=["fc0"])

    def test_wrong_layer_names_rejected(self):
        planned, _, _ = plan_and_execute()
        spec = MlpSpec(WIDTHS)
        with pytest.raises(ValueError, match="misses assignments"):
            PartitionedExecutor(spec, spec.init_weights(), planned.plan,
                                BATCH, layer_names=["a", "b", "c"])


class TestUnbalancedTrees:
    @pytest.mark.parametrize("array,boards", [("tpu-v3:3", 3),
                                              ("tpu-v2:2,tpu-v3:3", 5)])
    def test_leaf_count_is_the_board_count(self, array, boards):
        """An odd board count bisects into an unbalanced pairing tree; the
        executor must count its leaves, not assume 2^depth."""
        planned, ref, hier = plan_and_execute(array=parse_array(array))
        assert planned.plan.depth() > 1
        assert boards < 2 ** planned.plan.depth()
        assert hier.n_leaf_devices == boards
        assert max_divergence(ref, hier) < 1e-9


def cnn_network(spec: CnnSpec) -> Network:
    """The planner's view of a CONV-only spec (layers ``cv0 .. cv{n-1}``)."""
    net = Network("cnn", Input("input", channels=spec.in_channels,
                               height=spec.height, width=spec.width))
    for k, layer in enumerate(spec.layers):
        net.add(Conv2d(f"cv{k}", layer.in_channels, layer.out_channels,
                       layer.kernel, layer.stride, layer.padding))
        if k < spec.n_layers - 1:
            net.add(ReLU(f"relu{k}"))
    return net


def plan_types(node, found=None):
    found = set() if found is None else found
    if node.level_plan is not None:
        found.update(a.ptype for a in node.level_plan.layers())
        plan_types(node.left, found)
        plan_types(node.right, found)
    return found


class TestPlannerCnnPlans:
    # wide channels on a tiny feature map make model parallelism pay off,
    # so the planner mixes types instead of choosing all Type-I
    SPEC = CnnSpec(64, 3, 3, [ConvLayerSpec(64, 128, kernel=3, padding=1),
                              ConvLayerSpec(128, 96, kernel=3, padding=1),
                              ConvLayerSpec(96, 64, kernel=1)])
    BATCH = 2

    @pytest.mark.parametrize("array,boards", [("tpu-v2:2,tpu-v3:2", 4),
                                              ("tpu-v2:1,tpu-v3:2", 3)])
    def test_planner_cnn_plan_exact(self, array, boards):
        spec, batch = self.SPEC, self.BATCH
        planned = Planner(parse_array(array), get_scheme("accpar")).plan(
            cnn_network(spec), batch
        )
        assert len(plan_types(planned.plan)) >= 2

        weights = spec.init_weights(0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((batch, spec.in_channels, spec.height,
                                 spec.width))
        target = rng.standard_normal((batch, *spec.geometries()[-1]))
        hier = PartitionedExecutor(spec, weights, planned.plan, batch).step(
            x, target
        )
        ref = conv_reference_step(spec, weights, x, target)
        assert hier.n_leaf_devices == boards
        assert max_divergence(ref, hier) < 1e-9


class TestMlpNetworkBridge:
    def test_layer_names_match_default(self):
        net = mlp_network([8, 4, 2])
        names = [w.name for w in net.workloads(2)]
        assert names == ["fc0", "fc1"]

    def test_validates(self):
        from repro.graph import validate_network

        assert validate_network(mlp_network([8, 4, 2])) == []
