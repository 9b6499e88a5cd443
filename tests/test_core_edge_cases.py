"""Core search/cost edge cases beyond the main unit suites."""

import pytest

from repro.core.cost_model import PairCostModel
from repro.core.dp_vectorized import search_stages
from repro.plan.ir import SearchResult
from repro.core.hierarchy import collect_level_plans, plan_tree
from repro.core.planner import PartitionScheme, Planner
from repro.core.stages import to_sharded_stages
from repro.core.types import ALL_TYPES, PartitionType
from repro.plan.ir import HierarchicalPlan, LayerAssignment, LevelPlan
from repro.baselines import get_scheme
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware import (
    TPU_V2,
    TPU_V3,
    bisection_tree,
    heterogeneous_array,
    homogeneous_array,
    make_group,
    merge_groups,
)
from repro.models import build_model

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def fc_stage(name, batch=16, d_in=32, d_out=32):
    w = LayerWorkload(name, batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)
    return LayerStage(w)


class TestBoundaryStepTaxonomy:
    """boundary_step's cost class for all nine (from, to) pairs."""

    @pytest.fixture
    def model(self):
        return PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))

    def test_free_transitions(self, model):
        for tt, t in [(I, I), (II, III), (III, II)]:
            assert model.boundary_step(1e6, tt, t) == 0.0

    def test_single_tensor_transitions(self, model):
        alpha = model.nominal_alpha()
        for tt, t in [(I, III), (III, III), (II, I), (II, II)]:
            cost = model.boundary_step(1e6, tt, t)
            expected_i = (1 - alpha) * 1e6 * 2 / model.b_i
            expected_j = alpha * 1e6 * 2 / model.b_j
            assert cost == pytest.approx(max(expected_i, expected_j))

    def test_cross_transitions(self, model):
        alpha = model.nominal_alpha()
        for tt, t in [(I, II), (III, I)]:
            cost = model.boundary_step(1e6, tt, t)
            amount = alpha * (1 - alpha) * 2e6 * 2
            assert cost == pytest.approx(
                max(amount / model.b_i, amount / model.b_j)
            )

    def test_explicit_alpha_override(self, model):
        a = model.boundary_step(1e6, I, III, alpha=0.9)
        b = model.boundary_step(1e6, I, III, alpha=0.1)
        assert a != b


class TestSearchDegeneracies:
    def test_singleton_space(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1))
        result = search_stages(to_sharded_stages([fc_stage("a"), fc_stage("b")]),
                               model, space=(II,))
        assert set(result.types().values()) == {II}

    def test_identical_layers_get_identical_types(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1))
        stages = to_sharded_stages([fc_stage(f"l{i}") for i in range(6)])
        result = search_stages(stages, model)
        # all-but-first layers see identical step costs; the plan should not
        # oscillate through costly transitions
        types = list(result.types().values())
        transitions = set(zip(types, types[1:]))
        from repro.core.cost_model import ZERO_TRANSITIONS

        assert transitions <= set(ZERO_TRANSITIONS) | {
            (t, t) for t in ALL_TYPES
        }

    def test_search_result_types_view(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1))
        result = search_stages(to_sharded_stages([fc_stage("x")]), model)
        assert isinstance(result, SearchResult)
        assert set(result.types()) == {"x"}


class TestHierarchyEdgeCases:
    def test_three_way_heterogeneous_array(self):
        """Three accelerator generations bisect into clean type groups."""
        gen_a = TPU_V2
        gen_b = TPU_V3
        from repro.hardware import AcceleratorSpec

        gen_c = AcceleratorSpec("gen-c", flops=800e12, memory_bytes=2**37,
                                memory_bandwidth=8e12, network_bandwidth=4e9)
        array = merge_groups(
            make_group(gen_a, 4), make_group(gen_b, 4), make_group(gen_c, 8)
        )
        tree = bisection_tree(array, levels=4)
        # the first split must put the fastest generation on one side alone
        left_names = {m.name for m in tree.left.group.members}
        right_names = {m.name for m in tree.right.group.members}
        assert left_names == {"gen-c"} or right_names == {"gen-c"}

    def test_plan_tree_on_unbalanced_tree(self):
        """Odd-sized arrays produce unbalanced pairing trees; planning and
        evaluation must still work."""
        from repro.sim.executor import evaluate

        array = homogeneous_array(6)
        planned = Planner(array, get_scheme("accpar")).plan(
            build_model("lenet"), batch=32
        )
        report = evaluate(planned)
        assert report.total_time > 0.0

    def test_level_plans_collected_in_preorder(self):
        tree = bisection_tree(homogeneous_array(4), levels=2)
        stages = to_sharded_stages(build_model("lenet").stages(16))
        plan = plan_tree(tree, stages, PartitionScheme())
        plans = collect_level_plans(plan)
        assert len(plans) == 3
        assert plans[0] is plan.level_plan

    def test_hierarchical_plan_depth_of_leaf(self):
        leaf = HierarchicalPlan(level_plan=None)
        assert leaf.depth() == 0
        assert leaf.is_leaf

    def test_level_plan_partition_accessor(self):
        level = LevelPlan(entries=(LayerAssignment("a", I, 0.5),))
        assert level.partition("a").ptype is I
        with pytest.raises(KeyError):
            level.partition("ghost")


class TestPlannerCornerCases:
    def test_zero_level_plan_on_multiboard_array(self):
        planned = Planner(homogeneous_array(4), get_scheme("accpar"),
                          levels=0).plan(build_model("lenet"), 16)
        assert planned.hierarchy_levels() == 0
        assert planned.plan.is_leaf

    def test_network_without_weighted_layers(self):
        from repro.graph import Input, Network, ReLU

        net = Network("empty", Input("in", channels=4, height=2, width=2))
        net.add(ReLU("r"))
        planned = Planner(homogeneous_array(2), get_scheme("accpar")).plan(
            net, batch=4
        )
        assert planned.root_level_plan.layer_assignments() == {}

    def test_levels_deeper_than_array_saturate(self):
        planned = Planner(homogeneous_array(4), get_scheme("dp"),
                          levels=10).plan(build_model("lenet"), 16)
        assert planned.hierarchy_levels() == 2
