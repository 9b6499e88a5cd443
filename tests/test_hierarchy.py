"""Unit tests for hierarchical (recursive) planning over the pairing tree."""

import pytest

from repro.baselines import get_scheme
from repro.core.hierarchy import collect_level_plans, plan_tree, stages_key
from repro.core.planner import PartitionScheme
from repro.core.stages import iter_sharded_workloads, to_sharded_stages
from repro.core.types import PartitionType
from repro.hardware import bisection_tree, heterogeneous_array, homogeneous_array
from repro.models import build_model

I = PartitionType.TYPE_I


@pytest.fixture
def stages():
    return to_sharded_stages(build_model("lenet").stages(batch=64))


class TestPlanTree:
    def test_leaf_plan_is_empty(self, stages):
        tree = bisection_tree(homogeneous_array(1), levels=0)
        plan = plan_tree(tree, stages, PartitionScheme())
        assert plan.is_leaf
        assert plan.depth() == 0

    def test_depth_matches_tree(self, stages):
        tree = bisection_tree(homogeneous_array(8), levels=3)
        plan = plan_tree(tree, stages, PartitionScheme())
        assert plan.depth() == 3

    def test_every_internal_node_planned(self, stages):
        tree = bisection_tree(homogeneous_array(8), levels=3)
        plan = plan_tree(tree, stages, PartitionScheme())
        level_plans = collect_level_plans(plan)
        assert len(level_plans) == 7  # 4 + 2 + 1 internal nodes

    def test_all_layers_assigned_at_each_level(self, stages):
        tree = bisection_tree(homogeneous_array(4), levels=2)
        plan = plan_tree(tree, stages, PartitionScheme())
        layer_names = {sw.name for sw in iter_sharded_workloads(stages)}
        for level in collect_level_plans(plan):
            assert layer_names <= set(level.assignments)

    def test_symmetric_subtrees_share_plans(self, stages):
        """Homogeneous equal splits produce identical child sub-problems;
        the memo must return the same object for both."""
        tree = bisection_tree(homogeneous_array(8), levels=3)
        plan = plan_tree(tree, stages, PartitionScheme())
        assert plan.left is plan.right

    def test_heterogeneous_children_differ(self, stages):
        tree = bisection_tree(heterogeneous_array(2, 2), levels=2)
        plan = plan_tree(tree, stages, PartitionScheme())
        # the v3 side and v2 side get different sub-problems (different
        # groups), so the child plans are distinct objects
        assert plan.left is not plan.right

    def test_dp_scheme_assigns_type_i_half(self, stages):
        tree = bisection_tree(heterogeneous_array(2, 2), levels=1)
        plan = plan_tree(tree, stages, get_scheme("dp"))
        level = plan.level_plan
        for lp in level.layer_assignments().values():
            assert lp.ptype is I
            assert lp.ratio == 0.5

    def test_accpar_heterogeneous_root_ratio_above_half(self, stages):
        """The v3 group (left) should take the larger share at the v2/v3
        split for compute-heavy layers."""
        tree = bisection_tree(heterogeneous_array(4, 4), levels=1)
        plan = plan_tree(tree, stages, PartitionScheme())
        ratios = [lp.ratio for lp in plan.level_plan.layer_assignments().values()]
        assert max(ratios) > 0.5


class TestStagesKey:
    def test_key_stable(self, stages):
        assert stages_key(stages) == stages_key(stages)

    def test_key_changes_with_sharding(self, stages):
        from repro.core.stages import shard_stages
        from repro.plan.ir import LayerPartition

        assignments = {
            sw.name: LayerPartition(I, 0.5)
            for sw in iter_sharded_workloads(stages)
        }
        left = shard_stages(stages, assignments, "left")
        assert stages_key(stages) != stages_key(left)

    def test_key_hashable(self, stages):
        hash(stages_key(stages))
