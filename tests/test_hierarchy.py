"""Unit tests for hierarchical (recursive) planning over the pairing tree."""

import pytest

from repro.baselines import get_scheme
from repro.core.hierarchy import collect_level_plans, plan_tree
from repro.core.planner import PartitionScheme
from repro.core.stages import to_sharded_stages
from repro.core.types import PartitionType
from repro.plan.ir import LayerAssignment, LevelPlan
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
        layer_names = set(stages.skeleton.names)
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


class TestTableKey:
    """The walk memo keys a sub-problem by its fraction table."""

    def test_key_stable(self, stages):
        assert stages.key() == stages.key()

    def test_key_changes_with_sharding(self, stages):
        level = LevelPlan([LayerAssignment(name, I, 0.5)
                           for name in stages.skeleton.names])
        left = stages.shard(level, "left")
        assert stages.key() != left.key()
        # an equal split gives both children one table, so one key
        assert left.key() == stages.shard(level, "right").key()

    def test_key_hashable(self, stages):
        hash((stages.key(),))
