"""Unit tests for hierarchical (recursive) planning over the pairing tree."""

from collections import Counter

import pytest

from repro.baselines import get_scheme
from repro.core.hierarchy import collect_level_plans, plan_tree
from repro.core.planner import PartitionScheme
from repro.core.stages import to_sharded_stages
from repro.core.types import PartitionType
from repro.plan.ir import LayerAssignment, LevelPlan
from repro.hardware import (AcceleratorGroup, AcceleratorSpec, bisection_tree,
                            heterogeneous_array, homogeneous_array,
                            max_hierarchy_levels)
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


class TestWalkMemoKey:
    """The walk memo merges only groups of equal specs, whatever their
    names."""

    FAST = AcceleratorSpec("tpu", 4e14, 16e9, 600e9, 8e9)
    SLOW = AcceleratorSpec("tpu", 1e12, 16e9, 600e9, 8e9)

    @pytest.mark.parametrize("model", ["alexnet", "vgg11", "resnet18"])
    @pytest.mark.parametrize("scheme", [
        get_scheme("owt"), get_scheme("dp"),
        get_scheme("accpar", ratio_mode="equal")])
    def test_same_named_groups_of_other_specs_are_not_merged(self, model,
                                                             scheme):
        array = AcceleratorGroup((self.FAST, self.FAST, self.SLOW, self.SLOW))
        tree = bisection_tree(array, levels=2)
        root = to_sharded_stages(build_model(model).stages(batch=64))
        plan = plan_tree(tree, root, scheme)
        assert plan.left is not plan.right
        for side, node in (("left", tree.left), ("right", tree.right)):
            direct = scheme.level_plan(root.shard(plan.level_plan, side),
                                       node.left.group, node.right.group, 2)
            assert getattr(plan, side).level_plan.cost == direct.cost, side

    @pytest.mark.parametrize("array, hits, misses", [
        (heterogeneous_array(), 12, 15),
        (homogeneous_array(), 6, 7),
    ])
    def test_preset_hit_counts_are_unchanged(self, array, hits, misses):
        tally = Counter()
        tree = bisection_tree(array, max_hierarchy_levels(array))
        root = to_sharded_stages(build_model("alexnet").stages(batch=64))
        plan_tree(tree, root, PartitionScheme(), 2, tally)
        assert (tally["hierarchy_memo_hits"],
                tally["hierarchy_memo_misses"]) == (hits, misses)

    def test_spec_runs(self):
        assert AcceleratorGroup((self.FAST, self.SLOW)).signature() == \
            AcceleratorGroup((self.SLOW, self.FAST)).signature()
        runs = AcceleratorGroup((self.FAST, self.FAST, self.SLOW)).spec_runs()
        assert runs == ((self.FAST.fingerprint(), 2),
                        (self.SLOW.fingerprint(), 1))
        # an equal spec built apart joins the run
        twin = AcceleratorSpec("tpu", 4e14, 16e9, 600e9, 8e9)
        assert AcceleratorGroup((self.FAST, twin)).spec_runs() == \
            ((self.FAST.fingerprint(), 2),)
