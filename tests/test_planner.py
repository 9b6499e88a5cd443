"""Unit tests for the public planner API."""

import pytest

from repro.baselines import get_scheme
from repro.core.planner import AccParPlanner, PartitionScheme, Planner
from repro.core.types import PartitionType
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.models import build_model

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


class TestAccParPlanner:
    def test_plan_depth_defaults_to_full_bisection(self):
        planner = AccParPlanner(homogeneous_array(8))
        planned = planner.plan(build_model("lenet"), batch=64)
        assert planned.hierarchy_levels() == 3

    def test_explicit_levels(self):
        planner = AccParPlanner(homogeneous_array(8), levels=2)
        planned = planner.plan(build_model("lenet"), batch=64)
        assert planned.hierarchy_levels() == 2

    def test_root_level_plan_covers_all_layers(self):
        planner = AccParPlanner(homogeneous_array(4))
        planned = planner.plan(build_model("alexnet"), batch=64)
        names = set(planned.root_level_plan.layer_assignments())
        expected = {w.name for w in build_model("alexnet").workloads(64)}
        assert names == expected

    def test_layer_types_by_level_shape(self):
        planner = AccParPlanner(homogeneous_array(16))
        planned = planner.plan(build_model("alexnet"), batch=64)
        per_level = planned.layer_types_by_level()
        assert len(per_level) == 4
        for level in per_level:
            assert len(level) >= 8  # 8 real layers (plus no join keys)

    def test_single_accelerator_has_no_level_plan(self):
        planner = AccParPlanner(homogeneous_array(1))
        planned = planner.plan(build_model("lenet"), batch=8)
        assert planned.plan.is_leaf
        with pytest.raises(ValueError):
            planned.root_level_plan

    def test_scheme_name_propagates(self):
        planner = AccParPlanner(homogeneous_array(2))
        planned = planner.plan(build_model("lenet"), batch=8)
        assert planned.scheme == "accpar"

    def test_fc_layers_prefer_model_partitioning(self):
        """Figure 7's core observation: AlexNet FC layers get Type-II/III."""
        planner = AccParPlanner(homogeneous_array(128), levels=7)
        planned = planner.plan(build_model("alexnet"), batch=128)
        types = planned.layer_types_by_level()[0]
        assert types["fc1"] in (II, III)
        assert types["fc2"] in (II, III)

    def test_early_conv_layers_prefer_data_partitioning(self):
        planner = AccParPlanner(homogeneous_array(128), levels=7)
        planned = planner.plan(build_model("alexnet"), batch=128)
        types = planned.layer_types_by_level()[0]
        assert types["cv1"] is I


class TestGenericPlanner:
    @pytest.mark.parametrize("scheme_name", ["dp", "owt", "hypar", "accpar"])
    def test_all_schemes_plan_resnet(self, scheme_name):
        planner = Planner(heterogeneous_array(2, 2), get_scheme(scheme_name))
        planned = planner.plan(build_model("resnet18"), batch=32)
        assert planned.hierarchy_levels() == 2
        assert planned.scheme == scheme_name

    def test_ablation_scheme_restricted_space(self):
        scheme = PartitionScheme(space=(I, II), name="accpar-2type")
        planner = Planner(homogeneous_array(4), scheme)
        planned = planner.plan(build_model("alexnet"), batch=32)
        for level in planned.level_plans():
            for lp in level.layer_assignments().values():
                assert lp.ptype in (I, II)


class TestSubtreeReporting:
    """Figure-7 reporting under asymmetric sibling subtrees (heterogeneous
    arrays with the default type-separated split policy)."""

    @pytest.fixture(scope="class")
    def hetero_planned(self):
        return AccParPlanner(heterogeneous_array(4, 4)).plan(
            build_model("alexnet"), batch=128
        )

    @pytest.fixture(scope="class")
    def homo_planned(self):
        return AccParPlanner(homogeneous_array(8)).plan(
            build_model("alexnet"), batch=128
        )

    def test_homogeneous_subtrees_are_symmetric(self, homo_planned):
        assert homo_planned.subtrees_symmetric()

    def test_homogeneous_strict_mode_succeeds(self, homo_planned):
        per_level = homo_planned.layer_types_by_level(strict=True)
        assert len(per_level) == homo_planned.hierarchy_levels()

    def test_heterogeneous_subtrees_differ(self, hetero_planned):
        """Type-separated bisection of a heterogeneous array puts different
        sub-arrays under each root child; their plans legitimately differ."""
        assert not hetero_planned.subtrees_symmetric()

    def test_heterogeneous_strict_mode_raises(self, hetero_planned):
        with pytest.raises(ValueError, match="layer_types_by_subtree"):
            hetero_planned.layer_types_by_level(strict=True)

    def test_default_mode_keeps_leftmost_spine(self, hetero_planned):
        """Non-strict reporting still works (documented asymmetry)."""
        per_level = hetero_planned.layer_types_by_level()
        assert len(per_level) == hetero_planned.hierarchy_levels()

    def test_by_subtree_reports_every_internal_node(self, hetero_planned):
        by_subtree = hetero_planned.layer_types_by_subtree()
        assert "root" in by_subtree
        assert "rootL" in by_subtree and "rootR" in by_subtree
        # the siblings that break symmetry are visible side by side
        assert any(
            by_subtree["rootL"].get(name) is not by_subtree["rootR"].get(name)
            for name in by_subtree["rootL"]
        )

    def test_by_subtree_matches_spine_on_symmetric_plans(self, homo_planned):
        by_subtree = homo_planned.layer_types_by_subtree()
        per_level = homo_planned.layer_types_by_level()
        spine = "root"
        for level_types in per_level:
            assert by_subtree[spine] == level_types
            spine += "L"
