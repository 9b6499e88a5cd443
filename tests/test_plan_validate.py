"""Unit tests for plan-level structural validation (repro.plan.validate)."""

import pytest

from repro.core.planner import AccParPlanner
from repro.core.types import PartitionType
from repro.hardware import heterogeneous_array
from repro.models import build_model
from repro.plan.ir import (
    HierarchicalPlan,
    JoinAlignment,
    LayerAssignment,
    LevelPlan,
    PathExit,
)
from repro.plan.validate import collect_structure, validate_level, validate_plan

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


class TestCollectStructure:
    def test_linear_chain(self):
        layers, parallel = collect_structure(build_model("lenet").stages(8))
        assert "cv1" in layers and "fc3" in layers
        assert parallel == {}

    def test_multibranch_counts_paths(self):
        layers, parallel = collect_structure(build_model("resnet18").stages(8))
        assert parallel, "resnet18 must expose fork/join stages"
        assert all(n >= 2 for n in parallel.values())

    def test_fork_inside_path_is_found(self):
        from repro.graph.layers import LayerWorkload
        from repro.graph.network import LayerStage, ParallelStage

        def fc(name):
            w = LayerWorkload(name, 4, 4, 4, (1, 1), (1, 1), (1, 1), False)
            return LayerStage(w)

        inner = ParallelStage(paths=((fc("i1"),), ()), name="inner")
        outer = ParallelStage(paths=((fc("o1"), inner), ()), name="outer")
        layers, parallel = collect_structure([fc("pre"), outer])
        assert layers == {"pre", "o1", "i1"}
        assert parallel == {"inner": 2, "outer": 2}


class TestValidateLevel:
    LAYERS = {"a", "b"}
    PARALLEL = {"blk": 2}

    def test_clean_level(self):
        level = LevelPlan(entries=(
            LayerAssignment("a", I, 0.5),
            LayerAssignment("b", II, 0.5),
            PathExit("blk", 1, I, 0.5),
            JoinAlignment("blk", III, 0.5),
        ))
        assert validate_level(level, self.LAYERS, self.PARALLEL) == []

    def test_missing_layer_reported(self):
        level = LevelPlan(entries=(LayerAssignment("a", I, 0.5),))
        issues = validate_level(level, self.LAYERS, self.PARALLEL)
        assert any("without assignment" in m and "b" in m for m in issues)

    def test_unknown_layer_reported(self):
        level = LevelPlan(entries=(
            LayerAssignment("a", I, 0.5),
            LayerAssignment("b", I, 0.5),
            LayerAssignment("ghost", I, 0.5),
        ))
        issues = validate_level(level, self.LAYERS, self.PARALLEL)
        assert any("unknown layers" in m and "ghost" in m for m in issues)

    def test_out_of_range_alpha_reported(self):
        level = LevelPlan(entries=(
            LayerAssignment("a", I, 1.5),
            LayerAssignment("b", I, 0.5),
        ))
        issues = validate_level(level, self.LAYERS, self.PARALLEL)
        assert any("alpha 1.5" in m for m in issues)

    def test_unknown_join_stage_reported(self):
        level = LevelPlan(entries=(
            LayerAssignment("a", I, 0.5),
            LayerAssignment("b", I, 0.5),
            JoinAlignment("nowhere", I, 0.5),
        ))
        issues = validate_level(level, self.LAYERS, self.PARALLEL)
        assert any("unknown fork/join stage 'nowhere'" in m for m in issues)

    def test_exit_path_index_out_of_range(self):
        level = LevelPlan(entries=(
            LayerAssignment("a", I, 0.5),
            LayerAssignment("b", I, 0.5),
            PathExit("blk", 2, I, 0.5),
        ))
        issues = validate_level(level, self.LAYERS, self.PARALLEL)
        assert any("outside [0, 2)" in m for m in issues)


class TestValidatePlan:
    def test_planned_networks_validate_clean(self):
        for name in ("lenet", "resnet18"):
            network = build_model(name)
            planned = AccParPlanner(heterogeneous_array(2, 2)).plan(
                network, batch=32
            )
            assert validate_plan(planned.plan, network, batch=32) == []

    def test_issue_paths_name_the_subtree(self):
        network = build_model("lenet")
        planned = AccParPlanner(heterogeneous_array(2, 2)).plan(
            network, batch=32
        )
        # empty out the left child's level
        planned.plan.left.level_plan = LevelPlan()
        issues = validate_plan(planned.plan, network, batch=32)
        assert issues and all(m.startswith("rootL:") for m in issues)

    def test_leaf_only_plan_validates_empty(self):
        assert validate_plan(HierarchicalPlan(None), build_model("lenet")) == []
