"""Unit tests for multi-path (fork/join) search — Section 5.2, Figure 4.

The macro-transition tables come from the scalar reference recurrence
(``tests/reference_search.py``), which the DP matches bit for bit
(``tests/test_dp_vectorized.py``); the end-to-end tests run the DP itself.
"""

import pytest

from repro.core.cost_model import PairCostModel
from repro.core.dp_vectorized import search_stages
from repro.core.stages import to_sharded_stages
from repro.core.types import ALL_TYPES, PartitionType
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage, ParallelStage
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.plan.ir import LayerAssignment, LevelPlan
from tests.reference_search import chain_exits, pack_feed, parallel_transitions

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def fc_stage(name, batch=16, d_in=32, d_out=32):
    w = LayerWorkload(name, batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)
    return LayerStage(w)


def residual_region(with_skip_layer=False):
    """A Figure 4-style region: P1 = one layer (or empty), P2 = two layers."""
    p2 = (fc_stage("p2a"), fc_stage("p2b"))
    p1 = (fc_stage("p1a"),) if with_skip_layer else ()
    return ParallelStage(paths=(p2, p1), name="block")


def as_level(info_or_result):
    """View a Transition or SearchResult's entries through LevelPlan."""
    return LevelPlan(entries=tuple(info_or_result.entries))


def search(stages, model, **kwargs):
    """The DP over a stage list's table."""
    return search_stages(to_sharded_stages(stages), model, **kwargs)


def parallel_stage_transitions(stage, model, space, in_states):
    """The reference macro-transition table, fed from the model's pack."""
    table = to_sharded_stages([stage])
    (fork,) = table.skeleton.stages
    return parallel_transitions(fork, table.workloads(), model,
                                pack_feed(model, table), space, in_states)


@pytest.fixture
def model():
    return PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                         ratio_mode="balanced")


class TestAlignmentCost:
    def test_same_state_is_free(self, model):
        for t in ALL_TYPES:
            assert model.alignment_cost(1000.0, t, t) == 0.0

    def test_free_entry_is_free(self, model):
        assert model.alignment_cost(1000.0, None, I) == 0.0

    def test_zero_transitions_free(self, model):
        assert model.alignment_cost(1000.0, II, III) == 0.0

    def test_costly_transition_positive(self, model):
        assert model.alignment_cost(1000.0, I, III) > 0.0


class TestParallelTransitions:
    def test_all_state_pairs_present(self, model):
        stage = residual_region()
        transitions = parallel_stage_transitions(stage, model, ALL_TYPES, [I, II])
        assert set(transitions) == {(tt, s) for tt in (I, II) for s in ALL_TYPES}

    def test_join_state_recorded(self, model):
        stage = residual_region()
        transitions = parallel_stage_transitions(stage, model, ALL_TYPES, [I])
        for (tt, s), info in transitions.items():
            join = as_level(info).alignment_for("block")
            assert join is not None and join.state is s

    def test_path_layers_assigned(self, model):
        stage = residual_region(with_skip_layer=True)
        transitions = parallel_stage_transitions(stage, model, ALL_TYPES, [I])
        for info in transitions.values():
            names = {e.name for e in info.entries
                     if isinstance(e, LayerAssignment)}
            assert {"p1a", "p2a", "p2b"} <= names

    def test_cost_sums_paths(self, model):
        """A two-path region must cost at least each path alone."""
        region = residual_region(with_skip_layer=True)
        transitions = parallel_stage_transitions(region, model, ALL_TYPES, [I])
        path = to_sharded_stages([fc_stage("p2a"), fc_stage("p2b")])
        exits = chain_exits(path.skeleton.stages, path.workloads(), model,
                            pack_feed(model, path), ALL_TYPES, {I: 0.0})
        single = min(info.cost for info in exits.values())
        best_region = min(info.cost for info in transitions.values())
        assert best_region >= single - 1e-12

    def test_all_empty_paths_raise(self, model):
        stage = ParallelStage(paths=((), ()), name="empty")
        with pytest.raises(ValueError):
            parallel_stage_transitions(stage, model, ALL_TYPES, [I])


class TestPathExitRecording:
    """The macro-transition must record each path's pre-alignment exit state
    so the simulator replays the re-alignments the search actually costed."""

    def test_two_path_block_records_both_exits(self, model):
        stage = residual_region()  # path 0: two layers; path 1: identity skip
        transitions = parallel_stage_transitions(stage, model, ALL_TYPES, [I, II])
        for (tt, s), info in transitions.items():
            level = as_level(info)
            # the weighted path exits in whatever state its last layer chose
            exit0 = level.path_exit("block", 0)
            assert exit0.state is level.assignment("p2b").ptype, (tt, s)
            # the skip path carries the fork tensor through unchanged, so its
            # exit state is the region's entry state
            exit1 = level.path_exit("block", 1)
            assert exit1.state is tt, (tt, s)
            # and the join alignment is the macro-transition's exit state
            assert level.alignment_for("block").state is s, (tt, s)

    def test_free_entry_skip_path_records_no_exit(self, model):
        """At the network entry (tt=None) a skip path has nothing to
        re-align, so no synthetic exit entry is recorded for it."""
        stage = residual_region()
        transitions = parallel_stage_transitions(stage, model, ALL_TYPES, [None])
        for info in transitions.values():
            level = as_level(info)
            assert level.path_exit("block", 0) is not None
            assert level.path_exit("block", 1) is None

    def test_resnet_block_search_exposes_exit_states(self, model):
        """End-to-end regression on a two-path ResNet-style block: the final
        plan must carry consistent path-exit entries for the chosen DP path."""
        stages = [fc_stage("pre"), residual_region(), fc_stage("post")]
        level = search(stages, model).to_level_plan("test")
        exit0 = level.path_exit("block", 0)
        exit1 = level.path_exit("block", 1)
        join = level.alignment_for("block")
        # path 0's exit is its last layer's chosen type
        assert exit0.state is level.assignment("p2b").ptype
        # the skip path exits in the state 'pre' fed the fork with
        assert exit1.state is level.assignment("pre").ptype
        # every synthetic state is one of the searchable types
        for entry in (exit0, exit1, join):
            assert entry.state in ALL_TYPES

    def test_resnet18_every_block_has_exit_entries(self, model):
        from repro.models import build_model

        net = build_model("resnet18")
        stages = to_sharded_stages(net.stages(batch=8))
        level = search_stages(stages, model).to_level_plan("test")
        join_stages = {j.stage for j in level.joins()}
        exit_stages = {e.stage for e in level.path_exits()}
        assert join_stages, "resnet18 must contain fork/join regions"
        # every joined region records at least one per-path exit state
        for region in join_stages:
            assert region in exit_stages, region


class TestEndToEndMultipath:
    def test_search_through_residual_block(self, model):
        stages = [fc_stage("pre"), residual_region(), fc_stage("post")]
        result = search(stages, model)
        layer_names = {"pre", "p2a", "p2b", "post"}
        assert layer_names <= set(result.assignments)
        assert result.cost > 0.0

    def test_consecutive_blocks_chain(self, model):
        block1 = ParallelStage(paths=((fc_stage("b1a"), fc_stage("b1b")), ()),
                                      name="blk1")
        block2 = ParallelStage(paths=((fc_stage("b2a"), fc_stage("b2b")), ()),
                                      name="blk2")
        stages = [fc_stage("pre"), block1, block2, fc_stage("post")]
        result = search(stages, model)
        assert {"pre", "b1a", "b1b", "b2a", "b2b", "post"} <= set(result.assignments)
        level = result.to_level_plan("test")
        assert level.alignment_for("blk1") is not None
        assert level.alignment_for("blk2") is not None

    def test_search_beats_every_uniform_plan(self):
        """The multi-path search must be at least as good as pinning all
        layers to any single type (uniform plans are realignment-free)."""
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1),
                              ratio_mode="balanced")
        stages = [fc_stage("pre"), residual_region(), fc_stage("post")]
        best = search(stages, model)
        for t in ALL_TYPES:
            uniform = search(stages, model, space_fn=lambda w, t=t: (t,))
            assert best.cost <= uniform.cost + 1e-12

    def test_resnet18_plans_all_layers(self, model):
        from repro.models import build_model

        net = build_model("resnet18")
        stages = to_sharded_stages(net.stages(batch=8))
        result = search_stages(stages, model)
        planned = {e.name for e in result.entries
                   if isinstance(e, LayerAssignment)}
        expected = {w.name for w in net.workloads(8)}
        assert planned == expected

    def test_nested_parallel_in_path(self, model):
        inner = ParallelStage(paths=((fc_stage("i1"),), ()), name="inner")
        outer = ParallelStage(
            paths=((fc_stage("o1"), inner, fc_stage("o2")), ()), name="outer"
        )
        stages = [fc_stage("pre"), outer, fc_stage("post")]
        result = search(stages, model)
        assert {"pre", "o1", "i1", "o2", "post"} <= set(result.assignments)
        level = result.to_level_plan("test")
        assert level.alignment_for("inner") is not None


class TestNestedForkJoin:
    """A fork nested inside one path of another fork (deep fork-in-path
    coverage for the macro-transition)."""

    @staticmethod
    def nested_region():
        inner = ParallelStage(
            paths=((fc_stage("n_i1"), fc_stage("n_i2")), ()), name="inner"
        )
        return ParallelStage(
            paths=((fc_stage("n_o1"), inner, fc_stage("n_o2")),
                   (fc_stage("n_skip"),)),
            name="outer",
        )

    def test_transitions_cover_entry_times_space(self, model):
        transitions = parallel_stage_transitions(
            self.nested_region(), model, ALL_TYPES, [I, III]
        )
        assert set(transitions) == {(tt, s) for tt in (I, III)
                                    for s in ALL_TYPES}

    def test_inner_join_and_exits_recorded(self, model):
        transitions = parallel_stage_transitions(
            self.nested_region(), model, ALL_TYPES, [I]
        )
        for (tt, s), info in transitions.items():
            level = as_level(info)
            # both regions align their joins
            assert level.alignment_for("inner") is not None
            assert level.alignment_for("outer") is not None
            # inner's weighted path records its exit; outer records both
            assert level.path_exit("inner", 0) is not None
            assert level.path_exit("outer", 0) is not None
            assert level.path_exit("outer", 1) is not None
            # all five layers are assigned
            names = {e.name for e in level.layers()}
            assert {"n_o1", "n_i1", "n_i2", "n_o2", "n_skip"} <= names

    def test_inner_exit_matches_last_inner_layer(self, model):
        transitions = parallel_stage_transitions(
            self.nested_region(), model, ALL_TYPES, [I]
        )
        for info in transitions.values():
            level = as_level(info)
            exit0 = level.path_exit("inner", 0)
            assert exit0.state is level.assignment("n_i2").ptype

    def test_inner_skip_exit_is_inner_entry_state(self, model):
        """Inner's empty skip path exits in whatever state entered the inner
        region — the type chosen for n_o1, the layer feeding the inner fork."""
        transitions = parallel_stage_transitions(
            self.nested_region(), model, ALL_TYPES, [I]
        )
        for info in transitions.values():
            level = as_level(info)
            exit1 = level.path_exit("inner", 1)
            assert exit1 is not None
            assert exit1.state is level.assignment("n_o1").ptype

    def test_nested_region_simulates_end_to_end(self, model):
        """The full chain through a nested region searches and yields a
        positive cost with a consistent typed plan."""
        stages = [fc_stage("pre"), self.nested_region(), fc_stage("post")]
        result = search(stages, model)
        assert result.cost > 0.0
        level = result.to_level_plan("test")
        assert {e.name for e in level.layers()} == {
            "pre", "n_o1", "n_i1", "n_i2", "n_o2", "n_skip", "post"
        }
        # entry ordering keeps nested structure: inner entries appear between
        # outer path-0's first and last layers
        names = [getattr(e, "name", getattr(e, "stage", "")) for e in
                 level.entries]
        assert names.index("n_o1") < names.index("n_i1") < names.index("n_o2")
