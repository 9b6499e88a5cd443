"""Unit tests for the network DAG and its stage decomposition."""

import pytest

from repro.graph.layers import (
    Add,
    Conv2d,
    Flatten,
    Input,
    Linear,
    Pool2d,
    ReLU,
)
from repro.graph.network import (
    GraphError,
    LayerStage,
    Network,
    ParallelStage,
    count_stage_layers,
    iter_stage_workloads,
)
from repro.graph.shapes import FeatureMap


def linear_net():
    net = Network("lin", Input("in", channels=3, height=8, width=8))
    net.add(Conv2d("c1", 3, 4, kernel=3, padding=1))
    net.add(ReLU("r1"))
    net.add(Flatten("f"))
    net.add(Linear("fc", 4 * 8 * 8, 10))
    return net


def residual_net(skip_conv: bool = False):
    """in -> c1 -> [c2 -> c3 | (skip or c4)] -> add -> fc."""
    net = Network("res", Input("in", channels=4, height=4, width=4))
    c1 = net.add(Conv2d("c1", 4, 8, kernel=3, padding=1))
    a = net.add(Conv2d("c2", 8, 8, kernel=3, padding=1), inputs=[c1])
    a = net.add(Conv2d("c3", 8, 8, kernel=3, padding=1), inputs=[a])
    if skip_conv:
        skip = net.add(Conv2d("c4", 8, 8, kernel=1), inputs=[c1])
    else:
        skip = c1
    add = net.add(Add("add"), inputs=[a, skip])
    net.add(Flatten("f"), inputs=[add])
    net.add(Linear("fc", 8 * 4 * 4, 10))
    return net


class TestConstruction:
    def test_implicit_chaining(self):
        net = linear_net()
        assert net.predecessors("c1") == ["in"]
        assert net.predecessors("fc") == ["f"]

    def test_duplicate_name_raises(self):
        net = Network("n", Input("in", channels=1))
        net.add(Linear("fc", 1, 1))
        with pytest.raises(GraphError, match="duplicate layer name"):
            net.add(Linear("fc", 1, 1))

    def test_unknown_input_raises(self):
        net = Network("n", Input("in", channels=1))
        with pytest.raises(GraphError, match="unknown input layer"):
            net.add(Linear("fc", 1, 1), inputs=["ghost"])

    def test_second_input_layer_raises(self):
        net = Network("n", Input("in", channels=1))
        with pytest.raises(GraphError):
            net.add(Input("in2", channels=1), inputs=["in"])

    def test_empty_inputs_raises(self):
        net = Network("n", Input("in", channels=1))
        with pytest.raises(GraphError):
            net.add(Linear("fc", 1, 1), inputs=[])

    def test_contains_and_len(self):
        net = linear_net()
        assert "c1" in net
        assert "ghost" not in net
        assert len(net) == 5


class TestTopology:
    def test_topological_order_is_consistent(self):
        net = residual_net()
        order = net.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for name in order:
            for pred in net.predecessors(name):
                assert pos[pred] < pos[name]

    def test_output_name(self):
        assert linear_net().output_name == "fc"

    def test_multiple_sinks_raises(self):
        net = Network("n", Input("in", channels=1))
        net.add(Linear("a", 1, 1), inputs=["in"])
        net.add(Linear("b", 1, 1), inputs=["in"])
        with pytest.raises(GraphError, match="2 sinks"):
            net.output_name


class TestShapeInference:
    def test_linear_shapes(self):
        shapes = linear_net().infer_shapes(batch=2)
        assert shapes["c1"] == FeatureMap(2, 4, 8, 8)
        assert shapes["fc"] == FeatureMap(2, 10, 1, 1)

    def test_residual_shapes(self):
        shapes = residual_net().infer_shapes(batch=2)
        assert shapes["add"] == FeatureMap(2, 8, 4, 4)

    def test_workloads_in_topological_order(self):
        names = [w.name for w in linear_net().workloads(2)]
        assert names == ["c1", "fc"]

    def test_residual_workload_count(self):
        assert len(residual_net(skip_conv=True).workloads(2)) == 5


class TestStageDecomposition:
    def test_linear_decomposition(self):
        stages = linear_net().stages(batch=2)
        assert all(isinstance(s, LayerStage) for s in stages)
        assert [s.name for s in stages] == ["c1", "fc"]

    def test_identity_skip_produces_parallel_stage(self):
        stages = residual_net(skip_conv=False).stages(batch=2)
        kinds = [type(s).__name__ for s in stages]
        assert kinds == ["LayerStage", "ParallelStage", "LayerStage"]
        parallel = stages[1]
        assert isinstance(parallel, ParallelStage)
        # one path has c2, c3; the skip path is empty
        sizes = sorted(len(p) for p in parallel.paths)
        assert sizes == [0, 2]

    def test_projection_skip_both_paths_weighted(self):
        stages = residual_net(skip_conv=True).stages(batch=2)
        parallel = stages[1]
        assert isinstance(parallel, ParallelStage)
        sizes = sorted(len(p) for p in parallel.paths)
        assert sizes == [1, 2]

    def test_stage_layer_count_matches_workloads(self):
        for build in (linear_net, lambda: residual_net(True)):
            net = build()
            assert count_stage_layers(net.stages(2)) == len(net.workloads(2))

    def test_iter_stage_workloads_order(self):
        names = [w.name for w in iter_stage_workloads(residual_net(True).stages(2))]
        assert names[0] == "c1"
        assert names[-1] == "fc"
        assert set(names) == {"c1", "c2", "c3", "c4", "fc"}

    def test_parallel_stage_requires_two_paths(self):
        with pytest.raises(ValueError):
            ParallelStage(paths=((),))

    def test_stages_infers_shapes_once(self, monkeypatch):
        from repro.models import build_model
        from tests.build_counts import count_builds

        nets = [linear_net(), residual_net(True), build_model("resnet18")]
        calls = count_builds(monkeypatch)
        for net in nets:
            net.stages(batch=2)
        assert calls["stages"] == 3
        assert calls["infer_shapes"] == 3


class TestNestedForks:
    def test_nested_fork_join(self):
        """in -> c1 -> [ c2 -> [c3|skip] -> c4 | skip ] -> add2 -> fc

        The inner fork nests strictly inside the outer path (forks at
        distinct nodes), which is the structure residual networks use.
        """
        net = Network("nested", Input("in", channels=4, height=4, width=4))
        c1 = net.add(Conv2d("c1", 4, 8, kernel=3, padding=1))
        c2 = net.add(Conv2d("c2", 8, 8, kernel=3, padding=1), inputs=[c1])
        c3 = net.add(Conv2d("c3", 8, 8, kernel=3, padding=1), inputs=[c2])
        add1 = net.add(Add("add1"), inputs=[c3, c2])
        c4 = net.add(Conv2d("c4", 8, 8, kernel=3, padding=1), inputs=[add1])
        add2 = net.add(Add("add2"), inputs=[c4, c1])
        net.add(Flatten("f"), inputs=[add2])
        net.add(Linear("fc", 8 * 4 * 4, 10))
        stages = net.stages(2)
        assert count_stage_layers(stages) == 5
        outer = stages[1]
        assert isinstance(outer, ParallelStage)
        # outer fork: one empty skip path, one path containing the inner fork
        sizes = sorted(len(p) for p in outer.paths)
        assert sizes[0] == 0
        inner_path = max(outer.paths, key=len)
        assert any(isinstance(s, ParallelStage) for s in inner_path)

    def test_overlapping_forks_raise(self):
        """Two forks from the same node with different joins: not SP."""
        net = Network("overlap", Input("in", channels=4, height=4, width=4))
        c1 = net.add(Conv2d("c1", 4, 8, kernel=3, padding=1))
        c2 = net.add(Conv2d("c2", 8, 8, kernel=3, padding=1), inputs=[c1])
        add1 = net.add(Add("add1"), inputs=[c2, c1])
        c4 = net.add(Conv2d("c4", 8, 8, kernel=3, padding=1), inputs=[add1])
        add2 = net.add(Add("add2"), inputs=[c4, c1])
        net.add(Flatten("f"), inputs=[add2])
        net.add(Linear("fc", 8 * 4 * 4, 10))
        with pytest.raises(GraphError, match="not series-parallel"):
            net.stages(2)


class TestDescribe:
    def test_describe_mentions_every_layer(self):
        net = linear_net()
        text = net.describe(batch=2)
        for name in net.layer_names():
            assert name in text
