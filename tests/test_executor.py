"""Unit tests for the plan evaluator (the simulator's top level)."""

import copy
import json
from pathlib import Path

import pytest

from repro.baselines import get_scheme
from repro.core.planner import Planner
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.models import build_model
from repro.sim.engine import EngineConfig
from repro.sim.executor import evaluate


def plan(model="lenet", scheme="accpar", array=None, batch=64, levels=None):
    array = array if array is not None else homogeneous_array(4)
    return Planner(array, get_scheme(scheme), levels=levels).plan(
        build_model(model), batch
    )


class TestEvaluate:
    def test_report_structure(self):
        report = evaluate(plan())
        assert report.total_time > 0.0
        assert report.leaf_time > 0.0
        assert report.comm_time >= 0.0
        assert report.total_time == pytest.approx(
            report.leaf_time + report.comm_time
        )
        assert len(report.levels) == 2  # 4 accelerators -> 2 levels

    def test_throughput(self):
        report = evaluate(plan(batch=64))
        assert report.throughput == pytest.approx(64 / report.total_time)

    def test_levels_ordered_root_first(self):
        report = evaluate(plan(array=homogeneous_array(8)))
        assert [lv.level for lv in report.levels] == [1, 2, 3]

    def test_single_accelerator_has_no_comm(self):
        report = evaluate(plan(array=homogeneous_array(1)))
        assert report.comm_time == 0.0
        assert report.levels == []

    def test_memory_report_present(self):
        report = evaluate(plan())
        assert report.memory_worst is not None
        assert report.fits_memory

    def test_dp_level_bytes_equal_full_weights(self):
        """Pure data parallelism exchanges the full (unsharded) gradient
        tensor at every level — Table 4's Type-I row."""
        planned = plan(model="alexnet", scheme="dp", array=homogeneous_array(4))
        report = evaluate(planned)
        weights = sum(
            w.weight.size for w in build_model("alexnet").workloads(64)
        )
        expected = weights * 2  # bfloat16 bytes
        for lv in report.levels:
            assert lv.net_bytes_left == pytest.approx(expected, rel=0.01)
            assert lv.net_bytes_right == pytest.approx(expected, rel=0.01)

    def test_more_accelerators_do_not_slow_training(self):
        small = evaluate(plan(model="vgg11", array=homogeneous_array(2), batch=128))
        large = evaluate(plan(model="vgg11", array=homogeneous_array(8), batch=128))
        assert large.leaf_time < small.leaf_time

    def test_deterministic(self):
        a = evaluate(plan(model="resnet18"))
        b = evaluate(plan(model="resnet18"))
        assert a.total_time == pytest.approx(b.total_time)

    def test_custom_engine_config(self):
        planned = plan(model="alexnet")
        overlapped = evaluate(planned, EngineConfig(overlap_compute_memory=True))
        serialized = evaluate(planned, EngineConfig(overlap_compute_memory=False))
        assert serialized.total_time >= overlapped.total_time

    def test_hypar_plans_evaluate_on_multipath_networks(self):
        """HyPar records no join states; the evaluator must still work."""
        report = evaluate(plan(model="resnet18", scheme="hypar"))
        assert report.total_time > 0.0

    @pytest.mark.parametrize("scheme", ["dp", "owt", "hypar", "accpar"])
    def test_all_schemes_on_heterogeneous_array(self, scheme):
        report = evaluate(plan(scheme=scheme, array=heterogeneous_array(2, 2)))
        assert report.total_time > 0.0


class TestSimulatorIndependence:
    def test_balanced_ratio_beats_equal_on_hetero_compute(self):
        """The simulator (not the planner's own objective) must show the
        flexible-ratio benefit on a compute-heavy workload."""
        array = heterogeneous_array(2, 2)
        accpar = evaluate(plan(model="vgg11", scheme="accpar", array=array,
                               batch=256))
        dp = evaluate(plan(model="vgg11", scheme="dp", array=array, batch=256))
        assert accpar.total_time < dp.total_time


def _rotate_types(node):
    """Edit a plan document subtree in place: Type I -> II -> III -> I."""
    rotation = {"I": "II", "II": "III", "III": "I"}
    if node is None:
        return
    for entry in node["entries"]:
        for field in ("type", "state"):
            if field in entry:
                entry[field] = rotation[entry[field]]
    _rotate_types(node["left"])
    _rotate_types(node["right"])


def _merge_equal_nodes(document):
    """A format-3 plan document with each distinct node record stored once
    (its reader then shares equal subtrees, as the planner does)."""
    nodes, first, remap = [], {}, {}
    for at, node in enumerate(document["nodes"]):
        node = dict(node, left=remap.get(node["left"]),
                    right=remap.get(node["right"]))
        remap[at] = first.setdefault(json.dumps(node, sort_keys=True),
                                     len(nodes))
        if remap[at] == len(nodes):
            nodes.append(node)
    return dict(document, nodes=nodes, plan=remap[document["plan"]])


#: a format-2 plan document (vgg19 on the 128-board ``homo`` array, batch
#: 64): its reader builds every node apart, so the root's two children are
#: equal but distinct objects
V2_HOMO_PLAN = (Path(__file__).parent / "fixtures" / "plans_v2"
                / "vgg19_homo_accpar.json")


class TestSiblingPlans:
    """Two siblings with the same group and sub-problem but different stored
    plans are simulated apart: a memo hit needs the same plan node too."""

    @pytest.fixture(scope="class")
    def document(self):
        return json.loads(V2_HOMO_PLAN.read_text())

    @pytest.fixture(scope="class")
    def planned(self):
        return plan(model="vgg19", array=homogeneous_array(), batch=64)

    def edited(self, document, side):
        from repro.core.serialize import plan_from_dict

        document = copy.deepcopy(document)
        _rotate_types(document["plan"][side])
        return plan_from_dict(document)

    def test_either_sibling_edit_gives_the_same_total(self, document,
                                                      planned):
        left = evaluate(self.edited(document, "left")).total_time
        right = evaluate(self.edited(document, "right")).total_time
        assert right == pytest.approx(left, rel=1e-5)
        # and the edit matters: the rotated types are far slower
        assert left > 2 * evaluate(planned).total_time

    def test_loaded_plan_matches_planned(self, document, planned):
        """A plan rebuilt from a v2 document shares no subtree objects; the
        walk's structural hit rule still gives the answer its identity hits
        give when the same plan shares its equal subtrees."""
        from repro.core.serialize import plan_from_dict, plan_to_dict

        loaded = plan_from_dict(document)
        assert loaded.plan.left is not loaded.plan.right
        assert loaded.plan.left == loaded.plan.right
        shared = plan_from_dict(_merge_equal_nodes(plan_to_dict(loaded)))
        assert shared.plan.left is shared.plan.right
        assert shared.plan == loaded.plan
        assert evaluate(loaded) == evaluate(shared)
        # the frozen plan stores the Eq. 10 solver's 1/2 +- ~1e-10 where
        # today's planner stores 1/2 (a whole-granule transfer may round)
        assert evaluate(loaded).total_time == pytest.approx(
            evaluate(planned).total_time, rel=1e-6)

    def test_v3_loaded_plan_shares_siblings(self, planned):
        """A v3 document stores each distinct subtree once, so its reader
        shares them as the planner did and the walk hits by identity."""
        from repro.core.serialize import plan_from_dict, plan_to_dict

        loaded = plan_from_dict(plan_to_dict(planned))
        assert planned.plan.left is planned.plan.right
        assert loaded.plan.left is loaded.plan.right
        assert evaluate(loaded) == evaluate(planned)
