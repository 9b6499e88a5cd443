"""The packed closed form against the bisection-fed reference.

Two equivalence guarantees back the planner's one step-cost kernel:

* every packed Eq. 10 ratio (:meth:`PairCostModel.pack_step_tensors`, the
  batched closed-form solve) agrees with bracketed bisection over the
  per-party formulas to within 1e-9 in α, for every Table 5 transition,
  over every workload of every registered model, on both a heterogeneous
  and a homogeneous pair;
* end-to-end hierarchical plans from the DP match the scalar reference
  recurrence fed by bisection (``tests/reference_search.py``, registered as
  a search backend): identical types, ratios within 1e-9, per-level costs
  within float noise.
"""

import pytest

from repro.core.cost_model import PairCostModel
from repro.core.hierarchy import collect_level_plans
from repro.core.planner import PartitionScheme, Planner
from repro.core.ratio import solve_balanced_ratio
from repro.core.stages import to_sharded_stages
from repro.core.types import ALL_TYPES
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.hardware.presets import heterogeneous_array
from repro.models import available_models, build_model
from repro.plan import backends, register_backend
from tests.reference_search import REFERENCE_BACKEND, ReferenceBisectionBackend

#: every Eq. 9 entry condition: the free entry boundary plus the nine
#: (prev, cur) Table 5 transitions
TRANSITIONS = [(None, t) for t in ALL_TYPES] + [
    (p, t) for p in ALL_TYPES for t in ALL_TYPES
]


def _pair_models():
    hetero = PairCostModel(make_group(TPU_V3, 4), make_group(TPU_V2, 4))
    homo = PairCostModel(make_group(TPU_V3, 4), make_group(TPU_V3, 4))
    return {"hetero": hetero, "homo": homo}


class TestClosedFormMatchesBisection:
    @pytest.mark.parametrize("model_name", available_models())
    def test_alpha_within_1e9_across_registry(self, model_name):
        table = to_sharded_stages(build_model(model_name).stages(batch=16))
        workloads = table.workloads()
        checked = 0
        for pair_name, model in _pair_models().items():
            pack = model.pack_step_tensors(table)
            for row, sw in enumerate(workloads):
                for prev, cur in TRANSITIONS:
                    alpha_packed = pack.cell(row, prev, cur)[1]
                    alpha_bisect = solve_balanced_ratio(
                        lambda a: model.step_pair_costs(sw, prev, cur, a)[:2]
                    )
                    assert abs(alpha_packed - alpha_bisect) <= 1e-9, (
                        model_name, pair_name, sw.name, prev, cur,
                        alpha_packed, alpha_bisect,
                    )
                    checked += 1
        assert checked == len(workloads) * 2 * len(TRANSITIONS)


@pytest.fixture
def reference_backend(monkeypatch):
    """Register the bisection-fed reference for one test only."""
    monkeypatch.setattr(backends, "_REGISTRY", dict(backends._REGISTRY))
    monkeypatch.setattr(backends, "_ALIASES", dict(backends._ALIASES))
    register_backend(REFERENCE_BACKEND, ReferenceBisectionBackend)
    return REFERENCE_BACKEND


def assert_same_plan(name, packed, reference):
    """Types identical, ratios within 1e-9, per-level costs within noise."""
    packed_levels = collect_level_plans(packed.plan)
    reference_levels = collect_level_plans(reference.plan)
    assert len(packed_levels) == len(reference_levels), name
    for got, want in zip(packed_levels, reference_levels):
        assert set(got.assignments) == set(want.assignments), name
        for key in got.assignments:
            g, w = got.assignments[key], want.assignments[key]
            assert g.ptype is w.ptype, (name, key, g.ptype, w.ptype)
            assert abs(g.ratio - w.ratio) <= 1e-9, (name, key, g.ratio, w.ratio)
        assert got.cost == pytest.approx(want.cost, rel=1e-9), name


class TestPlansMatchBisectionReference:
    @pytest.mark.parametrize("model_name", ["lenet", "alexnet", "resnet18", "trident"])
    def test_zoo_plans_on_heterogeneous_array(self, reference_backend, model_name):
        net = build_model(model_name)
        array = heterogeneous_array()
        packed = Planner(array, PartitionScheme()).plan(net, 64)
        reference = Planner(array, PartitionScheme(backend=reference_backend)).plan(net, 64)
        assert_same_plan(model_name, packed, reference)

    def test_homogeneous_array(self, reference_backend):
        net = build_model("alexnet")
        array = make_group(TPU_V3, 16)
        packed = Planner(array, PartitionScheme()).plan(net, 64)
        reference = Planner(array, PartitionScheme(backend=reference_backend)).plan(net, 64)
        assert_same_plan("alexnet", packed, reference)
