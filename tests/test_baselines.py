"""Unit tests for the named schemes, the DP / OWT / HyPar baselines and
the factory that builds them."""

from collections import Counter

import pytest

from repro.baselines import SCHEME_ORDER, SCHEMES, get_scheme
from repro.core.hierarchy import plan_tree
from repro.core.planner import PartitionScheme
from repro.core.stages import to_sharded_stages
from repro.core.types import HYPAR_TYPES, PartitionType
from repro.hardware import TPU_V2, TPU_V3, AcceleratorGroup, make_group
from repro.hardware.cluster import bisection_tree
from repro.models import build_model

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


@pytest.fixture
def parties():
    return make_group(TPU_V3, 2), make_group(TPU_V2, 2)


@pytest.fixture
def alexnet_stages():
    return to_sharded_stages(build_model("alexnet").stages(batch=64))


@pytest.fixture
def resnet_stages():
    return to_sharded_stages(build_model("resnet18").stages(batch=64))


class TestRegistry:
    def test_scheme_order(self):
        assert SCHEME_ORDER == ["dp", "owt", "hypar", "accpar"]

    @pytest.mark.parametrize("name", SCHEME_ORDER)
    def test_get_scheme(self, name):
        assert get_scheme(name).name == name

    def test_table_names_five_schemes(self):
        assert sorted(SCHEMES) == ["accpar", "dp", "greedy", "hypar", "owt"]
        assert all(SCHEMES[name].name == name for name in SCHEMES)

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="dp, owt, hypar, accpar, greedy"):
            get_scheme("zero")

    def test_name_is_case_insensitive(self):
        assert get_scheme("AccPar") == SCHEMES["accpar"]

    def test_backend_override_is_canonical(self):
        assert get_scheme("owt", backend="exact").backend == "dp"
        assert get_scheme("greedy").backend == "greedy"
        with pytest.raises(KeyError, match="unknown search backend"):
            get_scheme("accpar", backend="simulated-annealing")

    @pytest.mark.parametrize("name", ["dp", "owt", "hypar"])
    @pytest.mark.parametrize("knob", [{"space": (I,)}, {"ratio_mode": "equal"}])
    def test_fixed_baselines_refuse_knobs(self, name, knob):
        with pytest.raises(ValueError, match="does not accept space/ratio_mode"):
            get_scheme(name, **knob)

    @pytest.mark.parametrize("name", ["accpar", "greedy"])
    def test_tunable_schemes_take_knobs(self, name):
        scheme = get_scheme(name, space=[I, II], ratio_mode="equal")
        assert scheme.space == (I, II) and scheme.ratio_mode == "equal"
        assert scheme.name == name

    @pytest.mark.parametrize("knobs,match", [
        ({"space": ()}, "at least one"),
        ({"space": ("I",)}, "not a PartitionType"),
        ({"ratio_mode": "psychic"}, "unknown ratio_mode"),
    ])
    def test_bad_knobs_raise(self, knobs, match):
        with pytest.raises(ValueError, match=match):
            get_scheme("accpar", **knobs)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_every_scheme_counts_its_level_plans(name, parties, alexnet_stages):
    series = "level_plans_" + SCHEMES[name].backend
    assert SCHEMES[name].level_plans_counter == series
    tally = Counter()
    tree = bisection_tree(AcceleratorGroup(parties[0].members
                                           + parties[1].members), 1)
    plan_tree(tree, alexnet_stages, SCHEMES[name], 2, tally)
    assert tally[series] == 1


class TestDataParallel:
    def test_all_type_i_equal_ratio(self, parties, alexnet_stages):
        plan = get_scheme("dp").level_plan(alexnet_stages, *parties, 2)
        for lp in plan.layer_assignments().values():
            assert lp.ptype is I
            assert lp.ratio == 0.5

    def test_works_on_multipath(self, parties, resnet_stages):
        plan = get_scheme("dp").level_plan(resnet_stages, *parties, 2)
        assert len(plan.layer_assignments()) == 21


class TestOwt:
    def test_conv_data_fc_model(self, parties, alexnet_stages):
        plan = get_scheme("owt").level_plan(alexnet_stages, *parties, 2)
        by_layer = plan.layer_assignments()
        for sw in alexnet_stages.workloads():
            expected = I if sw.base.is_conv else II
            assert by_layer[sw.name].ptype is expected

    def test_equal_ratios(self, parties, alexnet_stages):
        plan = get_scheme("owt").level_plan(alexnet_stages, *parties, 2)
        assert all(lp.ratio == 0.5 for lp in plan.layer_assignments().values())


class TestHyPar:
    def test_space_restricted_to_two_types(self, parties, alexnet_stages):
        plan = get_scheme("hypar").level_plan(alexnet_stages, *parties, 2)
        for lp in plan.layer_assignments().values():
            assert lp.ptype in HYPAR_TYPES

    def test_equal_ratios(self, parties, alexnet_stages):
        plan = get_scheme("hypar").level_plan(alexnet_stages, *parties, 2)
        assert all(lp.ratio == 0.5 for lp in plan.layer_assignments().values())

    def test_linearizes_multipath(self, parties, resnet_stages):
        plan = get_scheme("hypar").level_plan(resnet_stages, *parties, 2)
        # all 21 weighted layers get assignments, no join pseudo-entries
        assert len(plan.layer_assignments()) == 21
        assert len(plan.assignments) == 21

    def test_prefers_model_parallel_for_fc_heavy_nets(self, parties, alexnet_stages):
        """AlexNet's FC weights dwarf its activations; a comm-volume
        minimizer must not keep them data-parallel."""
        plan = get_scheme("hypar").level_plan(alexnet_stages, *parties, 2)
        by_layer = plan.layer_assignments()
        assert by_layer["fc1"].ptype is II
        assert by_layer["fc2"].ptype is II

    def test_comm_volume_objective_not_time(self, parties, alexnet_stages):
        """HyPar's cost is bytes, so it is bandwidth-independent."""
        slow = make_group(TPU_V2, 1)
        plan_fast = get_scheme("hypar").level_plan(alexnet_stages, *parties, 2)
        plan_slow = get_scheme("hypar").level_plan(alexnet_stages, slow, slow, 2)
        types_fast = {n: lp.ptype for n, lp in plan_fast.layer_assignments().items()}
        types_slow = {n: lp.ptype for n, lp in plan_slow.layer_assignments().items()}
        assert types_fast == types_slow


class TestSchemeOptimality:
    def test_accpar_cost_beats_fixed_schemes(self, parties, alexnet_stages):
        """On its own objective, the full search dominates the pinned ones."""
        accpar = PartitionScheme(ratio_mode="equal", name="accpar-eq")
        best = accpar.level_plan(alexnet_stages, *parties, 2)
        for scheme in (get_scheme("dp"), get_scheme("owt")):
            fixed = scheme.level_plan(alexnet_stages, *parties, 2)
            assert best.cost <= fixed.cost + 1e-12
