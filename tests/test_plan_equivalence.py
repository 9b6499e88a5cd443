"""Cross-backend plan equivalence: every registered backend plans real
models, validates structurally, and survives a lossless round trip
through the plan document.  This module is the CI ``plan-equivalence``
job.
"""

import pytest

from repro.baselines import get_scheme
from repro.core.planner import Planner
from repro.core.serialize import FORMAT_VERSION, plan_from_dict, plan_to_dict
from repro.hardware import heterogeneous_array
from repro.models import build_model
from repro.plan import available_backends, get_backend, plan_diff, validate_plan

BACKENDS = available_backends()

#: vgg19's 19 weighted layers exceed brute force's default 12-layer cap
CHAIN_BACKENDS = [b for b in BACKENDS if b != "brute-force"]


def plan_with_backend(model_name, backend, batch=64):
    array = heterogeneous_array(2, 2)
    scheme = get_scheme("accpar", backend=backend)
    return Planner(array, scheme).plan(build_model(model_name), batch)


def assert_entries_identical(a, b, path="root"):
    """Bit-identical plan trees: same shape, same ordered typed entries."""
    assert (a is None) == (b is None), path
    if a is None:
        return
    if a.level_plan is None:
        assert b.level_plan is None, path
    else:
        assert a.level_plan.entries == b.level_plan.entries, path
    assert_entries_identical(a.left, b.left, path + "L")
    assert_entries_identical(a.right, b.right, path + "R")


class TestEveryBackendOnChain:
    @pytest.mark.parametrize("backend", CHAIN_BACKENDS)
    def test_vgg19_plans_and_validates(self, backend):
        planned = plan_with_backend("vgg19", backend)
        assert validate_plan(planned.plan, build_model("vgg19"), 64) == []

    @pytest.mark.parametrize("backend", CHAIN_BACKENDS)
    def test_vgg19_roundtrip_lossless(self, backend):
        planned = plan_with_backend("vgg19", backend)
        document = plan_to_dict(planned)
        assert document["format_version"] == FORMAT_VERSION
        reloaded = plan_from_dict(document)
        assert_entries_identical(planned.plan, reloaded.plan)
        assert plan_diff(planned.plan, reloaded.plan) == []

    def test_brute_force_refuses_vgg19_with_clear_error(self):
        with pytest.raises(ValueError, match="dp"):
            plan_with_backend("vgg19", "brute-force")


class TestEveryBackendOnMultibranch:
    """trident has 10 weighted layers, small enough for brute force too."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trident_plans_and_validates(self, backend):
        planned = plan_with_backend("trident", backend)
        assert validate_plan(planned.plan, build_model("trident"), 64) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trident_roundtrip_lossless(self, backend):
        planned = plan_with_backend("trident", backend)
        reloaded = plan_from_dict(plan_to_dict(planned))
        assert_entries_identical(planned.plan, reloaded.plan)
        assert plan_diff(planned.plan, reloaded.plan) == []

    def test_dp_roundtrip_preserves_joins_and_exits(self):
        """The multi-path-aware backend emits JoinAlignment and PathExit
        entries; the document round trip must carry them bit-identically."""
        planned = plan_with_backend("trident", "dp")
        root = planned.root_level_plan
        assert root.joins(), "dp on trident must align fork/join tensors"
        assert root.path_exits(), "dp on trident must record path exits"
        reloaded = plan_from_dict(plan_to_dict(planned))
        assert reloaded.root_level_plan.joins() == root.joins()
        assert reloaded.root_level_plan.path_exits() == root.path_exits()

    def test_linearizing_backends_emit_layers_only(self):
        """greedy and brute-force flatten fork/join regions to a chain, so
        their plans are pure layer assignments — still structurally valid."""
        for backend in ("greedy", "brute-force"):
            planned = plan_with_backend("trident", backend)
            root = planned.root_level_plan
            assert root.joins() == () and root.path_exits() == (), backend


class TestBackendAgreement:
    def test_dp_and_brute_force_agree_on_small_chain(self):
        """On a chain within the cap the DP must match the oracle's cost."""
        dp = plan_with_backend("lenet", "dp")
        brute = plan_with_backend("lenet", "brute-force")
        assert dp.root_level_plan.cost == pytest.approx(
            brute.root_level_plan.cost, rel=1e-9
        )

    def test_registry_and_scheme_route_identically(self):
        """The accpar scheme's registry-routed search equals calling the backend
        directly — the refactor changed plumbing, not plans."""
        planned = plan_with_backend("alexnet", "dp")
        from repro.core.cost_model import PairCostModel

        tree = planned.tree
        model = PairCostModel(tree.left.group, tree.right.group,
                              planned.dtype_bytes)
        direct = get_backend("dp").search(planned.stages, model)
        assert direct.to_level_plan("accpar").entries == \
            planned.root_level_plan.entries
