"""A split between identical groups is solved by symmetry (§5.3, Eq. 10).

Between two parties of one group signature,
:meth:`~repro.core.cost_model.PairCostModel.pack_step_tensors` sets α = ½
and prices party *i* alone instead of solving Eq. 10 for every cell.  These
tests pin the identity's premise, the branch against the batched solver,
its counters, and the plans it makes: every split between identical groups
in the plan zoo stores α exactly 0.5.

Imports nothing beyond the library, numpy and pytest, so the CI job that
installs only those runs it by path.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import get_scheme
from repro.core.cost_model import PairCostModel
from repro.core.planner import Planner
from repro.core.ratio import (
    RATIO_LO,
    solve_balanced_ratio_poly_batch,
    symmetric_balanced_ratio,
)
from repro.core.stages import to_sharded_stages
from repro.hardware import TPU_V3, AcceleratorGroup, make_group
from repro.hardware.cluster import bisection_tree, max_hierarchy_levels
from repro.hardware.presets import parse_array
from repro.hardware.profile import ANALYTIC, load_profile
from repro.models import build_model
from repro.obs.tracing import Participant, set_request_context
from tests.plan_zoo import ZOO, ZOO_IDS, plan

ROOT = Path(__file__).resolve().parent.parent
PROFILES = {
    "analytic": ANALYTIC,
    "effective-tpu": load_profile(ROOT / "examples" / "profiles"
                                  / "effective-tpu.json"),
    "split-collision": load_profile(ROOT / "tests" / "fixtures" / "profiles"
                                    / "split_collision.json"),
}
ARRAYS = ("hetero", "homo", "tpu-v2:4,tpu-v3:4", "tpu-v3:3",
          "tpu-v2:3,tpu-v3:2", "tpu-v2:1,tpu-v3:3", "tpu-v3:2,tpu-v2:4")
#: every Table 5 transfer size a pack may ask a profile for, and then some
SIZES = [0.5 * 2.0 ** k for k in range(64)] + [65536.0, 1048576.0,
                                                16777216.0]

#: the solver path counters; with ``ratio_symmetric`` they sum to
#: ``ratio_solves``
PATHS = ("ratio_closed_linear", "ratio_closed_quadratic",
         "ratio_bisection_fallback", "ratio_minimax", "ratio_symmetric")


def splits(node):
    """Every internal node of a pairing tree, pre-order."""
    return list(node.internal_nodes())


def symmetric(node):
    return node.left.group.signature() == node.right.group.signature()


class TestPremise:
    """Signature-equal halves are priced alike, bit for bit."""

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("array", ARRAYS)
    def test_equal_signatures_get_equal_rates(self, profile, array):
        profile = PROFILES[profile]
        group = parse_array(array)
        tree = bisection_tree(group, max_hierarchy_levels(group),
                              profile=profile)
        pairs = [(n.left.group, n.right.group) for n in splits(tree)
                 if symmetric(n)]
        assert pairs
        for left, right in pairs:
            for kind in ("default", "conv", "fc"):
                assert profile.compute_rate(left, kind) == \
                    profile.compute_rate(right, kind)
            for nbytes in SIZES:
                assert profile.network_bandwidth(left, nbytes) == \
                    profile.network_bandwidth(right, nbytes)
            assert profile.transfer_latency_s(left) == \
                profile.transfer_latency_s(right)
            model = PairCostModel(left, right, profile=profile)
            assert (model.c_i, model.b_i, model._lat_i) == \
                (model.c_j, model.b_j, model._lat_j)

    def test_equal_peaks_but_other_signatures_go_to_the_solver(self):
        """{tpu-v3} | {tpu-v2, tpu-v2} under the collision profile: equal
        effective compute and peak bandwidth, effective bandwidths 100x
        apart.  The split is not symmetric and Eq. 10 moves off 1/2."""
        profile = PROFILES["split-collision"]
        tree = bisection_tree(parse_array("tpu-v3:1,tpu-v2:2"), 1,
                              profile=profile)
        left, right = tree.left.group, tree.right.group
        assert left.signature() != right.signature()
        assert profile.compute_rate(left) == profile.compute_rate(right)
        assert left.network_bandwidth == right.network_bandwidth
        model = PairCostModel(left, right, profile=profile)
        pack = model.pack_step_tensors(
            to_sharded_stages(build_model("alexnet").stages(64)))
        assert model.stats.ratio_symmetric == 0
        assert model.stats.ratio_solves == pack.alpha.size
        assert np.any(pack.alpha != 0.5)


    def test_specs_that_share_a_name_are_not_identical(self):
        """A signature names specs; two specs under one name with other
        numbers are different parties, and Eq. 10 splits them unevenly."""
        fast = dataclasses.replace(TPU_V3, name="tpu")
        slow = dataclasses.replace(TPU_V3, name="tpu", flops=TPU_V3.flops / 4)
        group = AcceleratorGroup((fast, fast, slow, slow))
        planned = Planner(group, get_scheme("accpar")).plan(
            build_model("alexnet"), 64)
        left, right = planned.tree.left.group, planned.tree.right.group
        assert left.signature() == right.signature()
        assert all(entry.alpha > 0.7
                   for entry in planned.plan.level_plan.layers())


class TestBranchAgainstTheSolver:
    """The same mirrored coefficients, fed to the branch and the solver."""

    @staticmethod
    def mirrored(seed, cells=4000):
        rng = np.random.default_rng(seed)
        const_i = rng.uniform(1e-6, 1e-3, cells)
        lin_i = rng.uniform(1e-6, 1e-3, cells) * rng.choice((-1.0, 1.0),
                                                           cells)
        quad_i = np.where(rng.random(cells) < 0.5, 0.0,
                          rng.uniform(1e-6, 1e-3, cells))
        lin_i[::97] = 0.0  # a cell whose cost does not depend on α
        return const_i, lin_i, quad_i, const_i + lin_i, -lin_i, quad_i

    @pytest.mark.parametrize("seed", range(5))
    def test_half_where_the_residual_changes_sign(self, seed):
        const_i, lin_i, quad_i, const_j, lin_j, quad_j = self.mirrored(seed)
        solved, counts = solve_balanced_ratio_poly_batch(
            const_i, lin_i, quad_i, const_j, lin_j, quad_j)
        branch = symmetric_balanced_ratio(lin_i)
        changes = lin_i != 0.0
        assert np.all(branch[changes] == 0.5)
        assert np.max(np.abs(solved[changes] - 0.5)) <= 1e-12
        # α-free cells balance everywhere: both answer lo
        assert np.count_nonzero(~changes) > 0
        assert np.all(branch[~changes] == RATIO_LO)
        assert np.all(solved[~changes] == RATIO_LO)
        assert sum(counts.values()) == lin_i.size

    @pytest.mark.parametrize("model", ["alexnet", "resnet18", "trident"])
    def test_a_pack_against_twins_the_solver_prices(self, model):
        """Two specs with the same numbers under two names are identical
        parties of two signatures: their pack goes to the solver, and the
        branch's pack matches it cell by cell."""
        twin = dataclasses.replace(TPU_V3, name="tpu-v3-twin")
        stages = to_sharded_stages(build_model(model).stages(64))
        branch = PairCostModel(make_group(TPU_V3, 2), make_group(TPU_V3, 2))
        solver = PairCostModel(make_group(TPU_V3, 2), make_group(twin, 2))
        by_branch = branch.pack_step_tensors(stages)
        by_solver = solver.pack_step_tensors(stages)
        assert branch.stats.ratio_symmetric == by_branch.alpha.size
        assert solver.stats.ratio_symmetric == 0
        assert np.all(by_branch.alpha == 0.5)
        assert np.max(np.abs(by_solver.alpha - 0.5)) <= 1e-9
        finite = np.isfinite(by_solver.cost)
        assert np.array_equal(finite, np.isfinite(by_branch.cost))
        assert np.allclose(by_branch.cost[finite], by_solver.cost[finite],
                           rtol=1e-12, atol=0.0)


class TestCounters:
    @pytest.fixture
    def packs(self, monkeypatch):
        """(symmetric, mode, cells) of every pack the planner builds."""
        seen = []
        original = PairCostModel.pack_step_tensors

        def spy(model, stages):
            pack = original(model, stages)
            seen.append((model.party_i.signature()
                         == model.party_j.signature(),
                         model.ratio_mode, pack.alpha.size))
            return pack

        monkeypatch.setattr(PairCostModel, "pack_step_tensors", spy)
        return seen

    @pytest.mark.parametrize("model,array,scheme", [
        ("resnet18", "tpu-v2:4,tpu-v3:4", "accpar"),
        ("alexnet", "hetero", "accpar"),
        ("vgg11", "tpu-v3:3", "greedy"),
        ("lenet", "tpu-v2:2,tpu-v3:2", "hypar"),
    ])
    def test_symmetric_cells_are_counted(self, packs, model, array, scheme):
        owner = Participant()
        previous = set_request_context(owner)
        try:
            Planner(parse_array(array), get_scheme(scheme)).plan(
                build_model(model), 64)
        finally:
            set_request_context(*previous)
        counts = owner.planner_counts()
        balanced = [(sym, cells) for sym, mode, cells in packs
                    if mode == "balanced"]
        assert counts.get("ratio_symmetric", 0) == \
            sum(cells for sym, cells in balanced if sym)
        assert counts.get("ratio_solves", 0) == \
            sum(cells for _, cells in balanced)
        assert sum(counts.get(name, 0) for name in PATHS) == \
            counts.get("ratio_solves", 0)
        if scheme != "hypar":
            assert counts["ratio_symmetric"] > 0


class TestZooPlans:
    """Every split between identical groups stores α exactly 0.5."""

    @staticmethod
    def assert_half_at_identical_splits(planned):
        checked = 0

        def visit(node, plan):
            nonlocal checked
            if plan is None or plan.level_plan is None:
                return
            if symmetric(node):
                for entry in plan.level_plan.entries:
                    assert entry.alpha == 0.5, (str(node.group), entry)
                    checked += 1
            visit(node.left, plan.left)
            visit(node.right, plan.right)

        visit(planned.tree, planned.plan)
        return checked

    @pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
    def test_zoo(self, case):
        planned = plan(*case)
        checked = self.assert_half_at_identical_splits(planned)
        assert checked > 0 or not any(symmetric(n)
                                      for n in splits(planned.tree))

    @pytest.mark.parametrize("profile", ["effective-tpu", "split-collision"])
    @pytest.mark.parametrize("case", [c for c in ZOO if c[2] == "accpar"],
                             ids=[i for c, i in zip(ZOO, ZOO_IDS)
                                  if c[2] == "accpar"])
    def test_zoo_under_a_calibrated_profile(self, case, profile):
        model, array, scheme, backend = case
        planned = Planner(
            parse_array(array),
            get_scheme(scheme, backend=backend, profile=PROFILES[profile]),
        ).plan(build_model(model), 64)
        self.assert_half_at_identical_splits(planned)
