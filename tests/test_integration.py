"""Integration tests: the paper's qualitative claims end-to-end.

These run the full pipeline (model zoo → planner → simulator → speedups) at
reduced array sizes so the suite stays fast, and assert the *shapes* of the
paper's results rather than absolute numbers.
"""

import pytest

from repro.core.planner import PartitionScheme, Planner
from repro.core.types import PartitionType
from repro.experiments.harness import run_scheme, sweep
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.models import RESNET_MODELS, VGG_MODELS
from repro.sim.executor import evaluate

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III

ARRAY = heterogeneous_array(8, 8)
BATCH = 128


@pytest.fixture(scope="module")
def hetero_table():
    return sweep(["alexnet", "vgg11", "resnet18"], ARRAY, batch=BATCH)


class TestSection62Heterogeneous:
    def test_accpar_is_best_on_every_model(self, hetero_table):
        for model in hetero_table.models:
            best = max(
                hetero_table.speedup(model, s) for s in hetero_table.schemes
            )
            assert hetero_table.speedup(model, "accpar") == pytest.approx(best)

    def test_flexibility_ordering_on_geomean(self, hetero_table):
        """Table 8: DP ≺ OWT ≺ HyPar ≺ AccPar (flexibility → performance)."""
        assert hetero_table.geomean("accpar") > hetero_table.geomean("hypar")
        assert hetero_table.geomean("hypar") > hetero_table.geomean("dp")
        assert hetero_table.geomean("owt") > hetero_table.geomean("dp")

    def test_vgg_speedups_exceed_resnet(self):
        table = sweep(["vgg11", "resnet18"], ARRAY, batch=BATCH,
                      schemes=["dp", "accpar"])
        assert table.speedup("vgg11", "accpar") > table.speedup("resnet18", "accpar")


class TestSection63Homogeneous:
    def test_accpar_still_wins_homogeneous(self):
        table = sweep(["alexnet", "resnet18"], homogeneous_array(16), batch=BATCH)
        assert table.geomean("accpar") >= table.geomean("hypar") - 1e-9
        assert table.geomean("accpar") > table.geomean("dp")

    def test_heterogeneity_amplifies_accpar_gap(self):
        models = ["alexnet", "vgg11"]
        hetero = sweep(models, ARRAY, batch=BATCH, schemes=["dp", "hypar", "accpar"])
        homo = sweep(models, homogeneous_array(16), batch=BATCH,
                     schemes=["dp", "hypar", "accpar"])
        gap_hetero = hetero.geomean("accpar") / hetero.geomean("hypar")
        gap_homo = homo.geomean("accpar") / homo.geomean("hypar")
        assert gap_hetero > gap_homo


class TestPlanQuality:
    def test_accpar_simulated_time_beats_baselines_per_model(self):
        """The simulator is independent of the planner objective; AccPar's
        plan must still win there (Section 6's methodology)."""
        for model in ["alexnet", "vgg11", "resnet18"]:
            times = {
                s: run_scheme(model, s, ARRAY, batch=BATCH).time
                for s in ["dp", "owt", "hypar", "accpar"]
            }
            assert times["accpar"] <= min(times.values()) * (1 + 1e-9)

    def test_complete_space_beats_hypar_space(self):
        """Ablation: the Type-III-complete space can only help (Section 3.5).

        On the planner's own Eq. 9 objective the dominance is exact; on the
        independent simulator small inversions are possible because the
        objective is a model of (not identical to) the simulated time, so
        there we only require near-parity.
        """
        from repro.models import build_model

        restricted_scheme = PartitionScheme(space=(I, II), name="accpar-2type")
        for model in ["alexnet", "vgg11"]:
            planned_full = Planner(ARRAY, PartitionScheme()).plan(
                build_model(model), BATCH
            )
            planned_restricted = Planner(ARRAY, restricted_scheme).plan(
                build_model(model), BATCH
            )
            # exact dominance on the search objective at the root level
            # (deeper levels see different sub-problems, so only the root is
            # an apples-to-apples comparison)
            assert (planned_full.root_level_plan.cost
                    <= planned_restricted.root_level_plan.cost * (1 + 1e-9))
            # near-parity on the independent simulator
            t_full = evaluate(planned_full).total_time
            t_restricted = evaluate(planned_restricted).total_time
            assert t_full <= t_restricted * 1.10

    def test_flexible_ratio_beats_equal_ratio_on_hetero(self):
        """Ablation: Eq. 10 ratios vs forced 1/2 on the heterogeneous array."""
        from repro.models import build_model

        equal_scheme = PartitionScheme(ratio_mode="equal", name="accpar-eq")
        for model in ["vgg11", "resnet18"]:
            t_flex = evaluate(
                Planner(ARRAY, PartitionScheme()).plan(build_model(model), BATCH)
            ).total_time
            t_eq = evaluate(
                Planner(ARRAY, equal_scheme).plan(build_model(model), BATCH)
            ).total_time
            assert t_flex <= t_eq * (1 + 1e-6)


class TestMemoryFeasibility:
    @pytest.mark.parametrize("model", ["alexnet", "vgg19", "resnet50"])
    def test_paper_configurations_fit_hbm(self, model):
        result = run_scheme(model, "accpar", heterogeneous_array(8, 8), batch=512)
        assert result.report.fits_memory

    def test_memory_utilization_reported(self):
        result = run_scheme("vgg19", "dp", homogeneous_array(4), batch=512)
        mem = result.report.memory_worst
        assert mem is not None
        assert mem.total_bytes > 0
