"""Ablation A1: flexible (Eq. 10) vs equal partitioning ratios.

Isolates the heterogeneity-awareness of AccPar: the same complete-space DP
with ratios pinned to 1/2.  On the heterogeneous array the flexible ratio
should recover most of AccPar's edge; on the homogeneous array the two must
coincide (the balanced ratio solves to 1/2).
"""

import pytest

from repro.core.planner import PartitionScheme, Planner
from repro.experiments.reporting import format_table
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.models import build_model
from repro.sim.executor import evaluate

from conftest import save_artifact

MODELS = ["alexnet", "vgg19", "resnet18"]


def run(array, scheme, model, batch=512):
    planned = Planner(array, scheme).plan(build_model(model), batch)
    return evaluate(planned).total_time


@pytest.mark.benchmark(group="ablations")
def test_ablation_flexible_vs_equal_ratio(benchmark, results_dir):
    """Three ratio policies: equal (1/2), a single global compute-
    proportional α, and the per-layer Eq. 10 balance."""
    hetero = heterogeneous_array()
    flexible = PartitionScheme()
    proportional = PartitionScheme(ratio_mode="proportional", name="accpar-prop")
    equal = PartitionScheme(ratio_mode="equal", name="accpar-eq")

    def sweep_ablation():
        return {
            model: (
                run(hetero, flexible, model),
                run(hetero, proportional, model),
                run(hetero, equal, model),
            )
            for model in MODELS
        }

    times = benchmark.pedantic(sweep_ablation, rounds=1, iterations=1,
                               warmup_rounds=0)

    rows = []
    for model, (t_flex, t_prop, t_eq) in times.items():
        gain = t_eq / t_flex
        rows.append([model, f"{t_eq * 1e3:.2f} ms", f"{t_prop * 1e3:.2f} ms",
                     f"{t_flex * 1e3:.2f} ms", f"{gain:.2f}x"])
        assert t_flex <= t_eq * (1 + 1e-6), model
        # per-layer balance should not lose to the single global ratio
        assert t_flex <= t_prop * (1 + 0.02), model

    text = format_table(
        ["model", "equal ratio", "proportional", "Eq. 10 per layer", "gain"],
        rows,
        title="Ablation A1: ratio policies on the heterogeneous array",
    )
    save_artifact(results_dir, "ablation_ratio.txt", text)


@pytest.mark.benchmark(group="ablations")
def test_equal_and_flexible_coincide_on_homogeneous(benchmark, results_dir):
    homo = homogeneous_array(16)

    def run_pair():
        flexible = run(homo, PartitionScheme(), "alexnet", batch=128)
        equal = run(homo, PartitionScheme(ratio_mode="equal", name="accpar-eq"),
                    "alexnet", batch=128)
        return flexible, equal

    t_flex, t_eq = benchmark.pedantic(run_pair, rounds=1, iterations=1,
                                      warmup_rounds=0)
    assert t_flex == pytest.approx(t_eq, rel=0.02)
