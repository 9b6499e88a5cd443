"""Ablation A2: the complete {I, II, III} space vs HyPar's {I, II}.

Isolates Type-III (the partition overlooked by prior work, Section 3.2.3):
the same cost model and flexible ratios, with the search space restricted.
Dominance is exact on the planner's objective; on the independent simulator
we report the measured gain per model.
"""

import pytest

from repro.core.planner import PartitionScheme, Planner
from repro.core.types import HYPAR_TYPES, PartitionType
from repro.experiments.reporting import format_table
from repro.hardware import heterogeneous_array
from repro.models import build_model
from repro.sim.executor import evaluate

from conftest import save_artifact

MODELS = ["alexnet", "vgg19", "resnet18"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_complete_vs_two_type_space(benchmark, results_dir):
    array = heterogeneous_array()
    full_scheme = PartitionScheme()
    two_scheme = PartitionScheme(space=HYPAR_TYPES, name="accpar-2type")

    def sweep_ablation():
        out = {}
        for model in MODELS:
            net = build_model(model)
            planned_full = Planner(array, full_scheme).plan(net, 512)
            planned_two = Planner(array, two_scheme).plan(build_model(model), 512)
            out[model] = (
                planned_full.root_level_plan.cost,
                planned_two.root_level_plan.cost,
                evaluate(planned_full).total_time,
                evaluate(planned_two).total_time,
            )
        return out

    results = benchmark.pedantic(sweep_ablation, rounds=1, iterations=1,
                                 warmup_rounds=0)

    rows = []
    for model, (obj_full, obj_two, t_full, t_two) in results.items():
        # exact dominance on the search objective
        assert obj_full <= obj_two * (1 + 1e-9), model
        rows.append(
            [model, f"{obj_two / obj_full:.3f}x", f"{t_two / t_full:.3f}x"]
        )

    text = format_table(
        ["model", "objective gain", "simulated gain"],
        rows,
        title="Ablation A2: adding Type-III to the search space (vs {I, II})",
    )
    save_artifact(results_dir, "ablation_space.txt", text)


@pytest.mark.benchmark(group="ablations")
def test_type_iii_actually_selected(benchmark, results_dir):
    """The complete space is only meaningful if Type-III gets chosen."""
    array = heterogeneous_array()

    def count_type_iii():
        planned = Planner(array, PartitionScheme()).plan(build_model("alexnet"), 512)
        total = 0
        for level in planned.level_plans():
            total += level.type_counts()[PartitionType.TYPE_III]
        return total

    picked = benchmark.pedantic(count_type_iii, rounds=1, iterations=1,
                                warmup_rounds=0)
    save_artifact(results_dir, "ablation_type_iii_usage.txt",
                  f"Type-III selections across all alexnet levels: {picked}")
    assert picked > 0
