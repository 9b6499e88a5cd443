"""Ablation A3: heterogeneity-aware grouping vs interleaved grouping.

The paper splits the 128+128 array so that TPU-v2 and TPU-v3 part ways at
the first hierarchy level (each subgroup is then homogeneous).  This bench
compares that against a heterogeneity-unaware placement where every
subgroup keeps an even v2/v3 mix — quantifying how much of AccPar's win
depends on grouping, not just per-layer ratios.
"""

import pytest

from repro.core.planner import PartitionScheme, Planner
from repro.experiments.reporting import format_table
from repro.hardware import heterogeneous_array
from repro.models import build_model
from repro.sim.executor import evaluate

from conftest import save_artifact

MODELS = ["alexnet", "vgg19", "resnet18"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_grouping_policy(benchmark, results_dir):
    array = heterogeneous_array()

    def run_both():
        out = {}
        for model in MODELS:
            separated = Planner(array, PartitionScheme(),
                                split_policy="type-separated").plan(
                build_model(model), 512
            )
            interleaved = Planner(array, PartitionScheme(),
                                  split_policy="interleaved").plan(
                build_model(model), 512
            )
            out[model] = (
                evaluate(separated).total_time,
                evaluate(interleaved).total_time,
            )
        return out

    times = benchmark.pedantic(run_both, rounds=1, iterations=1, warmup_rounds=0)

    rows = []
    for model, (t_sep, t_mix) in times.items():
        rows.append(
            [model, f"{t_sep * 1e3:.2f} ms", f"{t_mix * 1e3:.2f} ms",
             f"{t_mix / t_sep:.2f}x"]
        )
    text = format_table(
        ["model", "type-separated", "interleaved", "separation gain"],
        rows,
        title="Ablation A3: grouping policy on the heterogeneous array (AccPar)",
    )
    save_artifact(results_dir, "ablation_grouping.txt", text)

    # the type-separated grouping should not lose to the naive mix
    for model, (t_sep, t_mix) in times.items():
        assert t_sep <= t_mix * 1.05, model
