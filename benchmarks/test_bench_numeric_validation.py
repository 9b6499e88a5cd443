"""Numeric validation bench: execute the partition algebra exhaustively.

Runs two-device training for every 3-layer type combination at three
ratios (81 configurations) with real matrices, asserting bit-level
agreement with single-device training and exact Table 4 / Table 5
communication counts — the executable proof behind the analytic model the
other benches rely on.
"""

import itertools

import pytest

from repro.core.types import PartitionType
from repro.experiments.reporting import format_table
from repro.numeric import MlpSpec, validate_partitioned_training
from repro.plan import LayerPartition

from conftest import save_artifact

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


@pytest.mark.benchmark(group="numeric")
def test_exhaustive_numeric_validation(benchmark, results_dir):
    spec = MlpSpec([8, 8, 8, 8])

    def validate_all():
        results = []
        for combo in itertools.product((I, II, III), repeat=3):
            for ratio in (0.25, 0.5, 0.75):
                plan = [LayerPartition(t, ratio) for t in combo]
                report = validate_partitioned_training(spec, plan, batch=8)
                results.append((combo, ratio, report))
        return results

    results = benchmark.pedantic(validate_all, rounds=1, iterations=1,
                                 warmup_rounds=0)

    assert len(results) == 81
    worst_grad = 0.0
    for combo, ratio, report in results:
        assert report.numerically_exact, (combo, ratio)
        assert report.intra_matches_table4, (combo, ratio)
        assert report.inter_matches_table5, (combo, ratio)
        worst_grad = max(worst_grad, report.max_gradient_error)

    text = format_table(
        ["configurations", "numerically exact", "Table 4 counts",
         "Table 5 counts", "worst gradient error"],
        [["81 (27 type combos x 3 ratios)", "81/81", "81/81", "81/81",
          f"{worst_grad:.2e}"]],
        title="Exhaustive numeric validation of the partition algebra",
    )
    save_artifact(results_dir, "numeric_validation.txt", text)
