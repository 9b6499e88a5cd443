"""Prove the partition algebra numerically (Section 3, executed).

Runs real two-device training — FC and CONV — for every partitioning type,
compares gradients bit-for-bit against single-device training, checks the
communicated element counts against Tables 4/5, and finishes with a full
multi-step momentum training run that tracks the reference exactly.

Run:
    python examples/numeric_validation.py
"""

import itertools

from repro.core.types import PartitionType
from repro.numeric import (
    CnnSpec,
    ConvLayerSpec,
    MlpSpec,
    validate_conv_partitioned_training,
    validate_partitioned_training,
)
from repro.plan import LayerPartition
from repro.training import compare_runs, synthetic_task, train_partitioned, train_reference

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def main() -> None:
    # 1. FC: all 27 three-layer type combinations
    spec = MlpSpec([8, 8, 8, 8])
    print("FC partition algebra (27 type combinations, alpha=0.25):")
    exact = 0
    for combo in itertools.product((I, II, III), repeat=3):
        plan = [LayerPartition(t, 0.25) for t in combo]
        report = validate_partitioned_training(spec, plan, batch=8)
        assert report.numerically_exact
        assert report.intra_matches_table4 and report.inter_matches_table5
        exact += 1
    print(f"  {exact}/27 exact, Table 4/5 element counts all match\n")

    # 2. CONV: the Section 3.3 extension
    cnn = CnnSpec(4, 8, 8, [ConvLayerSpec(4, 6, kernel=3, padding=1),
                            ConvLayerSpec(6, 4, kernel=3, stride=2, padding=1)])
    print("CONV partition algebra (9 type pairs):")
    for t0, t1 in itertools.product((I, II, III), repeat=2):
        report = validate_conv_partitioned_training(
            cnn, [LayerPartition(t0, 0.5), LayerPartition(t1, 0.5)], batch=4
        )
        status = "exact" if report.numerically_exact else "FAILED"
        print(f"  {t0!s:>9} -> {t1!s:<9} {status}  "
              f"(max grad err {report.max_gradient_error:.1e}, "
              f"{report.comm_total_elements} elements moved)")

    # 3. a full training run with momentum, partitioned vs reference
    print("\nmulti-step training (momentum, mixed II/III/I plan):")
    mlp = MlpSpec([8, 12, 8, 4])
    x, target = synthetic_task(mlp, batch=16)
    plan = [LayerPartition(II, 0.5), LayerPartition(III, 0.5),
            LayerPartition(I, 0.5)]
    ref = train_reference(mlp, x, target, steps=30, optimizer="momentum")
    par = train_partitioned(mlp, plan, x, target, steps=30, optimizer="momentum")
    print(f"  loss: {ref.losses[0]:.4f} -> {ref.final_loss:.4f} (reference)")
    print(f"  loss: {par.losses[0]:.4f} -> {par.final_loss:.4f} (partitioned)")
    print(f"  max final weight divergence: {compare_runs(ref, par):.2e}")


if __name__ == "__main__":
    main()
