"""Training-algorithm substrate: optimizer cost models and update rules."""

from .loop import (
    TrainingRun,
    compare_runs,
    conv_synthetic_task,
    synthetic_task,
    train_partitioned,
    train_reference,
    train_reference_conv,
)
from .optimizers import (
    ADAM,
    AdamRule,
    MOMENTUM,
    MomentumRule,
    OPTIMIZERS,
    OptimizerSpec,
    SGD,
    SgdRule,
    UpdateRule,
    get_optimizer,
    make_rule,
)

__all__ = [
    "ADAM",
    "AdamRule",
    "MOMENTUM",
    "MomentumRule",
    "OPTIMIZERS",
    "OptimizerSpec",
    "SGD",
    "SgdRule",
    "TrainingRun",
    "UpdateRule",
    "compare_runs",
    "conv_synthetic_task",
    "get_optimizer",
    "make_rule",
    "synthetic_task",
    "train_partitioned",
    "train_reference",
    "train_reference_conv",
]
