"""Numeric validation substrate: execute the partition algebra for real.

Everything else in the library *models* the three partitioning types; this
package runs them with numpy on simulated devices and checks the results
(and the communication element counts) against a single-device reference —
the executable proof of Sections 3 and 5.1.

One executor, :class:`PartitionedExecutor`, runs a training step under any
pairing-tree plan: a two-device plan is a one-level tree, a symmetric level
list becomes a tree via :func:`symmetric_plan`, and the planner's
:class:`~repro.plan.ir.HierarchicalPlan` is read directly.  FC and CONV
networks differ only in the three leaf kernels their spec supplies
(:class:`MlpSpec`, :class:`CnnSpec`).  The references
(:func:`reference_step`, :func:`conv_reference_step`) and the analytic
Table 4 / Table 5 counters in :mod:`repro.numeric.validate` are the oracles.
"""

from .conv_reference import (
    CnnSpec,
    ConvLayerSpec,
    ConvTrace,
    col2im,
    conv_forward,
    conv_input_grad,
    conv_reference_step,
    conv_weight_grad,
    im2col,
)
from .executor import CommLog, PartitionedExecutor, PartitionedTrace, symmetric_plan
from .reference import (
    MlpSpec,
    TrainingTrace,
    numerical_gradients,
    reference_step,
    relu,
    relu_grad,
)
from .sharding import (
    AxisShard,
    Layout,
    effective_alpha,
    error_consumer_layout,
    error_producer_layout,
    input_layout,
    output_layout,
    overlap_elements,
    reassemble,
    shard_for,
    split_point,
    take,
)
from .validate import (
    ValidationReport,
    expected_conv_inter_elements,
    expected_conv_intra_elements,
    expected_inter_elements,
    expected_intra_elements,
    validate_conv_partitioned_training,
    validate_partitioned_training,
)

__all__ = [
    "AxisShard",
    "CnnSpec",
    "CommLog",
    "ConvLayerSpec",
    "ConvTrace",
    "Layout",
    "MlpSpec",
    "PartitionedExecutor",
    "PartitionedTrace",
    "TrainingTrace",
    "ValidationReport",
    "col2im",
    "conv_forward",
    "conv_input_grad",
    "conv_reference_step",
    "conv_weight_grad",
    "effective_alpha",
    "error_consumer_layout",
    "error_producer_layout",
    "expected_conv_inter_elements",
    "expected_conv_intra_elements",
    "expected_inter_elements",
    "expected_intra_elements",
    "im2col",
    "input_layout",
    "numerical_gradients",
    "output_layout",
    "overlap_elements",
    "reassemble",
    "reference_step",
    "relu",
    "relu_grad",
    "shard_for",
    "split_point",
    "symmetric_plan",
    "take",
    "validate_conv_partitioned_training",
    "validate_partitioned_training",
]
