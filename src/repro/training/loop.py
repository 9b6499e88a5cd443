"""Multi-step training loops: reference vs two-device partitioned.

Extends the single-step validation of :mod:`repro.numeric` to full training
runs with a real optimizer: both executions must track each other weight-
for-weight across steps, and the loss must decrease on a learnable synthetic
task — the end-to-end demonstration that partitioned training *is* training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

import numpy as np

from ..numeric.executor import PartitionedExecutor
from ..numeric.reference import MlpSpec, reference_step
from .optimizers import make_rule

if TYPE_CHECKING:
    from ..numeric.conv_reference import CnnSpec
    from ..plan.ir import LayerPartition


@dataclass
class TrainingRun:
    """History of one training loop."""

    losses: List[float]
    weights: List[np.ndarray]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def synthetic_task(
    spec: MlpSpec, batch: int, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """A learnable regression task: targets from a random teacher network."""
    rng = np.random.default_rng(seed + 1000)
    x = rng.standard_normal((batch, spec.widths[0]))
    teacher = spec.init_weights(seed + 2000)
    target = reference_step(teacher, x, np.zeros((batch, spec.widths[-1]))).activations[-1]
    return x, target


def train_reference(
    spec: MlpSpec,
    x: np.ndarray,
    target: np.ndarray,
    steps: int,
    optimizer: str = "sgd",
    seed: int = 0,
    **opt_kwargs,
) -> TrainingRun:
    """Plain single-device training."""
    weights = spec.init_weights(seed)
    rule = make_rule(optimizer, **opt_kwargs)
    losses = []
    for _ in range(steps):
        trace = reference_step(weights, x, target)
        losses.append(trace.loss)
        rule.apply(weights, trace.gradients)
    return TrainingRun(losses=losses, weights=weights)


def train_partitioned(
    spec: Union[MlpSpec, "CnnSpec"],
    plan: Sequence["LayerPartition"],
    x: np.ndarray,
    target: np.ndarray,
    steps: int,
    optimizer: str = "sgd",
    seed: int = 0,
    **opt_kwargs,
) -> TrainingRun:
    """Two-device partitioned training of an MLP or a CNN.

    The optimizer update is element-wise on each device's weight shard;
    because shards tile the weight tensor exactly (and Type-I replicas see
    the identical combined gradient), applying the rule to the assembled
    tensors is mathematically the shard-local update.
    """
    weights = spec.init_weights(seed)
    executor = PartitionedExecutor(spec, weights, [plan], batch=x.shape[0])
    rule = make_rule(optimizer, **opt_kwargs)
    losses = []
    for _ in range(steps):
        trace = executor.step(x, target)
        losses.append(trace.loss)
        rule.apply(executor.weights, trace.gradients)
    return TrainingRun(losses=losses, weights=executor.weights)


def compare_runs(a: TrainingRun, b: TrainingRun) -> float:
    """Largest absolute divergence between two runs' final weights."""
    return max(
        float(np.max(np.abs(wa - wb))) for wa, wb in zip(a.weights, b.weights)
    )


# ----------------------------------------------------------------------
# CONV counterparts
# ----------------------------------------------------------------------
def conv_synthetic_task(spec, batch: int, seed: int = 0):
    """A learnable CONV regression task from a random teacher network."""
    from ..numeric.conv_reference import CnnSpec, conv_reference_step

    assert isinstance(spec, CnnSpec)
    rng = np.random.default_rng(seed + 1000)
    x = rng.standard_normal((batch, spec.in_channels, spec.height, spec.width))
    teacher = spec.init_weights(seed + 2000)
    out_geom = spec.geometries()[-1]
    target = conv_reference_step(
        spec, teacher, x, np.zeros((batch, *out_geom))
    ).activations[-1]
    return x, target


def train_reference_conv(spec, x, target, steps: int, optimizer: str = "sgd",
                         seed: int = 0, **opt_kwargs) -> TrainingRun:
    from ..numeric.conv_reference import conv_reference_step

    weights = spec.init_weights(seed)
    rule = make_rule(optimizer, **opt_kwargs)
    losses = []
    for _ in range(steps):
        trace = conv_reference_step(spec, weights, x, target)
        losses.append(trace.loss)
        rule.apply(weights, trace.gradients)
    return TrainingRun(losses=losses, weights=weights)
