"""Partitioned training over a pairing tree: Sections 3 and 5.1 executed.

Everything else in the library *models* the three partitioning types; this
module runs them with numpy on simulated devices.  A plan is a pairing tree
(:class:`~repro.plan.ir.HierarchicalPlan`): every internal node splits each
layer's three operands — input A, kernel W, output error E — between its
two subtrees by the node's (type, ratio) for that layer (Figure 1):

* **Type-I** splits the batch axis of A and E; W is replicated;
* **Type-II** splits the input-feature axis of A and W; E is replicated;
* **Type-III** splits the output-feature axis of W and E; A is replicated.

Each phase's result has the axes of one operand: forward's those of E,
backward's those of A, gradient's those of W.  The subtrees' results are
concatenated along that operand's split axis; when the operand is
replicated they are full-shape partial sums, exchanged and added.  That one
rule yields Table 3's psum phase of every type at every level, for FC and
CONV alike — the spec supplies only the three leaf kernels, which is
Section 3.3's claim that CONV changes the arithmetic but not the structure.

The executor counts the psum elements each party fetches per (level, layer)
(Table 4) and the re-sharding traffic of every layer boundary at the root
split (Table 5), so the tests can check the analytic communication model
against an actual execution and the results bit-for-bit (float64) against
the single-device references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.types import PartitionType, Phase
from ..plan.ir import HierarchicalPlan, LayerAssignment, LayerPartition, LevelPlan
from .conv_reference import CnnSpec
from .reference import MlpSpec, relu, relu_grad
from .sharding import (
    AxisShard,
    Layout,
    error_consumer_layout,
    error_producer_layout,
    input_layout,
    output_layout,
    overlap_elements,
    reassemble,
    split_point,
    take,
)

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III

#: the axis each type splits in (A, W, E); ``None`` = replicated
SPLIT_AXES = {I: (0, None, 0), II: (1, 0, None), III: (None, 1, 1)}

#: the operand of (A, W, E) whose axes each phase's result has
RESULT_OPERAND = {Phase.FORWARD: 2, Phase.BACKWARD: 0, Phase.GRADIENT: 1}


@dataclass
class CommLog:
    """Remotely fetched element counts, per (left, right) party.

    ``intra`` holds the partial sums exchanged per ``(level, layer)``,
    summed over the level's nodes (Table 4); ``inter_forward`` and
    ``inter_backward`` hold the re-sharding of each ``boundary{k}`` (the
    input of layer k) between the root split's two parties (Table 5).
    """

    intra: Dict[Tuple[int, str], Tuple[int, int]] = field(default_factory=dict)
    inter_forward: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    inter_backward: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def record(self, table: Dict, key, d0: int, d1: int) -> None:
        prev = table.get(key, (0, 0))
        table[key] = (prev[0] + d0, prev[1] + d1)

    def per_level_totals(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for (level, _), (a, b) in self.intra.items():
            out[level] = out.get(level, 0) + a + b
        return out

    def total_elements(self) -> int:
        return sum(
            a + b
            for table in (self.intra, self.inter_forward, self.inter_backward)
            for a, b in table.values()
        )


@dataclass
class PartitionedTrace:
    """Results of one partitioned training step, reassembled."""

    activations: List[np.ndarray]
    gradients: List[np.ndarray]
    loss: float
    comm: CommLog
    n_leaf_devices: int


def symmetric_plan(level_plans: Sequence[Sequence[LayerPartition]],
                   layer_names: Sequence[str]) -> HierarchicalPlan:
    """The pairing tree whose nodes at depth ``l`` all apply
    ``level_plans[l]`` (one partition per layer); one level is the
    two-device plan, none the single device."""
    for level, parts in enumerate(level_plans):
        if len(parts) != len(layer_names):
            raise ValueError(
                f"level {level} has {len(parts)} assignments for "
                f"{len(layer_names)} layers"
            )
    node = HierarchicalPlan(None)
    for parts in reversed(level_plans):
        entries = (LayerAssignment(name, p.ptype, p.ratio)
                   for name, p in zip(layer_names, parts))
        node = HierarchicalPlan(LevelPlan(entries), node, node)
    return node


def _checked_leaf_count(node: HierarchicalPlan,
                        layer_names: Sequence[str]) -> int:
    """Leaves under ``node``, after checking every split assigns every layer."""
    if node.level_plan is None:
        return 1
    assigned = {a.name for a in node.level_plan.layers()}
    missing = [name for name in layer_names if name not in assigned]
    if missing:
        raise ValueError(f"plan misses assignments for layers {missing}")
    assert node.left is not None and node.right is not None
    return (_checked_leaf_count(node.left, layer_names)
            + _checked_leaf_count(node.right, layer_names))


def _halves(t: Optional[np.ndarray], axis: Optional[int], ratio: float):
    if t is None or axis is None:
        return t, t
    shard = AxisShard(t.shape[axis], split_point(t.shape[axis], ratio))
    return take(t, shard, 0, axis), take(t, shard, 1, axis)


def _reshard_fetches(shape: Tuple[int, ...], src: Layout,
                     dst: Layout) -> Tuple[int, int]:
    """Elements each party fetches to turn ``src`` into ``dst``; layouts
    shard the (batch, feature) grid and trailing spatial axes ride along."""
    grid, cells = (shape[0], shape[1]), math.prod(shape[2:])
    fetched = [
        (math.prod(dst.owned_extent(d, grid))
         - overlap_elements(src, dst, d, grid)) * cells
        for d in (0, 1)
    ]
    return fetched[0], fetched[1]


class PartitionedExecutor:
    """Execute one training step of an MLP or CNN under a pairing-tree plan.

    ``plan`` is a :class:`~repro.plan.ir.HierarchicalPlan` (the planner's
    output, read as is: per-node types and ratios, unbalanced trees
    included) or a list over levels of per-layer
    :class:`~repro.plan.ir.LayerPartition` lists, converted by
    :func:`symmetric_plan`.  ``layer_names[k]`` is layer ``k``'s name in the
    plan (default: the spec's).
    """

    def __init__(
        self,
        spec: Union[MlpSpec, CnnSpec],
        weights: Sequence[np.ndarray],
        plan: Union[HierarchicalPlan, Sequence[Sequence[LayerPartition]]],
        batch: int,
        layer_names: Optional[Sequence[str]] = None,
    ):
        self.spec = spec
        self.weights = [w.astype(np.float64) for w in weights]
        self.batch = batch
        self.layer_names = list(
            spec.layer_names if layer_names is None else layer_names
        )
        if len(self.layer_names) != spec.n_layers:
            raise ValueError("layer_names must cover every layer")
        if not isinstance(plan, HierarchicalPlan):
            plan = symmetric_plan(plan, self.layer_names)
        self.plan = plan
        self.n_leaf_devices = _checked_leaf_count(plan, self.layer_names)
        self._kernels = {
            Phase.FORWARD: spec.forward,
            Phase.BACKWARD: spec.input_grad,
            Phase.GRADIENT: spec.weight_grad,
        }

    def _run(self, node: HierarchicalPlan, level: int, k: int, phase: Phase,
             a: np.ndarray, w: np.ndarray, e: Optional[np.ndarray],
             log: CommLog) -> np.ndarray:
        """Layer ``k``'s ``phase`` on the devices under ``node``."""
        if node.level_plan is None:
            return self._kernels[phase](k, a, w, e)
        name = self.layer_names[k]
        part = node.level_plan.partition(name)
        axes = SPLIT_AXES[part.ptype]
        (a0, a1), (w0, w1), (e0, e1) = (
            _halves(t, axis, part.ratio) for t, axis in zip((a, w, e), axes)
        )
        r0 = self._run(node.left, level + 1, k, phase, a0, w0, e0, log)
        r1 = self._run(node.right, level + 1, k, phase, a1, w1, e1, log)
        axis = axes[RESULT_OPERAND[phase]]
        if axis is None:
            # each party fetches the peer's full partial sum (Table 4)
            log.record(log.intra, (level, name), r1.size, r0.size)
            return r0 + r1
        return reassemble(r0, r1, axis)

    def _count_reshards(self, activations: List[np.ndarray],
                        log: CommLog) -> None:
        """Table 5: re-shard every boundary between the root's layouts."""
        root = self.plan.level_plan
        if root is None:
            return
        parts = [
            (root.partition(name), (self.batch, w.shape[0], w.shape[1]))
            for name, w in zip(self.layer_names, self.weights)
        ]
        produced = Layout("full")  # the network input is replicated
        for k, (part, dims) in enumerate(parts):
            log.record(log.inter_forward, f"boundary{k}", *_reshard_fetches(
                activations[k].shape, produced, input_layout(part, *dims)))
            produced = output_layout(part, *dims)
        produced = Layout("full")  # the loss produces the error replicated
        for k in range(len(parts) - 1, -1, -1):
            part, dims = parts[k]
            log.record(log.inter_backward, f"boundary{k + 1}", *_reshard_fetches(
                activations[k + 1].shape, produced,
                error_consumer_layout(part, *dims)))
            produced = error_producer_layout(part, *dims)

    def step(self, x: np.ndarray, target: np.ndarray) -> PartitionedTrace:
        n = self.spec.n_layers
        log = CommLog()

        activations = [x.astype(np.float64)]
        pre_acts: List[np.ndarray] = []
        for k in range(n):
            z = self._run(self.plan, 0, k, Phase.FORWARD, activations[k],
                          self.weights[k], None, log)
            pre_acts.append(z)
            activations.append(relu(z) if k < n - 1 else z)

        output = activations[-1]
        loss = 0.5 * float(np.sum((output - target) ** 2))

        # errors[k] is the gradient of the loss w.r.t. pre_acts[k]
        errors: List[Optional[np.ndarray]] = [None] * n
        errors[n - 1] = output - target
        for k in range(n - 2, -1, -1):
            propagated = self._run(self.plan, 0, k + 1, Phase.BACKWARD,
                                   activations[k + 1], self.weights[k + 1],
                                   errors[k + 1], log)
            errors[k] = propagated * relu_grad(pre_acts[k])

        gradients = [
            self._run(self.plan, 0, k, Phase.GRADIENT, activations[k],
                      self.weights[k], errors[k], log)
            for k in range(n)
        ]
        self._count_reshards(activations, log)
        return PartitionedTrace(
            activations=activations,
            gradients=gradients,
            loss=loss,
            comm=log,
            n_leaf_devices=self.n_leaf_devices,
        )
