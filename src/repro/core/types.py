"""Partition algebra: the three basic tensor-partitioning types of Section 3.

For each type, exactly one of the three dimensions ``B`` / ``D_i`` / ``D_o``
is partitioned between the two parties; the table below (the paper's Table 3,
"rotational symmetry") records which tensor is replicated and which phase
produces partial sums that must be exchanged:

========  =============  ===================  =====================  ==========
type      partitioned    replicated tensor    partial-sum tensor     psum phase
========  =============  ===================  =====================  ==========
Type-I    ``B``          ``W_l``              ``ΔW_l`` (= A(W_l))    gradient
Type-II   ``D_i``        ``E_{l+1}``          ``F_{l+1}``            forward
Type-III  ``D_o``        ``F_l``              ``E_l``                backward
========  =============  ===================  =====================  ==========

:class:`ShardedWorkload` carries a layer workload together with the
*fractions* of each logical dimension a party (or group) holds after the
partitions applied at enclosing hierarchy levels.  Fractions are real-valued
so that the flexible ratios of Section 5.3 compose exactly across levels;
all tensor sizes and FLOP counts derived from them are therefore also
real-valued ("effective" amounts, in the paper's words).  The planner keeps
a level's fractions as one table (:class:`repro.core.stages.ShardedStages`)
and shards it there; a :class:`ShardedWorkload` is one row of that table,
the scalar form that the simulator, the memory report and the other
per-layer readers use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from ..graph.layers import LayerWorkload


class PartitionType(enum.Enum):
    """The three basic tensor-partitioning types (Figure 1)."""

    TYPE_I = "I"     # partition the batch dimension B     (data parallelism)
    TYPE_II = "II"   # partition the input dimension D_i   (model parallelism)
    TYPE_III = "III"  # partition the output dimension D_o (the type OWT/HyPar miss)

    # planner inner loops are dict-heavy with partition-type keys; the
    # default Enum.__hash__ is a Python-level function, while members are
    # singletons so the C-level identity hash is exact and much cheaper
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return f"Type-{self.value}"


#: the full search space T of Section 5.1
ALL_TYPES: Tuple[PartitionType, ...] = (
    PartitionType.TYPE_I,
    PartitionType.TYPE_II,
    PartitionType.TYPE_III,
)

#: the incomplete space used by OWT / HyPar (data + model parallelism)
HYPAR_TYPES: Tuple[PartitionType, ...] = (PartitionType.TYPE_I, PartitionType.TYPE_II)


class Phase(enum.Enum):
    """The three tensor computing phases of DNN training (Section 2.1)."""

    FORWARD = "forward"
    BACKWARD = "backward"
    GRADIENT = "gradient"


#: which dimension each type partitions
PARTITIONED_DIM: Dict[PartitionType, str] = {
    PartitionType.TYPE_I: "B",
    PartitionType.TYPE_II: "D_i",
    PartitionType.TYPE_III: "D_o",
}

#: which tensor must be fully replicated on both parties (Section 3.2)
REPLICATED_TENSOR: Dict[PartitionType, str] = {
    PartitionType.TYPE_I: "W",
    PartitionType.TYPE_II: "E_out",   # E_{l+1}
    PartitionType.TYPE_III: "F_in",   # F_l
}

#: which phase requires the partial-sum exchange (Table 3 / Table 4)
PSUM_PHASE: Dict[PartitionType, Phase] = {
    PartitionType.TYPE_I: Phase.GRADIENT,
    PartitionType.TYPE_II: Phase.FORWARD,
    PartitionType.TYPE_III: Phase.BACKWARD,
}


def _reduction_flops(reduction: float) -> float:
    """FLOPs per output element of a length-``reduction`` dot product.

    Integer reductions of length K cost 2K-1 (K multiplies, K-1 adds,
    Table 6).  Deep hierarchies can shard a dimension below one effective
    element; the cost then degrades to the multiplies alone, never negative.
    """
    return 2.0 * reduction - 1.0 if reduction >= 1.0 else reduction


@dataclass(frozen=True)
class ShardedWorkload:
    """A layer workload scaled by the dimension fractions a party holds.

    ``batch_frac`` / ``din_frac`` / ``dout_frac`` are the shares of ``B`` /
    ``D_i`` / ``D_o`` retained after all enclosing hierarchy levels.  A fresh
    (unsharded) layer has all fractions equal to 1.  One row of a
    :class:`~repro.core.stages.ShardedStages` table, as its
    ``workloads()`` accessor hands it out; the search itself reads the
    table's columns (:meth:`~repro.core.stages.ShardedStages.sizes`), which
    repeat these formulas in their operation order.
    """

    base: LayerWorkload
    batch_frac: float = 1.0
    din_frac: float = 1.0
    dout_frac: float = 1.0

    def __post_init__(self) -> None:
        for field in ("batch_frac", "din_frac", "dout_frac"):
            value = getattr(self, field)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{field} must be in (0, 1], got {value}")
        # computed once, at construction: the simulator's trace events and
        # the bisection-fed reference recurrence read each of these many
        # times per workload.  ShardedStages.sizes repeats these formulas,
        # in this operation order, as columns.  (A frozen dataclass still
        # has a writable __dict__.)
        base = self.base
        batch = base.batch * self.batch_frac
        d_in = base.d_in * self.din_frac
        d_out = base.d_out * self.dout_frac
        a_in = batch * d_in * base.in_spatial
        a_out = batch * d_out * base.out_spatial
        a_w = d_in * d_out * base.kernel_spatial
        f_fwd = a_out * _reduction_flops(d_in * base.kernel_spatial)
        f_bwd = a_in * _reduction_flops(d_out * base.kernel_spatial)
        f_grad = a_w * _reduction_flops(batch * base.out_spatial)
        self.__dict__.update(
            _a_input_fm=a_in,
            _a_output_fm=a_out,
            _a_weight=a_w,
            _flops_forward=f_fwd,
            _flops_backward=f_bwd,
            _flops_gradient=f_grad,
            _flops_total=f_fwd + f_bwd + f_grad,
        )

    # -- effective dimensions ------------------------------------------
    @property
    def name(self) -> str:
        return self.base.name

    @property
    def batch(self) -> float:
        return self.base.batch * self.batch_frac

    @property
    def d_in(self) -> float:
        return self.base.d_in * self.din_frac

    @property
    def d_out(self) -> float:
        return self.base.d_out * self.dout_frac

    # -- effective tensor sizes (the paper's A(.)) ----------------------
    def a_input_fm(self) -> float:
        """A(F_l) = A(E_l)."""
        return self._a_input_fm

    def a_output_fm(self) -> float:
        """A(F_{l+1}) = A(E_{l+1})."""
        return self._a_output_fm

    def a_weight(self) -> float:
        """A(W_l) = A(ΔW_l)."""
        return self._a_weight

    def a_psum(self, ptype: PartitionType) -> float:
        """Size of the partial-sum tensor exchanged intra-layer (Table 4)."""
        if ptype is PartitionType.TYPE_I:
            return self.a_weight()
        if ptype is PartitionType.TYPE_II:
            return self.a_output_fm()
        return self.a_input_fm()

    def a_replicated(self, ptype: PartitionType) -> float:
        """Size of the tensor replicated on both parties under ``ptype``."""
        if ptype is PartitionType.TYPE_I:
            return self.a_weight()
        if ptype is PartitionType.TYPE_II:
            return self.a_output_fm()  # E_{l+1} has the output fm shape
        return self.a_input_fm()       # F_l

    # -- FLOP counts (Table 6, CONV-extended per Section 4.3) ----------
    def flops_forward(self) -> float:
        """A(F_{l+1}) * (2 * D_i * K_h * K_w - 1)."""
        return self._flops_forward

    def flops_backward(self) -> float:
        """A(E_l) * (2 * D_o * K_h * K_w - 1)."""
        return self._flops_backward

    def flops_gradient(self) -> float:
        """A(W_l) * (2 * B * H_o * W_o - 1)."""
        return self._flops_gradient

    def flops_total(self) -> float:
        return self._flops_total

    def flops_phase(self, phase: Phase) -> float:
        if phase is Phase.FORWARD:
            return self.flops_forward()
        if phase is Phase.BACKWARD:
            return self.flops_backward()
        return self.flops_gradient()
