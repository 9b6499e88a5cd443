"""End-to-end validation: partitioned execution vs the reference, and the
measured communication vs the analytic model.

This closes the loop on Section 3: the three partitioning types are not
just costed but *executed*, and must reproduce the single-device training
step exactly while moving exactly the element counts Tables 4 and 5
predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.cost_model import inter_layer_elements
from ..core.types import PartitionType
from ..plan.ir import LayerPartition
from .conv_reference import CnnSpec, conv_reference_step
from .executor import PartitionedExecutor
from .reference import MlpSpec, reference_step
from .sharding import effective_alpha

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


@dataclass
class ValidationReport:
    """Outcome of comparing partitioned vs reference training."""

    max_activation_error: float
    max_gradient_error: float
    loss_error: float
    comm_total_elements: int
    intra_matches_table4: bool
    inter_matches_table5: bool

    @property
    def numerically_exact(self) -> bool:
        tol = 1e-9
        return (
            self.max_activation_error < tol
            and self.max_gradient_error < tol
            and self.loss_error < tol
        )


def expected_intra_elements(
    spec: MlpSpec, plan: Sequence[LayerPartition], batch: int
) -> Dict[str, Tuple[int, int]]:
    """Table 4 psum element counts per layer, per device."""
    out: Dict[str, Tuple[int, int]] = {}
    for k, lp in enumerate(plan):
        d_in, d_out = spec.widths[k], spec.widths[k + 1]
        if lp.ptype is I:
            # each device fetches the peer's full ΔW partial sum
            amount = (d_in * d_out, d_in * d_out)
        elif lp.ptype is II:
            # each device fetches the peer's full F_{l+1} partial sum
            amount = (batch * d_out, batch * d_out)
        else:
            if k == 0:
                # the first layer never propagates an error to the network
                # input, so its Type-III backward psum exchange never runs
                continue
            # each device fetches the peer's full E_l partial sum
            amount = (batch * d_in, batch * d_in)
        out[f"layer{k}"] = amount
    return out


def expected_inter_elements(
    spec: MlpSpec, plan: Sequence[LayerPartition], batch: int
) -> Dict[str, Tuple[int, int]]:
    """Table 5 element counts per boundary (F + E directions), per device.

    Valid when adjacent layers share the partitioning ratio and the splits
    are exact (no integer rounding) — the conditions of the paper's
    derivation.
    """
    out: Dict[str, Tuple[int, int]] = {}
    for k in range(1, spec.n_layers):
        prev, cur = plan[k - 1], plan[k]
        alpha = effective_alpha(cur, batch, spec.widths[k], spec.widths[k + 1])
        boundary = batch * spec.widths[k]
        amount_i, amount_j = inter_layer_elements(
            float(boundary), prev.ptype, cur.ptype, alpha
        )
        out[f"boundary{k}"] = (int(round(amount_i)), int(round(amount_j)))
    return out


def expected_conv_intra_elements(
    spec: CnnSpec, plan: Sequence[LayerPartition], batch: int
) -> Dict[str, Tuple[int, int]]:
    """Table 4 psum counts for CONV layers (Section 4.3's spatial scaling)."""
    out: Dict[str, Tuple[int, int]] = {}
    geoms = spec.geometries()
    for k, (lp, layer) in enumerate(zip(plan, spec.layers)):
        _, h_in, w_in = geoms[k]
        _, h_out, w_out = geoms[k + 1]
        if lp.ptype is I:
            amount = layer.in_channels * layer.out_channels * layer.kernel ** 2
        elif lp.ptype is II:
            amount = batch * layer.out_channels * h_out * w_out
        else:
            if k == 0:
                continue  # first layer never propagates error to the input
            amount = batch * layer.in_channels * h_in * w_in
        out[f"layer{k}"] = (amount, amount)
    return out


def expected_conv_inter_elements(
    spec: CnnSpec, plan: Sequence[LayerPartition], batch: int
) -> Dict[str, Tuple[int, int]]:
    """Table 5 boundary counts for CONV layers, per device."""
    out: Dict[str, Tuple[int, int]] = {}
    geoms = spec.geometries()
    for k in range(1, spec.n_layers):
        prev, cur = plan[k - 1], plan[k]
        dims = (batch, spec.layers[k].in_channels, spec.layers[k].out_channels)
        alpha = effective_alpha(cur, *dims)
        c, h, w = geoms[k]
        boundary = batch * c * h * w
        amount_i, amount_j = inter_layer_elements(
            float(boundary), prev.ptype, cur.ptype, alpha
        )
        out[f"boundary{k}"] = (int(round(amount_i)), int(round(amount_j)))
    return out


def _compare(spec, plan: Sequence[LayerPartition], batch: int, weights, x,
             target, ref, expected_intra, expected_inter,
             check_tables: bool) -> ValidationReport:
    """Run the two-device plan on the reference's data and compare."""
    par = PartitionedExecutor(spec, weights, [plan], batch).step(x, target)
    comm = par.comm
    act_err = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(ref.activations, par.activations)
    )
    grad_err = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(ref.gradients, par.gradients)
    )
    loss_err = abs(ref.loss - par.loss)

    intra_ok = True
    inter_ok = True
    if check_tables:
        measured_intra = {
            f"layer{k}": comm.intra[(0, name)]
            for k, name in enumerate(spec.layer_names)
            if (0, name) in comm.intra
        }
        intra_ok = measured_intra == expected_intra(spec, plan, batch)
        expected = expected_inter(spec, plan, batch)
        measured_inter: Dict[str, Tuple[int, int]] = {}
        for key in expected:
            fwd = comm.inter_forward.get(key, (0, 0))
            bwd = comm.inter_backward.get(key, (0, 0))
            measured_inter[key] = (fwd[0] + bwd[0], fwd[1] + bwd[1])
        inter_ok = measured_inter == expected

    return ValidationReport(
        max_activation_error=act_err,
        max_gradient_error=grad_err,
        loss_error=loss_err,
        comm_total_elements=comm.total_elements(),
        intra_matches_table4=intra_ok,
        inter_matches_table5=inter_ok,
    )


def validate_conv_partitioned_training(
    spec: CnnSpec,
    plan: Sequence[LayerPartition],
    batch: int,
    seed: int = 0,
    check_tables: bool = True,
) -> ValidationReport:
    """CONV counterpart of :func:`validate_partitioned_training`."""
    rng = np.random.default_rng(seed)
    weights = spec.init_weights(seed)
    x = rng.standard_normal((batch, spec.in_channels, spec.height, spec.width))
    out_geom = spec.geometries()[-1]
    target = rng.standard_normal((batch, *out_geom))
    ref = conv_reference_step(spec, weights, x, target)
    return _compare(spec, plan, batch, weights, x, target, ref,
                    expected_conv_intra_elements, expected_conv_inter_elements,
                    check_tables)


def validate_partitioned_training(
    spec: MlpSpec,
    plan: Sequence[LayerPartition],
    batch: int,
    seed: int = 0,
    check_tables: bool = True,
) -> ValidationReport:
    """Run reference and two-device training on the same data and compare."""
    rng = np.random.default_rng(seed)
    weights = spec.init_weights(seed)
    x = rng.standard_normal((batch, spec.widths[0]))
    target = rng.standard_normal((batch, spec.widths[-1]))
    ref = reference_step(weights, x, target)
    return _compare(spec, plan, batch, weights, x, target, ref,
                    expected_intra_elements, expected_inter_elements,
                    check_tables)
