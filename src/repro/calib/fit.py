"""Probe-based calibration: fit effective hardware rates from measurements.

Peak datasheet numbers (Table 7) overstate what real workloads achieve.
Given measured iteration times for a set of (model, plan) probes, this
module fits *effective* compute density and network bandwidth by linear
least squares:

    T_measured ≈ flops / c_eff + bytes / b_eff
               =  flops · x₀  +  bytes · x₁,   x = argmin ‖Ax - t‖₂

so ``c_eff = 1/x₀`` and ``b_eff = 1/x₁``.  The fitted rates slot straight
back into :class:`~repro.hardware.AcceleratorSpec`, closing the loop a real
deployment needs: plan → measure → calibrate → re-plan.

This is the coarse two-parameter fit (one number per rate, no size or
op-kind dependence); :mod:`repro.calib.profile_fit` builds the richer
per-op-kind :class:`~repro.hardware.profile.CalibratedProfile` from the
``repro.telemetry.calibration/v1`` export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.planner import PlannedExecution
from ..hardware.accelerator import AcceleratorSpec
from ..sim.executor import SimReport


@dataclass(frozen=True)
class Probe:
    """One calibration observation."""

    flops: float            # total FLOPs executed by the probed party
    network_bytes: float    # total bytes it moved over the network
    measured_seconds: float

    def __post_init__(self) -> None:
        if self.flops < 0 or self.network_bytes < 0:
            raise ValueError("probe quantities must be non-negative")
        if self.measured_seconds <= 0:
            raise ValueError("measured time must be positive")


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted effective rates plus the fit quality."""

    effective_flops: float
    effective_network_bandwidth: float
    residual_rms: float
    n_probes: int

    def apply_to(self, spec: AcceleratorSpec) -> AcceleratorSpec:
        """A copy of ``spec`` with the fitted effective rates."""
        return AcceleratorSpec(
            name=f"{spec.name}-calibrated",
            flops=self.effective_flops,
            memory_bytes=spec.memory_bytes,
            memory_bandwidth=spec.memory_bandwidth,
            network_bandwidth=self.effective_network_bandwidth,
        )


def probe_from_run(planned: PlannedExecution, report: SimReport) -> Probe:
    """Build a calibration probe from a simulated (or measured) run.

    ``flops`` is the whole workload's three-phase total; ``network_bytes``
    sums the critical path's per-level traffic.
    """
    flops = sum(sw.flops_total() for sw in planned.stages.workloads())
    net_bytes = sum(lv.net_bytes_left + lv.net_bytes_right for lv in report.levels)
    return Probe(flops=flops, network_bytes=net_bytes,
                 measured_seconds=report.total_time)


def calibrate(probes: Sequence[Probe]) -> CalibrationResult:
    """Least-squares fit of effective rates from ≥2 diverse probes.

    Probes must exercise both terms: at least one compute-heavy and one
    communication-heavy observation, or the system is ill-conditioned and a
    ``ValueError`` explains which term is unidentifiable.
    """
    if len(probes) < 2:
        raise ValueError("calibration needs at least two probes")

    a = np.array([[p.flops, p.network_bytes] for p in probes], dtype=float)
    t = np.array([p.measured_seconds for p in probes], dtype=float)

    col_norms = np.linalg.norm(a, axis=0)
    if col_norms[0] == 0:
        raise ValueError("no probe exercises computation; c_eff unidentifiable")
    if col_norms[1] == 0:
        raise ValueError("no probe exercises the network; b_eff unidentifiable")

    scaled = a / col_norms
    x_scaled, _, rank, _ = np.linalg.lstsq(scaled, t, rcond=None)
    if rank < 2:
        raise ValueError(
            "probes are collinear (same flops:bytes ratio); vary the workload"
        )
    x = x_scaled / col_norms
    x = np.maximum(x, 1e-30)  # rates are physical: clamp to positive

    residual = a @ x - t
    rms = float(np.sqrt(np.mean(residual ** 2)))
    return CalibrationResult(
        effective_flops=float(1.0 / x[0]),
        effective_network_bandwidth=float(1.0 / x[1]),
        residual_rms=rms,
        n_probes=len(probes),
    )
