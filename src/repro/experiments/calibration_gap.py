"""The analytic-vs-calibrated planning gap, measured end to end.

Datasheet peak rates (Table 7) are what the planner assumes by default,
but deployed accelerators deliver *effective* rates: systolic arrays run
fully-connected layers far below peak, link bandwidth depends on transfer
size, and every collective pays a fixed launch latency.  This harness
closes the calibration loop against a synthetic "real" array and asks how
much planning with measured rates actually changes:

1. **ground truth** — a :class:`~repro.hardware.profile.CalibratedProfile`
   plays the role of the physical array: conv/fc rates well below peak, a
   size-dependent bandwidth-efficiency curve, a per-transfer latency;
2. **measure** — every zoo model is planned *analytically* (what an
   uncalibrated operator would deploy) and simulated under the ground
   truth with telemetry recording per-op timings;
3. **fit** — ``repro telemetry export --calibration`` aggregates the
   timings and :func:`repro.calib.profile_from_export` regresses a
   profile from them, never seeing the ground truth directly;
4. **replan + compare** — each model is replanned under the fitted
   profile; the report records how many plan decisions changed
   (:func:`repro.plan.plan_diff`) and the iteration time of both plans
   executed on the ground-truth array — the end-to-end win of planning
   with calibrated rates.

``benchmarks/test_bench_calibration_gap.py`` persists the rendered table
as ``results/calibration_gap.txt``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..baselines import get_scheme
from ..calib import profile_from_export
from ..core.planner import PlannedExecution, Planner
from ..hardware.accelerator import AcceleratorGroup
from ..hardware.presets import TPU_V2, TPU_V3, heterogeneous_array
from ..hardware.profile import CalibratedProfile, SpecProfile
from ..models.registry import build_model
from ..obs import telemetry as telemetry_store
from ..plan import plan_diff
from ..sim.executor import evaluate
from .reporting import format_table

#: the zoo slice the gap study replans (small enough for the bench budget,
#: mixed enough to cover conv-heavy, fc-heavy and residual topologies)
DEFAULT_MODELS = ("alexnet", "vgg11", "vgg16", "resnet18")

#: what the synthetic "real" hardware delivers, as fractions of peak:
#: systolic arrays sustain conv layers far better than fc layers
EFFECTIVE_FRACTIONS = {
    TPU_V2.name: {"default": 0.50, "conv": 0.55, "fc": 0.35},
    TPU_V3.name: {"default": 0.55, "conv": 0.60, "fc": 0.40},
}

#: size-dependent link efficiency: small transfers waste most of the pipe
BANDWIDTH_CURVE = ((64e3, 0.45), (1e6, 0.70), (16e6, 0.90))

#: fixed per-transfer launch cost of the synthetic array
TRANSFER_LATENCY_S = 12e-6


def ground_truth_profile() -> CalibratedProfile:
    """The synthetic real array: effective rates the fit must recover."""
    specs = []
    for spec in (TPU_V2, TPU_V3):
        fractions = EFFECTIVE_FRACTIONS[spec.name]
        specs.append(SpecProfile(
            spec=spec.name,
            compute_rates=tuple(
                (kind, spec.flops * fraction)
                for kind, fraction in sorted(fractions.items())
            ),
            bandwidth_efficiency=BANDWIDTH_CURVE,
            transfer_latency_s=TRANSFER_LATENCY_S,
        ))
    return CalibratedProfile(name="ground-truth", specs=tuple(specs))


@dataclass
class GapRow:
    """One model's outcome: analytic plan vs calibrated plan, both timed
    on the ground-truth array."""

    model: str
    decisions_changed: int
    analytic_time_s: float
    calibrated_time_s: float

    @property
    def gap_pct(self) -> float:
        """How much slower the analytic plan runs on the real array."""
        if self.calibrated_time_s <= 0:
            return 0.0
        return (self.analytic_time_s / self.calibrated_time_s - 1.0) * 100.0


@dataclass
class CalibrationGapReport:
    """Fitted profile plus the per-model replanning outcomes."""

    profile: CalibratedProfile
    rows: List[GapRow]

    @property
    def total_decisions_changed(self) -> int:
        return sum(row.decisions_changed for row in self.rows)

    def rendered(self) -> str:
        table_rows = [
            [row.model, str(row.decisions_changed),
             f"{row.analytic_time_s * 1e3:.3f}",
             f"{row.calibrated_time_s * 1e3:.3f}",
             f"{row.gap_pct:+.2f}%"]
            for row in self.rows
        ]
        lines = [format_table(
            ["model", "decisions changed", "analytic ms/iter",
             "calibrated ms/iter", "analytic penalty"],
            table_rows,
            title="Planning gap: peak-rate plans vs calibrated-profile plans, "
                  "both executed on the ground-truth array",
        )]
        lines.append("")
        lines.append(f"fitted profile: {self.profile}")
        for sp in self.profile.specs:
            rates = ", ".join(f"{kind}={rate / 1e12:.1f}T"
                              for kind, rate in sp.compute_rates)
            lines.append(
                f"  {sp.spec}: {rates}; "
                f"{len(sp.bandwidth_efficiency)} bw point(s); "
                f"latency {sp.transfer_latency_s * 1e6:.1f}us"
            )
        return "\n".join(lines)


def _plan(model: str, array: AcceleratorGroup, batch: int,
          profile: Optional[CalibratedProfile],
          telemetry=None) -> PlannedExecution:
    scheme = get_scheme("accpar", profile=profile)
    return Planner(array, scheme, telemetry=telemetry).plan(
        build_model(model), batch)


def measure_export(
    models: Sequence[str],
    array: AcceleratorGroup,
    batch: int,
    truth: CalibratedProfile,
    directory,
) -> Dict:
    """Simulate analytic plans on the ground truth, recording telemetry."""
    # closing the writer makes its segments durable before the export
    with telemetry_store.TelemetryWriter(directory) as telemetry:
        for model in models:
            planned = _plan(model, array, batch, None, telemetry)
            evaluate(planned, profile=truth, telemetry=telemetry)
    return telemetry_store.calibration_export(directory)


def calibration_gap(
    models: Sequence[str] = DEFAULT_MODELS,
    array: Optional[AcceleratorGroup] = None,
    batch: int = 256,
) -> CalibrationGapReport:
    """Run the full loop: measure, fit, replan, compare on ground truth."""
    if array is None:
        array = heterogeneous_array(4, 4)
    truth = ground_truth_profile()

    with tempfile.TemporaryDirectory(prefix="repro-calibration-gap-") as tmp:
        export = measure_export(models, array, batch, truth,
                                Path(tmp) / "telemetry")
    fitted = profile_from_export(export, name="fitted-from-sim")

    rows: List[GapRow] = []
    for model in models:
        analytic_plan = _plan(model, array, batch, profile=None)
        calibrated_plan = _plan(model, array, batch, profile=fitted)
        differences = plan_diff(analytic_plan.plan, calibrated_plan.plan)
        rows.append(GapRow(
            model=model,
            decisions_changed=len(differences),
            analytic_time_s=evaluate(analytic_plan, profile=truth).total_time,
            calibrated_time_s=evaluate(calibrated_plan,
                                       profile=truth).total_time,
        ))
    return CalibrationGapReport(profile=fitted, rows=rows)
