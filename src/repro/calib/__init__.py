"""Calibration: fit effective hardware rates and profiles from measurements.

Two entry points, one loop (plan → measure → calibrate → re-plan):

* :func:`calibrate` / :class:`Probe` — the coarse two-parameter fit from
  end-to-end run probes;
* :func:`profile_from_export` — the full per-op-kind
  :class:`~repro.hardware.profile.CalibratedProfile` fit from a
  ``repro.telemetry.calibration/v1`` export (``repro calibrate`` on the
  CLI).
"""

from .fit import CalibrationResult, Probe, calibrate, probe_from_run
from .profile_fit import profile_from_export, profile_from_probes

__all__ = [
    "CalibrationResult",
    "Probe",
    "calibrate",
    "probe_from_run",
    "profile_from_export",
    "profile_from_probes",
]
