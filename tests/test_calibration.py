"""Unit tests for cost-model calibration."""

import pytest

from repro.core.planner import AccParPlanner, Planner
from repro.baselines import get_scheme
from repro.calib import (
    CalibrationResult,
    Probe,
    calibrate,
    probe_from_run,
)
from repro.hardware import TPU_V2, heterogeneous_array, homogeneous_array
from repro.models import build_model
from repro.sim.executor import evaluate


class TestProbe:
    def test_validation(self):
        with pytest.raises(ValueError):
            Probe(flops=-1, network_bytes=0, measured_seconds=1)
        with pytest.raises(ValueError):
            Probe(flops=1, network_bytes=0, measured_seconds=0)

    def test_probe_from_run(self):
        planned = AccParPlanner(heterogeneous_array(2, 2)).plan(
            build_model("lenet"), batch=64
        )
        report = evaluate(planned)
        probe = probe_from_run(planned, report)
        assert probe.flops > 0
        assert probe.network_bytes > 0
        assert probe.measured_seconds == report.total_time


class TestCalibrate:
    def test_recovers_synthetic_rates(self):
        """Probes generated from known rates must recover those rates."""
        c_true, b_true = 100e12, 2e9
        probes = [
            Probe(flops=f, network_bytes=n,
                  measured_seconds=f / c_true + n / b_true)
            for f, n in [(1e12, 1e6), (5e12, 1e9), (1e10, 5e9), (8e13, 1e8)]
        ]
        result = calibrate(probes)
        assert result.effective_flops == pytest.approx(c_true, rel=1e-6)
        assert result.effective_network_bandwidth == pytest.approx(b_true, rel=1e-6)
        assert result.residual_rms == pytest.approx(0.0, abs=1e-9)

    def test_needs_two_probes(self):
        with pytest.raises(ValueError, match="two probes"):
            calibrate([Probe(1e9, 1e6, 1.0)])

    def test_collinear_probes_rejected(self):
        probes = [
            Probe(flops=1e9, network_bytes=1e6, measured_seconds=1.0),
            Probe(flops=2e9, network_bytes=2e6, measured_seconds=2.0),
        ]
        with pytest.raises(ValueError, match="collinear"):
            calibrate(probes)

    def test_missing_network_term_rejected(self):
        probes = [
            Probe(flops=1e9, network_bytes=0.0, measured_seconds=1.0),
            Probe(flops=2e9, network_bytes=0.0, measured_seconds=2.0),
        ]
        with pytest.raises(ValueError, match="network"):
            calibrate(probes)

    def test_apply_to_spec(self):
        result = CalibrationResult(
            effective_flops=90e12,
            effective_network_bandwidth=0.8e9,
            residual_rms=0.0,
            n_probes=3,
        )
        calibrated = result.apply_to(TPU_V2)
        assert calibrated.flops == 90e12
        assert calibrated.network_bandwidth == 0.8e9
        assert calibrated.memory_bytes == TPU_V2.memory_bytes
        assert "calibrated" in calibrated.name


class TestClosedLoop:
    def test_simulated_probes_round_trip(self):
        """Probes taken from the simulator itself should fit with a small
        residual (the simulator has memory/overlap terms the 2-parameter
        model folds into the effective rates)."""
        array = homogeneous_array(4)
        probes = []
        for model, scheme in [("lenet", "dp"), ("alexnet", "dp"),
                              ("alexnet", "accpar"), ("vgg11", "accpar")]:
            planned = Planner(array, get_scheme(scheme)).plan(
                build_model(model), batch=64
            )
            report = evaluate(planned)
            probes.append(probe_from_run(planned, report))
        result = calibrate(probes)
        assert result.effective_flops > 0
        assert result.effective_network_bandwidth > 0
        mean_t = sum(p.measured_seconds for p in probes) / len(probes)
        assert result.residual_rms < mean_t  # the fit explains most of it
