"""Admission control: deadline sheds, queue pressure, EWMA estimates."""

import pytest

from repro.fleet import admission
from repro.fleet.admission import ADMIT, DEGRADE, SHED, AdmissionController


@pytest.fixture
def ctl():
    return AdmissionController(
        max_queue_depth=10, degrade_depth=4, safety_factor=1.0,
        initial_cold_s=0.2, initial_hit_s=0.002)


class TestDeadlineShed:
    def test_deadline_below_hit_floor_is_shed(self, ctl):
        decision = ctl.decide("fp", deadline_s=0.0001, queue_depth=0)
        assert decision.action == SHED
        assert "cache-hit" in decision.reason

    def test_quick_shed_matches_decide_for_impossible_deadlines(self, ctl):
        quick = ctl.quick_shed(0.0001)
        assert quick is not None and quick.action == SHED
        # a meetable deadline does not quick-shed; it needs the full decide
        assert ctl.quick_shed(1.0) is None
        assert ctl.quick_shed(None) is None

    def test_cold_request_with_midrange_deadline_is_shed(self, ctl):
        # deadline above the hit floor but below the cold estimate: only
        # sheddable once the fingerprint is known to be cold
        decision = ctl.decide("cold-fp", deadline_s=0.05, queue_depth=0)
        assert decision.action == SHED
        assert "estimate" in decision.reason

    def test_warm_hint_admits_the_same_deadline(self, ctl):
        ctl.note_warm("warm-fp")
        decision = ctl.decide("warm-fp", deadline_s=0.05, queue_depth=0)
        assert decision.action == ADMIT

    def test_no_deadline_is_never_deadline_shed(self, ctl):
        assert ctl.decide("fp", deadline_s=None, queue_depth=0).action == ADMIT


class TestQueuePressure:
    def test_full_queue_sheds(self, ctl):
        decision = ctl.decide("fp", deadline_s=None, queue_depth=10)
        assert decision.action == SHED and decision.reason == "queue full"

    def test_pressure_band_degrades(self, ctl):
        decision = ctl.decide("fp", deadline_s=None, queue_depth=5)
        assert decision.action == DEGRADE
        assert decision.admitted  # degraded items still run

    def test_below_degrade_depth_admits(self, ctl):
        assert ctl.decide("fp", deadline_s=None, queue_depth=3).action == ADMIT

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=4, degrade_depth=8)


class TestEstimates:
    def test_ewma_tracks_observations(self):
        ctl = AdmissionController(initial_cold_s=0.1, alpha=0.5)
        for _ in range(20):
            ctl.observe("fp", 0.4, cache_hit=False)
        assert ctl.estimate("other") == pytest.approx(0.4, rel=0.01)

    def test_hit_and_cold_estimates_are_split(self):
        ctl = AdmissionController(alpha=0.5)
        for _ in range(20):
            ctl.observe("hit-fp", 0.001, cache_hit=True)
            ctl.observe("cold-fp", 0.5, cache_hit=False)
        assert ctl.estimate("hit-fp") < 0.01 < ctl.estimate("never-seen")

    def test_observation_marks_fingerprint_warm(self, ctl):
        ctl.observe("fp", 0.1, cache_hit=False)
        assert ctl.estimate("fp") == ctl.floor_s

    def test_hint_set_is_bounded(self):
        ctl = AdmissionController(max_hints=10)
        for i in range(100):
            ctl.note_warm(f"fp-{i}")
        assert ctl.snapshot()["warm_hints"] <= 10

    def test_safety_factor_shrinks_the_budget(self):
        tight = AdmissionController(safety_factor=10.0, initial_hit_s=0.002)
        # 10 ms is 5x the hit floor, but /10 safety leaves only 1 ms
        assert tight.decide("fp", deadline_s=0.010, queue_depth=0).action == SHED


class TestSnapshot:
    def test_decisions_are_counted(self, ctl):
        ctl.decide("a", deadline_s=None, queue_depth=0)     # admit
        ctl.decide("b", deadline_s=0.00001, queue_depth=0)  # shed
        ctl.decide("c", deadline_s=None, queue_depth=5)     # degrade
        snap = ctl.snapshot()
        assert snap["decisions"] == {"admit": 1, "shed": 1, "degrade": 1}
        assert snap["est_hit_ms"] == pytest.approx(2.0)
        assert snap["max_queue_depth"] == 10


class TestHitEstimateAges:
    """A stale cache-hit estimate cannot keep shedding the traffic that
    would correct it."""

    def test_a_high_estimate_stops_shedding_within_bounded_time(
            self, monkeypatch):
        now = [100.0]
        monkeypatch.setattr(admission, "_clock", lambda: now[0])
        ctl = AdmissionController(alpha=1.0, initial_hit_s=0.002)
        ctl.observe("fp", 0.256, cache_hit=True)  # a slow spell
        assert ctl.floor_s == pytest.approx(0.256)
        assert ctl.quick_shed(0.050) is not None
        shed_until = None
        for tick in range(1, 101):  # no hit observed for 10 s
            now[0] = 100.0 + tick * 0.1
            if ctl.quick_shed(0.050) is None:
                shed_until = tick * 0.1
                break
        assert shed_until is not None and shed_until <= 4.0
        assert ctl.decide("fp", 0.050, queue_depth=0).action == ADMIT
        assert ctl.snapshot()["est_hit_ms"] < 0.050 / ctl.safety_factor * 1e3

    def test_fresh_hits_replace_the_aged_estimate(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(admission, "_clock", lambda: now[0])
        ctl = AdmissionController(alpha=0.5, initial_hit_s=0.002)
        ctl.observe("fp", 0.256, cache_hit=True)
        now[0] = 60.0  # long aged: back at the initial estimate
        assert ctl.floor_s == pytest.approx(0.002, abs=1e-6)
        ctl.observe("fp", 0.004, cache_hit=True)
        assert ctl.floor_s == pytest.approx(0.003, abs=1e-6)
        # estimates at or below the initial one do not move with time
        ctl = AdmissionController(alpha=1.0, initial_hit_s=0.002)
        ctl.observe("fp", 0.001, cache_hit=True)
        now[0] = 1e6
        assert ctl.floor_s == pytest.approx(0.001)
