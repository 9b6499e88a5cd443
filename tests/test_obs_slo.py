"""SLO engine: config parsing, burn-rate windows, Prometheus rendering."""

import sys
import threading

import pytest

from repro.obs.registry import LatencyHistogram, render_prometheus
from repro.obs.slo import (
    SLOConfig,
    SLOSpecError,
    SLOTracker,
    render_slo_lines,
)


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSLOConfig:
    def test_defaults(self):
        config = SLOConfig()
        assert config.latency_ms == 250.0
        assert config.objective == 0.99
        assert config.error_budget == pytest.approx(0.01)
        assert config.latency_s == 0.25

    def test_parse_round_trip(self):
        config = SLOConfig.parse(
            "latency_ms=100,objective=0.999,window_fast_s=60,"
            "window_slow_s=600")
        assert config.latency_ms == 100.0
        assert config.objective == 0.999
        assert config.window_fast_s == 60.0
        assert SLOConfig.parse(config.describe()) == config

    def test_partial_spec_keeps_defaults(self):
        config = SLOConfig.parse("latency_ms=50")
        assert config.latency_ms == 50.0
        assert config.objective == 0.99

    @pytest.mark.parametrize("text", [
        "latency_ms=0",
        "objective=1.5",
        "objective=0",
        "window_fast_s=-1",
        "window_fast_s=600,window_slow_s=60",
        "nonsense=1",
        "latency_ms=abc",
        "latency_ms",
    ])
    def test_bad_specs_raise(self, text):
        with pytest.raises(SLOSpecError):
            SLOConfig.parse(text)


class TestSLOTracker:
    def test_attainment_and_budget(self):
        tracker = SLOTracker("latency_ms=100,objective=0.9")
        for _ in range(9):
            assert tracker.observe(0.05) is True
        assert tracker.observe(0.5) is False  # too slow
        snap = tracker.snapshot()
        assert snap["good_total"] == 9
        assert snap["bad_total"] == 1
        assert snap["attainment"] == pytest.approx(0.9)
        # 10% errors against a 10% budget: budget exactly spent
        assert snap["error_budget_remaining"] == pytest.approx(0.0)

    def test_not_ok_is_always_bad(self):
        tracker = SLOTracker("latency_ms=100,objective=0.9")
        assert tracker.observe(0.001, ok=False) is False
        assert tracker.snapshot()["bad_total"] == 1

    def test_deadline_attainment(self):
        tracker = SLOTracker()
        tracker.observe(0.01, deadline_met=True)
        tracker.observe(0.01, deadline_met=False)
        tracker.observe(0.01)  # no deadline: not in the denominator
        snap = tracker.snapshot()
        assert snap["deadline_total"] == 2
        assert snap["deadline_met_total"] == 1
        assert snap["deadline_attainment"] == pytest.approx(0.5)

    def test_burn_rate_windows_with_fake_clock(self):
        clock = FakeClock()
        tracker = SLOTracker(
            "latency_ms=100,objective=0.9,window_fast_s=60,window_slow_s=600",
            clock=clock)
        # an old burst of errors: 4 bad, 4 good
        for _ in range(4):
            tracker.observe(0.5)
            tracker.observe(0.05)
        # fast window sees 50% errors over a 10% budget: burn 5x
        assert tracker.burn_rate() == pytest.approx(5.0)
        # 2 minutes later the burst has left the fast window...
        clock.advance(120.0)
        tracker.observe(0.05)
        assert tracker.burn_rate() == pytest.approx(0.0)
        # ...but still burns the slow window
        assert tracker.burn_rate(600.0) == pytest.approx(
            (4 / 9) / 0.1)
        # and past the slow window everything is forgotten
        clock.advance(700.0)
        tracker.observe(0.05)
        assert tracker.burn_rate(600.0) == pytest.approx(0.0)

    def test_slow_window_covers_its_hour_at_any_rate(self):
        clock = FakeClock()
        tracker = SLOTracker(clock=clock)
        # 600 s at 50 req/s with 10% errors, then 600 s at 200 req/s clean:
        # 3,000 bad of 150,000 in the hour, against a 1% budget
        for i in range(600 * 50):
            tracker.observe(0.01, ok=i % 10 != 0)
            clock.advance(1 / 50)
        for _ in range(600 * 200):
            tracker.observe(0.01)
            clock.advance(1 / 200)
        assert tracker.snapshot()["burn_rate_slow"] == pytest.approx(2.0)

    def test_one_second_of_requests_is_one_bucket(self):
        clock = FakeClock()
        tracker = SLOTracker(clock=clock)
        for _ in range(100_000):
            tracker.observe(0.01)
            clock.advance(0.9 / 100_000)
        assert len(tracker._window) == 1
        assert tracker.snapshot()["good_total"] == 100_000

    def test_concurrent_observations_lose_no_count(self):
        clock = FakeClock()
        tracker = SLOTracker("latency_ms=100,objective=0.9", clock=clock)
        threads, per_thread = 8, 2_000

        def observe():
            for i in range(per_thread):
                tracker.observe(0.5 if i % 4 == 0 else 0.01)
                clock.advance(1e-4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=observe)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = threads * per_thread
        assert sum(good + bad for _, good, bad in tracker._window) == total
        snap = tracker.snapshot()
        assert snap["bad_total"] == total // 4
        assert snap["burn_rate_slow"] == pytest.approx(0.25 / 0.1)

    def test_idle_tracker_is_quiet(self):
        tracker = SLOTracker()
        assert tracker.burn_rate() == 0.0
        snap = tracker.snapshot()
        assert snap["attainment"] is None
        assert snap["error_budget_remaining"] == 1.0
        assert snap["burn_rate_fast"] == 0.0

    def test_render_lines(self):
        tracker = SLOTracker("latency_ms=100,objective=0.9")
        tracker.observe(0.01, deadline_met=True)
        text = tracker.render(title="slo (test)")
        assert "slo (test)" in text
        assert "good=1" in text
        assert "met=1/1" in text
        # the offline renderer accepts a raw snapshot too
        assert render_slo_lines(tracker.snapshot()).startswith("slo")


class TestPrometheusSLOSection:
    def test_slo_series_rendered(self):
        tracker = SLOTracker("latency_ms=100,objective=0.9")
        tracker.observe(0.01, deadline_met=True)
        tracker.observe(0.5)
        text = render_prometheus({"slo": tracker.snapshot()},
                                 include_defaults=False)
        assert "repro_slo_good_total 1" in text
        assert "repro_slo_bad_total 1" in text
        assert "repro_slo_deadline_total 1" in text
        assert "repro_slo_latency_target_seconds 0.1" in text
        assert "repro_slo_objective 0.9" in text
        assert "repro_slo_attainment 0.5" in text
        assert 'repro_slo_burn_rate{window="fast"}' in text
        assert 'repro_slo_burn_rate{window="slow"}' in text

    def test_tracer_and_telemetry_sections(self):
        snapshot = {
            "tracer": {"enabled": True, "spans_started": 7,
                       "spans_dropped": 2, "buffer_len": 5,
                       "buffer_high_water": 6, "max_spans": 200000},
            "telemetry": {"enabled": True, "events_written": 11,
                          "events_dropped": 0, "bytes_written": 1024,
                          "segments_rotated": 1, "segments_deleted": 0,
                          "segment_seq": 1},
        }
        text = render_prometheus(snapshot, include_defaults=False)
        assert "repro_tracer_spans_started_total 7" in text
        assert "repro_tracer_spans_dropped_total 2" in text
        assert "repro_tracer_buffer_high_water 6" in text
        assert "repro_tracer_max_spans 200000" in text
        assert "repro_telemetry_events_written_total 11" in text
        assert "repro_telemetry_segment_seq 1" in text


class TestPrometheusHistogramSeries:
    def _rendered(self, values):
        hist = LatencyHistogram("request_latency_s")
        for value in values:
            hist.observe(value)
        snapshot = {"metrics": {"histograms": {
            "request_latency_s": hist.summary()}}}
        return values, render_prometheus(snapshot, include_defaults=False)

    def test_buckets_are_monotone_and_end_at_count(self):
        values = [0.0001, 0.001, 0.001, 0.01, 0.1, 1.0, 200.0]
        _, text = self._rendered(values)
        bucket_counts = []
        for line in text.splitlines():
            if line.startswith(
                    "repro_service_request_latency_hist_seconds_bucket"):
                bucket_counts.append(int(line.rsplit(" ", 1)[1]))
        assert bucket_counts, "histogram bucket series missing"
        assert bucket_counts == sorted(bucket_counts), "le must be cumulative"
        assert bucket_counts[-1] == len(values)  # +Inf == _count
        assert ('repro_service_request_latency_hist_seconds_count '
                f'{len(values)}') in text

    def test_sum_matches_exact_total(self):
        values = [0.25, 0.5, 0.125]
        _, text = self._rendered(values)
        for line in text.splitlines():
            if line.startswith(
                    "repro_service_request_latency_hist_seconds_sum"):
                assert float(line.rsplit(" ", 1)[1]) == \
                    pytest.approx(sum(values))
                return
        raise AssertionError("_sum series missing")

    def test_observation_beyond_last_bound_lands_in_inf(self):
        hist = LatencyHistogram("request_latency_s", buckets=(0.1, 1.0))
        hist.observe(50.0)
        buckets = hist.buckets()
        assert buckets["bounds"] == [0.1, 1.0]
        assert buckets["counts"] == [0, 0, 1]
