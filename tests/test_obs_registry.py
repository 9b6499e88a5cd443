"""Unified metrics registry: histograms, counters, Prometheus text."""

import importlib
import random
import re

import pytest

from repro.obs.registry import (
    PLANNER_COUNTER_NAMES,
    SERVICE_COUNTER_NAMES,
    SERVICE_HISTOGRAM_NAMES,
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    render_prometheus,
)

#: a non-comment exposition line: metric name, optional {labels}, a value
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? (-?\d+(\.\d+)?([eE][-+]?\d+)?|NaN)$"
)


def assert_valid_exposition(text):
    assert text.endswith("\n")
    for line in text.rstrip("\n").splitlines():
        if line.startswith("# TYPE "):
            continue
        assert _SAMPLE_LINE.match(line), line


class TestLatencyHistogramEdges:
    def test_empty_reservoir(self):
        hist = LatencyHistogram("empty")
        assert hist.count == 0
        assert hist.total == 0.0
        assert hist.percentile(50) is None
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["p50"] is None
        assert summary["p95"] is None
        assert summary["p99"] is None
        assert summary["total"] == 0.0
        assert sum(summary["buckets"]["counts"]) == 0

    def test_single_sample_is_every_percentile(self):
        hist = LatencyHistogram("one")
        hist.observe(0.25)
        for p in (1, 50, 95, 99, 100):
            assert hist.percentile(p) == 0.25
        assert hist.summary()["mean"] == 0.25

    def test_window_eviction_biases_toward_recent(self):
        """count/total are lifetime; percentiles see only the last `window`."""
        hist = LatencyHistogram("windowed", window=4)
        for value in range(1, 9):
            hist.observe(float(value))
        assert hist.count == 8
        assert hist.total == 36.0
        # reservoir is now [5, 6, 7, 8]: old samples can no longer drag
        # percentiles down
        assert hist.percentile(50) == 6.0
        assert hist.percentile(99) == 8.0
        assert hist.percentile(1) == 5.0

    def test_exact_rank_percentiles_match_sorted_reference(self):
        samples = [float(v) for v in range(1, 101)]
        random.Random(20200229).shuffle(samples)
        hist = LatencyHistogram("ranked", window=256)
        for value in samples:
            hist.observe(value)
        ordered = sorted(samples)
        for p in (50, 95, 99):
            rank = max(1, round(p / 100 * len(ordered)))
            assert hist.percentile(p) == ordered[rank - 1], p
        # nearest-rank on 100 evenly spread samples lands exactly on the
        # value at that rank
        assert hist.percentile(50) == 50.0
        assert hist.percentile(95) == 95.0
        assert hist.percentile(99) == 99.0

    def test_reservoir_wraparound_summary_stays_consistent(self):
        """After far more observations than the window, lifetime stats
        (count/total/mean/buckets) must still cover every sample while
        percentiles reflect only the reservoir."""
        window = 16
        hist = LatencyHistogram("wrapped", window=window)
        n = window * 10
        for value in range(1, n + 1):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == n
        assert summary["total"] == n * (n + 1) / 2
        assert summary["mean"] == pytest.approx((n + 1) / 2)
        # log-spaced buckets are lifetime too: every sample landed somewhere
        assert sum(summary["buckets"]["counts"]) == n
        # the reservoir holds exactly the last `window` samples
        assert hist.percentile(1) == float(n - window + 1)
        assert hist.percentile(100) == float(n)
        assert summary["p50"] == hist.percentile(50)

    def test_wraparound_bucket_counts_monotone_cumulative(self):
        hist = LatencyHistogram("wrapcum", window=8)
        for value in [0.0002, 0.003, 0.04, 0.5, 6.0] * 20:
            hist.observe(value)
        counts = hist.buckets()["counts"]
        assert sum(counts) == 100
        cumulative = 0
        for count in counts:
            assert count >= 0
            cumulative += count
        assert cumulative == hist.count

    def test_invalid_arguments(self):
        hist = LatencyHistogram("strict")
        with pytest.raises(ValueError):
            hist.observe(-0.1)
        with pytest.raises(ValueError):
            hist.percentile(0)
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            LatencyHistogram("bad", window=0)


class TestCountersAndRegistry:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_registry_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.value("never_touched") == 0

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.histogram("request_latency_s").observe(0.010)
        snap = registry.snapshot()
        assert snap["counters"] == {"requests": 3}
        assert snap["histograms"]["request_latency_s"]["count"] == 1
        text = registry.render()
        assert "requests" in text and "count=1" in text

    def test_gauges_are_labeled_and_settable(self):
        registry = MetricsRegistry()
        up0 = registry.gauge("shard_up", shard="0")
        assert registry.gauge("shard_up", shard="0") is up0
        assert registry.gauge("shard_up", shard="1") is not up0
        up0.set(1)
        registry.gauge("shard_up", shard="1").set(0)
        assert registry.gauge_value("shard_up", shard="0") == 1
        assert registry.gauge_value("shard_up", shard="1") == 0
        up0.dec()
        assert registry.gauge_value("shard_up", shard="0") == 0
        up0.inc(2)
        assert registry.gauge_value("shard_up", shard="0") == 2

    def test_gauges_appear_in_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.gauge("shard_up", shard="0").set(1)
        snap = registry.snapshot()
        assert {"name": "shard_up", "labels": {"shard": "0"},
                "value": 1} in snap["gauges"]
        assert "shard_up" in registry.render()
        # back-compat: a gauge-free registry keeps the old snapshot shape
        assert "gauges" not in MetricsRegistry().snapshot()

    def test_gauges_render_as_prometheus_gauge_series(self):
        registry = MetricsRegistry()
        registry.gauge("shard_up", shard="0").set(1)
        registry.gauge("shard_up", shard="1").set(0)
        text = registry.render_prometheus()
        assert_valid_exposition(text)
        assert "# TYPE repro_fleet_shard_up gauge" in text
        assert 'repro_fleet_shard_up{shard="0"} 1' in text
        assert 'repro_fleet_shard_up{shard="1"} 0' in text


class TestNoShims:
    """The registry is imported from repro.obs.registry only."""

    @pytest.mark.parametrize("module", ["repro.core.counters",
                                        "repro.service.metrics",
                                        "repro.experiments.calibration"])
    def test_reexport_shims_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_service_package_exports_the_registry_classes(self):
        import repro.service as service

        assert service.Counter is Counter
        assert service.LatencyHistogram is LatencyHistogram
        assert service.MetricsRegistry is MetricsRegistry


class TestPrometheusRendering:
    def test_empty_snapshot_emits_canonical_series(self):
        text = render_prometheus({})
        assert_valid_exposition(text)
        for name in SERVICE_COUNTER_NAMES:
            assert f"repro_service_{name}_total 0" in text
        for name in PLANNER_COUNTER_NAMES:
            assert f"repro_planner_{name}_total 0" in text
        # histogram families appear even with zero observations
        assert "repro_service_request_latency_seconds_count 0" in text
        assert "repro_service_exact_plan_seconds_count 0" in text

    def test_both_former_metric_islands_present(self):
        """The families that used to live in service.metrics and
        core.counters both appear in one exposition."""
        text = render_prometheus({})
        assert "repro_service_requests_total" in text      # ex service.metrics
        assert "repro_planner_step_calls_total" in text    # ex core.counters

    def test_full_snapshot_values(self):
        snapshot = {
            "metrics": {
                "counters": {"requests": 12, "misses": 4},
                "histograms": {
                    "request_latency_s": {
                        "count": 2, "mean": 0.05,
                        "p50": 0.04, "p95": 0.06, "p99": 0.06,
                    },
                },
            },
            "cache": {"memory_entries": 3, "capacity": 128},
            "planner": {"step_calls": 99},
        }
        text = render_prometheus(snapshot)
        assert_valid_exposition(text)
        assert "repro_service_requests_total 12" in text
        assert "repro_service_misses_total 4" in text
        assert 'repro_service_request_latency_seconds{quantile="0.5"} 0.04' in text
        assert "repro_service_request_latency_seconds_sum 0.1" in text
        assert "repro_service_request_latency_seconds_count 2" in text
        assert "repro_cache_memory_entries 3" in text
        assert "repro_planner_step_calls_total 99" in text
        # unobserved planner series still present, zeroed
        assert "repro_planner_ratio_solves_total 0" in text

    def test_type_lines_precede_samples(self):
        text = render_prometheus({})
        lines = text.rstrip("\n").splitlines()
        for index, line in enumerate(lines):
            if line.startswith("# TYPE "):
                family = line.split()[2]
                assert lines[index + 1].startswith(family), line

    def test_registry_render_prometheus_is_partial(self):
        """MetricsRegistry.render_prometheus shows only recorded series."""
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        text = registry.render_prometheus()
        assert_valid_exposition(text)
        assert "repro_service_requests_total 1" in text
        assert "repro_planner_step_calls_total" not in text

    def test_histogram_names_are_canonical(self):
        assert SERVICE_HISTOGRAM_NAMES == ("request_latency_s", "exact_plan_s")


class TestLabelValueEscaping:
    """Prometheus label values must escape backslash, quote and newline."""

    def _series_line(self, text, name):
        for line in text.splitlines():
            if line.startswith(name) and not line.startswith("# "):
                return line
        raise AssertionError(f"{name} not rendered:\n{text}")

    _SNAPSHOT = {"metrics": {"counters": {"requests": 1}}}

    def test_quote_in_label_value(self):
        text = render_prometheus(self._SNAPSHOT, include_defaults=False,
                                 labels={"shard": 'say "hi"'})
        line = self._series_line(text, "repro_service_requests_total")
        assert r'shard="say \"hi\""' in line

    def test_backslash_in_label_value(self):
        text = render_prometheus(self._SNAPSHOT, include_defaults=False,
                                 labels={"shard": "a\\b"})
        line = self._series_line(text, "repro_service_requests_total")
        assert r'shard="a\\b"' in line

    def test_newline_in_label_value(self):
        text = render_prometheus(self._SNAPSHOT, include_defaults=False,
                                 labels={"shard": "a\nb"})
        line = self._series_line(text, "repro_service_requests_total")
        assert r'shard="a\nb"' in line
        # the exposition stays one sample per line
        assert "\na" not in line

    def test_gauge_labels_escaped_too(self):
        registry = MetricsRegistry()
        registry.gauge("shard_up", shard='s"0"').set(1)
        text = registry.render_prometheus()
        assert r'repro_fleet_shard_up{shard="s\"0\""} 1' in text
