"""The unified metrics registry: one home for every counter and histogram.

The plan service's request counters and latency histograms live here,
and so do the planner's search-work counts of each participant
(:class:`repro.obs.tracing.Participant`).

Everything is dependency-free (no prometheus client in the image), but
:func:`render_prometheus` emits standard `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ so a real
scraper — or ``curl`` — can consume the numbers:

* service counters   → ``repro_service_<name>_total`` (counter)
* latency histograms → ``repro_service_<name>_seconds`` (summary:
  ``{quantile=...}`` samples plus ``_sum``/``_count``) **and**
  ``repro_service_<name>_hist_seconds`` (real histogram: cumulative
  log-spaced ``_bucket{le=...}`` plus ``_sum``/``_count``)
* cache gauges       → ``repro_cache_<name>`` (gauge)
* planner counters   → ``repro_planner_<name>_total`` (counter)
* SLO tracker        → ``repro_slo_*`` (attainment/budget/burn gauges +
  good/bad counters, from the snapshot's ``"slo"`` section)
* tracer health      → ``repro_tracer_*`` (spans_started/dropped,
  buffer high-water; the 200k ``max_spans`` cap made visible)
* telemetry writer   → ``repro_telemetry_*`` (events written/dropped,
  segment rotation)

The canonical series names are enumerated in :data:`SERVICE_COUNTER_NAMES`
and :data:`PLANNER_COUNTER_NAMES`; the renderer always emits them (zero
when unobserved) so dashboards never see a series wink in and out of
existence, and ``docs/observability.md`` documents the same lists.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence

#: every counter the plan service increments (see repro.service.service)
SERVICE_COUNTER_NAMES = (
    "requests",
    "hits_memory",
    "hits_disk",
    "misses",
    "coalesced",
    "degraded",
    "errors",
    "planner_runs",
    "slow_requests",
)

#: every latency histogram the plan service observes
SERVICE_HISTOGRAM_NAMES = (
    "request_latency_s",
    "exact_plan_s",
)

#: every counter the planner search bumps (documented in
#: docs/observability.md; each plan adds its levels' StepStats to its
#: participant's counts once)
PLANNER_COUNTER_NAMES = (
    "step_calls",
    "boundary_calls",
    "ratio_solves",
    "ratio_closed_linear",
    "ratio_closed_quadratic",
    "ratio_bisection_fallback",
    "ratio_minimax",
    "ratio_symmetric",
    "hierarchy_memo_hits",
    "hierarchy_memo_misses",
    "multipath_path_dp_runs",
    "vec_searches",
    "vec_pack_ns",
    "vec_recurrence_ns",
    "vec_multipath_batches",
)


class Counter:
    """A monotonically increasing, thread-safe counter."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


#: log-spaced (powers-of-two) bucket upper bounds for streaming
#: histograms, 0.1ms … ~105s — wide enough for both cache hits and cold
#: exact plans.  Geometric spacing keeps relative error constant per
#: bucket, the right shape for latency.
DEFAULT_LATENCY_BUCKETS = tuple(1e-4 * 2 ** i for i in range(21))


class LatencyHistogram:
    """Reservoir of recent latency observations with exact-rank percentiles.

    Keeps the most recent ``window`` samples (deque eviction), which biases
    percentiles toward current behavior — the right bias for a serving
    dashboard.  ``count``/``total`` cover every observation ever made.

    Alongside the reservoir, every observation lands in a log-spaced
    streaming bucket (:data:`DEFAULT_LATENCY_BUCKETS` by default) covering
    **all** observations, which :func:`render_prometheus` exposes as a real
    Prometheus histogram (``_bucket{le=...}``/``_sum``/``_count``) next to
    the reservoir summary — the summary answers "what is latency now",
    the histogram supports PromQL ``histogram_quantile`` over any range.
    """

    def __init__(self, name: str, window: int = 4096,
                 buckets: Optional[Sequence[float]] = None):
        if window <= 0:
            raise ValueError("window must be positive")
        bounds = tuple(DEFAULT_LATENCY_BUCKETS if buckets is None else buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        if bounds and bounds[0] <= 0:
            raise ValueError("bucket bounds must be positive")
        self.name = name
        self._samples: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._bounds = bounds
        # one slot per bound plus the overflow (+Inf) slot
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._total += seconds
            self._bucket_counts[bisect_left(self._bounds, seconds)] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the reservoir; None when empty."""
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        rank = max(1, round(p / 100 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def buckets(self) -> Dict[str, List[float]]:
        """Per-bucket (non-cumulative) counts with their upper bounds."""
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "counts": list(self._bucket_counts),
            }

    def summary(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "mean": (self.total / self.count) if self.count else None,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "total": self.total,
            "buckets": self.buckets(),
        }


class Gauge:
    """A thread-safe point-in-time value, optionally carrying labels.

    Unlike counters, gauges go both ways — the fleet uses them for shard
    liveness (``shard_up{shard="0"}`` flips between 1 and 0 as health
    transitions happen).
    """

    def __init__(self, name: str, labels: Optional[Mapping[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class MetricsRegistry:
    """Creates-on-first-use registry of counters, gauges and histograms."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[tuple, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str, **labels: str) -> Gauge:
        """A gauge keyed by name *and* label set (``gauge("up", shard="0")``)."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge(name, labels)
            return self._gauges[key]

    def histogram(self, name: str, window: int = 4096) -> LatencyHistogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = LatencyHistogram(name, window)
            return self._histograms[name]

    def value(self, name: str) -> int:
        """Current value of a counter (0 if it was never incremented)."""
        with self._lock:
            counter = self._counters.get(name)
        return counter.value if counter else 0

    def gauge_value(self, name: str, **labels: str) -> float:
        """Current value of a gauge (0 if it was never touched)."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            gauge = self._gauges.get(key)
        return gauge.value if gauge else 0

    def snapshot(self) -> Dict:
        """JSON-compatible dump of every metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        snap = {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "histograms": {n: h.summary() for n, h in sorted(histograms.items())},
        }
        if gauges:  # absent (not empty) when unused: older snapshot shape
            snap["gauges"] = [
                {"name": g.name, "labels": g.labels, "value": g.value}
                for _, g in sorted(gauges.items())
            ]
        return snap

    def render(self, title: str = "service metrics") -> str:
        """Aligned text snapshot (the ``service-stats`` output)."""
        snap = self.snapshot()
        lines: List[str] = [title]
        if not snap["counters"] and not snap["histograms"] \
                and not snap.get("gauges"):
            lines.append("  (no metrics recorded)")
            return "\n".join(lines)
        width = max((len(n) for n in snap["counters"]), default=0)
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<{width}}  {value}")
        for entry in snap.get("gauges", []):
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            shown = entry["name"] + (f"{{{label_text}}}" if label_text else "")
            lines.append(f"  {shown}  {entry['value']}")
        for name, s in snap["histograms"].items():
            if not s["count"]:
                lines.append(f"  {name}  count=0")
                continue
            lines.append(
                f"  {name}  count={s['count']}"
                f" mean={s['mean'] * 1e3:.2f}ms"
                f" p50={s['p50'] * 1e3:.2f}ms"
                f" p95={s['p95'] * 1e3:.2f}ms"
                f" p99={s['p99'] * 1e3:.2f}ms"
            )
        return "\n".join(lines)

    def render_prometheus(self) -> str:
        """This registry's metrics alone, as Prometheus exposition text."""
        return render_prometheus({"metrics": self.snapshot()},
                                 include_defaults=False)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _metric_name(prefix: str, raw: str) -> str:
    return f"{prefix}_{_NAME_OK.sub('_', raw)}"


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _histogram_metric_name(raw: str) -> str:
    """``request_latency_s`` → ``repro_service_request_latency_seconds``."""
    base = _NAME_OK.sub("_", raw)
    if base.endswith("_s"):
        base = base[:-2]
    if not base.endswith("_seconds"):
        base += "_seconds"
    return f"repro_service_{base}"


def _bucket_metric_name(raw: str) -> str:
    """``request_latency_s`` → ``repro_service_request_latency_hist_seconds``.

    A Prometheus metric name cannot be both a summary and a histogram, so
    the real-histogram series (``_bucket{le=...}``) live under a distinct
    ``_hist_seconds`` name next to the reservoir summary.
    """
    name = _histogram_metric_name(raw)
    return name[: -len("_seconds")] + "_hist_seconds"


def _escape_label_value(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _label_text(labels: Optional[Mapping], extra: str = "") -> str:
    """``{k="v",...}`` rendered from a label mapping (plus a raw pair)."""
    pairs = [f'{k}="{_escape_label_value(v)}"'
             for k, v in (labels or {}).items()]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(
    snapshot: Mapping,
    include_defaults: bool = True,
    labels: Optional[Mapping] = None,
) -> str:
    """Render a service-stats snapshot as Prometheus exposition text.

    ``snapshot`` is the :meth:`repro.service.service.PlanService.snapshot`
    shape — ``{"metrics": {"counters", "histograms"}, "cache": {...},
    "planner": {...}}`` — with every part optional, so the offline
    ``repro service-stats --format prometheus`` can render a partial (or
    empty) snapshot loaded from disk.  With ``include_defaults`` the
    canonical service and planner series are always present, zero-valued
    when unobserved.

    ``labels`` attaches a constant label set to **every** emitted sample —
    the fleet renders each shard's snapshot with ``{"shard": name}`` so
    one scrape of ``repro fleet-stats --format prometheus`` yields
    distinguishable per-shard series instead of colliding names.
    """
    metrics = snapshot.get("metrics", {}) or {}
    counters = dict(metrics.get("counters", {}) or {})
    histograms = dict(metrics.get("histograms", {}) or {})
    cache = dict(snapshot.get("cache", {}) or {})
    planner = dict(snapshot.get("planner", {}) or {})

    if include_defaults:
        for name in SERVICE_COUNTER_NAMES:
            counters.setdefault(name, 0)
        for name in SERVICE_HISTOGRAM_NAMES:
            histograms.setdefault(
                name, {"count": 0, "mean": None, "p50": None,
                       "p95": None, "p99": None, "total": 0.0,
                       "buckets": {
                           "bounds": list(DEFAULT_LATENCY_BUCKETS),
                           "counts": [0] * (len(DEFAULT_LATENCY_BUCKETS) + 1),
                       }})
        for name in PLANNER_COUNTER_NAMES:
            planner.setdefault(name, 0)

    base = _label_text(labels)
    lines: List[str] = []
    for raw in sorted(counters):
        name = _metric_name("repro_service", raw)
        if not name.endswith("_total"):  # fleet names already carry it
            name += "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{base} {_format_value(counters[raw])}")

    for raw in sorted(histograms):
        s = histograms[raw]
        name = _histogram_metric_name(raw)
        count = int(s.get("count") or 0)
        mean = s.get("mean")
        total = s.get("total")
        if total is None:  # pre-bucket snapshots carry only the mean
            total = (mean or 0.0) * count
        lines.append(f"# TYPE {name} summary")
        for quantile, key in _QUANTILES:
            value = s.get(key)
            if value is None and count:
                continue
            quantile_labels = _label_text(labels, f'quantile="{quantile}"')
            lines.append(f"{name}{quantile_labels} {_format_value(value)}")
        lines.append(f"{name}_sum{base} {_format_value(total)}")
        lines.append(f"{name}_count{base} {count}")

        # the real histogram series: cumulative log-spaced buckets under a
        # distinct _hist_seconds name (a metric cannot be summary AND
        # histogram); `le` is cumulative and ends at +Inf == _count
        buckets = s.get("buckets") or {}
        bounds = buckets.get("bounds") or []
        per_bucket = buckets.get("counts") or []
        if bounds and len(per_bucket) == len(bounds) + 1:
            hist_name = _bucket_metric_name(raw)
            lines.append(f"# TYPE {hist_name} histogram")
            cumulative = 0
            for bound, bucket_count in zip(bounds, per_bucket):
                cumulative += int(bucket_count)
                le_labels = _label_text(
                    labels, f'le="{_format_value(bound)}"')
                lines.append(f"{hist_name}_bucket{le_labels} {cumulative}")
            cumulative += int(per_bucket[-1])
            inf_labels = _label_text(labels, 'le="+Inf"')
            lines.append(f"{hist_name}_bucket{inf_labels} {cumulative}")
            lines.append(f"{hist_name}_sum{base} {_format_value(total)}")
            lines.append(f"{hist_name}_count{base} {cumulative}")

    # labelled gauges (fleet health: shard_up{shard="0"} and friends)
    seen_gauge_types = set()
    for entry in metrics.get("gauges") or []:
        name = _metric_name("repro_fleet", entry.get("name", "gauge"))
        if name not in seen_gauge_types:
            lines.append(f"# TYPE {name} gauge")
            seen_gauge_types.add(name)
        merged = dict(labels or {})
        merged.update(entry.get("labels") or {})
        lines.append(
            f"{name}{_label_text(merged)} "
            f"{_format_value(entry.get('value'))}")

    for raw in sorted(cache):
        name = _metric_name("repro_cache", raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{base} {_format_value(cache[raw])}")

    for raw in sorted(planner):
        name = _metric_name("repro_planner", raw) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}{base} {_format_value(planner[raw])}")

    # SLO section: attainment/budget gauges + good/bad counters
    slo = dict(snapshot.get("slo", {}) or {})
    if slo:
        for raw in ("good", "bad", "deadline", "deadline_met"):
            name = f"repro_slo_{raw}_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(
                f"{name}{base} "
                f"{_format_value(slo.get(raw + '_total', 0))}")
        gauges = [
            ("repro_slo_latency_target_seconds",
             (slo.get("latency_target_ms") or 0.0) / 1e3),
            ("repro_slo_objective", slo.get("objective")),
            ("repro_slo_attainment", slo.get("attainment")),
            ("repro_slo_deadline_attainment",
             slo.get("deadline_attainment")),
            ("repro_slo_error_budget_remaining",
             slo.get("error_budget_remaining")),
        ]
        for name, value in gauges:
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{base} {_format_value(value)}")
        lines.append("# TYPE repro_slo_burn_rate gauge")
        for window in ("fast", "slow"):
            window_labels = _label_text(labels, f'window="{window}"')
            lines.append(
                f"repro_slo_burn_rate{window_labels} "
                f"{_format_value(slo.get(f'burn_rate_{window}', 0.0))}")

    # tracer buffer health: silent span truncation must be visible
    tracer = dict(snapshot.get("tracer", {}) or {})
    if tracer:
        for raw in ("spans_started", "spans_dropped"):
            name = f"repro_tracer_{raw}_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{base} {_format_value(tracer.get(raw, 0))}")
        for raw in ("enabled", "buffer_len", "buffer_high_water",
                    "max_spans"):
            name = f"repro_tracer_{raw}"
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{base} {_format_value(tracer.get(raw, 0))}")

    # durable telemetry writer health
    telemetry = dict(snapshot.get("telemetry", {}) or {})
    if telemetry:
        for raw in ("events_written", "events_dropped", "bytes_written",
                    "segments_rotated", "segments_deleted"):
            name = f"repro_telemetry_{raw}_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(
                f"{name}{base} {_format_value(telemetry.get(raw, 0))}")
        for raw in ("enabled", "segment_seq"):
            name = f"repro_telemetry_{raw}"
            lines.append(f"# TYPE {name} gauge")
            lines.append(
                f"{name}{base} {_format_value(telemetry.get(raw, 0))}")

    return "\n".join(lines) + "\n"
