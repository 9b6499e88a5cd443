"""Durable telemetry: an append-only JSONL event store with rotation.

The PR 4 observability layer is in-memory only — spans and reservoir
percentiles vanish on restart.  This module is the durable half: every
event is one JSON object on one line, written with a single ``os.write``
on an ``O_APPEND`` descriptor (atomic at the line level on POSIX), into
size-rotated segment files with bounded retention::

    <dir>/events-00000001.jsonl
    <dir>/events-00000002.jsonl        # newest; the writer appends here
    <dir>/events-00000001.jsonl.corrupt  # quarantined lines (scrub)

Four event types flow through the store (``docs/observability.md`` has
the full schema table):

* ``request``   — one per plan request, from :class:`PlanService` and the
  fleet frontend (:data:`repro.obs.request.REQUEST_EVENT_KEYS`);
* ``op_timing`` — one per (layer, phase) leaf evaluation in
  :func:`repro.sim.evaluate` (the measured-profile input the
  profile-guided calibration item in ROADMAP.md consumes);
* ``search``    — one per :meth:`Planner.plan` call (elapsed time plus a
  delta snapshot of the ``vec_*``/step planner counters);
* ``chaos``     — one per injected wire fault, so SLO burn attribution
  can separate injected latency from organic latency.

Each participant — a ``serve`` or ``simulate`` process, a fleet frontend,
each fleet shard — opens one writer, and its owner hands that writer to
every producer it builds (:class:`~repro.obs.request.RequestRecorder`,
:class:`~repro.core.planner.Planner`, :func:`~repro.sim.evaluate`,
``send_frame``).  No producer looks a writer up anywhere else, so the
events of two participants sharing a process never mix.

Design rules, mirrored from the PR 7 cache and chaos harness:

* **disabled path costs nothing** — every producer guards with
  ``t is not None and t.enabled`` on the writer it holds before building
  the event dict;
* **corrupt lines are quarantined, never deleted** — :func:`scrub`
  rewrites a damaged segment atomically without its bad lines and
  appends them to ``<segment>.corrupt`` (the PR 7 ``*.json.corrupt``
  convention), while :func:`iter_events` simply skips and counts them;
* **restart starts a fresh segment** — a crashed writer may leave a torn
  final line; the successor never appends after it, so damage stays
  confined to one segment tail.
"""

from __future__ import annotations

import io
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..ioutil import atomic_write_text

#: the event types the store understands (free-form extras are allowed,
#: but the CLI summary groups by these)
EVENT_TYPES = ("request", "op_timing", "search", "chaos")

SEGMENT_PATTERN = re.compile(r"^events-(\d{8})\.jsonl$")
QUARANTINE_SUFFIX = ".corrupt"

DEFAULT_MAX_SEGMENT_BYTES = 4 * 1024 * 1024
DEFAULT_MAX_SEGMENTS = 8


class TelemetryError(ValueError):
    """Bad telemetry configuration or an unusable store directory."""


def _segment_name(seq: int) -> str:
    return f"events-{seq:08d}.jsonl"


def segment_paths(directory) -> List[Path]:
    """Every segment in ``directory``, oldest first; [] when absent."""
    root = Path(directory)
    if not root.is_dir():
        return []
    found = []
    for entry in root.iterdir():
        match = SEGMENT_PATTERN.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


class TelemetryWriter:
    """Append-only JSONL writer with size rotation and bounded retention.

    Thread-safe; one instance is shared by every producer its owner hands
    it to (service request path, sim evaluator, planner).  ``enabled`` is the
    hot-path gate: producers must check it **before** building the event
    dict, so a disabled writer costs one attribute read and nothing else.
    """

    def __init__(
        self,
        directory,
        *,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        enabled: bool = True,
        clock: Callable[[], float] = time.time,
    ):
        if max_segment_bytes <= 0:
            raise TelemetryError("max_segment_bytes must be positive")
        if max_segments <= 0:
            raise TelemetryError("max_segments must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self.max_segments = max_segments
        self.enabled = enabled
        self._clock = clock
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._segment_bytes = 0
        # a restarted writer never appends after a possibly-torn tail:
        # it opens the segment after the newest existing one
        existing = segment_paths(self.directory)
        self._seq = (int(SEGMENT_PATTERN.match(existing[-1].name).group(1))
                     if existing else 0)
        self.events_written = 0
        self.events_dropped = 0
        self.bytes_written = 0
        self.segments_rotated = 0
        self.segments_deleted = 0

    # ------------------------------------------------------------------
    @property
    def segment_path(self) -> Optional[Path]:
        """The segment currently being appended to (None before any write)."""
        if self._fd is None:
            return None
        return self.directory / _segment_name(self._seq)

    def _open_next(self) -> None:
        self._seq += 1
        path = self.directory / _segment_name(self._seq)
        self._fd = os.open(
            str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._segment_bytes = 0
        self.segments_rotated += 1
        self._enforce_retention()

    def _enforce_retention(self) -> None:
        segments = segment_paths(self.directory)
        while len(segments) > self.max_segments:
            victim = segments.pop(0)
            try:
                victim.unlink()
                self.segments_deleted += 1
            except OSError:
                break
            # the quarantine sidecar travels with its segment
            sidecar = victim.with_name(victim.name + QUARANTINE_SUFFIX)
            try:
                sidecar.unlink()
            except OSError:
                pass

    def record(self, event: Dict[str, Any]) -> None:
        """Durably append one event (stamped with ``ts`` if absent).

        One ``os.write`` per event on an ``O_APPEND`` descriptor: readers
        and concurrent writers never interleave within a line.  Write
        errors are counted (``events_dropped``) instead of raised — losing
        a telemetry line must never fail a plan request.
        """
        if not self.enabled:
            return
        if "ts" not in event:
            event["ts"] = round(self._clock(), 6)
        line = json.dumps(event, separators=(",", ":"),
                          sort_keys=False, default=str) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            try:
                if self._fd is None or \
                        self._segment_bytes + len(data) > self.max_segment_bytes:
                    if self._fd is not None:
                        os.close(self._fd)
                        self._fd = None
                    self._open_next()
                os.write(self._fd, data)
            except OSError:
                self.events_dropped += 1
                return
            self._segment_bytes += len(data)
            self.events_written += 1
            self.bytes_written += len(data)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": str(self.directory),
                "enabled": self.enabled,
                "events_written": self.events_written,
                "events_dropped": self.events_dropped,
                "bytes_written": self.bytes_written,
                "segments_rotated": self.segments_rotated,
                "segments_deleted": self.segments_deleted,
                "segment_seq": self._seq,
            }


# ----------------------------------------------------------------------
# reading back
# ----------------------------------------------------------------------

@dataclass
class ReadReport:
    """What a read pass over a store saw."""

    events: int = 0
    corrupt_lines: int = 0
    segments: int = 0
    quarantined: List[str] = field(default_factory=list)


def _parsed_lines(path) -> Iterator[Tuple[str, Optional[Dict[str, Any]]]]:
    """Each non-blank line of a segment with its event, or with ``None``
    when the line is corrupt: not JSON, not an object, or nested deeper
    than the parser recurses.  An unreadable segment yields nothing."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except (ValueError, RecursionError):
            event = None
        yield line, event if isinstance(event, dict) else None


def iter_events(
    directory,
    types: Optional[Iterable[str]] = None,
    report: Optional[ReadReport] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield every event in the store, oldest segment first.

    Unparseable lines are skipped and counted in ``report`` (a torn tail
    from a crashed writer is expected, not fatal); :func:`scrub`
    quarantines them durably.
    """
    wanted = set(types) if types is not None else None
    for path in segment_paths(directory):
        if report is not None:
            report.segments += 1
        for _, event in _parsed_lines(path):
            if event is None:
                if report is not None:
                    report.corrupt_lines += 1
                continue
            if report is not None:
                report.events += 1
            if wanted is None or event.get("type") in wanted:
                yield event


def read_events(directory,
                types: Optional[Iterable[str]] = None) -> List[Dict[str, Any]]:
    return list(iter_events(directory, types))


def scrub(directory) -> ReadReport:
    """Quarantine corrupt lines: rewrite damaged segments without them.

    Mirrors the PR 7 cache convention — bad data moves to a ``*.corrupt``
    sidecar (appended, never deleted) so nothing is silently destroyed,
    and the segment itself is rewritten atomically with only its good
    lines.  Returns the combined read report.
    """
    report = ReadReport()
    for path in segment_paths(directory):
        report.segments += 1
        good: List[str] = []
        bad: List[str] = []
        for line, event in _parsed_lines(path):
            (bad if event is None else good).append(line)
        report.events += len(good)
        if not bad:
            continue
        report.corrupt_lines += len(bad)
        sidecar = path.with_name(path.name + QUARANTINE_SUFFIX)
        with io.open(sidecar, "a", encoding="utf-8") as handle:
            for line in bad:
                handle.write(line + "\n")
        atomic_write_text(path, "".join(line + "\n" for line in good))
        report.quarantined.append(str(sidecar))
    return report


# ----------------------------------------------------------------------
# aggregation: summary and calibration export
# ----------------------------------------------------------------------

def _percentile(ordered: List[float], p: float) -> Optional[float]:
    if not ordered:
        return None
    rank = max(1, round(p / 100 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize(directory) -> Dict[str, Any]:
    """Aggregate a store into the ``repro telemetry summary`` report."""
    report = ReadReport()
    by_type: Dict[str, int] = {name: 0 for name in EVENT_TYPES}
    outcomes: Dict[str, int] = {}
    shards: Dict[str, int] = {}
    backends: Dict[str, int] = {}
    latencies: List[float] = []
    injected_latencies: List[float] = []
    deadline_total = deadline_met = 0
    failovers = 0
    chaos_faults: Dict[str, int] = {}
    chaos_trace_ids = set()
    search_elapsed_ms = 0.0
    search_count = 0
    op_hardware: Dict[str, int] = {}

    events = list(iter_events(directory, report=report))
    # chaos events first: request records join on trace_id
    for event in events:
        if event.get("type") == "chaos":
            for fault in event.get("faults", ()):
                chaos_faults[fault] = chaos_faults.get(fault, 0) + 1
            for trace_id in [event.get("trace_id"),
                             *(event.get("trace_ids") or ())]:
                if trace_id:
                    chaos_trace_ids.add(trace_id)

    for event in events:
        etype = event.get("type", "unknown")
        by_type[etype] = by_type.get(etype, 0) + 1
        if etype == "request":
            outcome = event.get("outcome", "unknown")
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            shard = event.get("shard")
            if shard is not None:
                shards[str(shard)] = shards.get(str(shard), 0) + 1
            latency_ms = event.get("latency_ms")
            injected = event.get("trace_id") in chaos_trace_ids
            if isinstance(latency_ms, (int, float)):
                (injected_latencies if injected else latencies).append(
                    float(latency_ms))
            if event.get("deadline_ms") is not None:
                deadline_total += 1
                if event.get("deadline_met"):
                    deadline_met += 1
            if event.get("failover_from"):
                failovers += 1
        elif etype == "search":
            backend = event.get("backend", "unknown")
            backends[backend] = backends.get(backend, 0) + 1
            elapsed = event.get("elapsed_ms")
            if isinstance(elapsed, (int, float)):
                search_elapsed_ms += float(elapsed)
                search_count += 1
        elif etype == "op_timing":
            hardware = event.get("hardware", "unknown")
            op_hardware[hardware] = op_hardware.get(hardware, 0) + 1

    ordered = sorted(latencies)
    ordered_injected = sorted(injected_latencies)
    return {
        "directory": str(directory),
        "segments": report.segments,
        "events": report.events,
        "corrupt_lines": report.corrupt_lines,
        "by_type": {k: v for k, v in sorted(by_type.items()) if v},
        "requests": {
            "outcomes": dict(sorted(outcomes.items())),
            "by_shard": dict(sorted(shards.items())),
            "failovers": failovers,
            "deadline_total": deadline_total,
            "deadline_met": deadline_met,
            "deadline_attainment": (
                deadline_met / deadline_total if deadline_total else None),
            "organic": {
                "count": len(ordered),
                "p50_ms": _percentile(ordered, 50),
                "p95_ms": _percentile(ordered, 95),
                "p99_ms": _percentile(ordered, 99),
            },
            "chaos_injected": {
                "count": len(ordered_injected),
                "p50_ms": _percentile(ordered_injected, 50),
                "p95_ms": _percentile(ordered_injected, 95),
                "p99_ms": _percentile(ordered_injected, 99),
            },
        },
        "chaos_faults": dict(sorted(chaos_faults.items())),
        "search": {
            "by_backend": dict(sorted(backends.items())),
            "count": search_count,
            "total_elapsed_ms": round(search_elapsed_ms, 3),
        },
        "op_timing": {"by_hardware": dict(sorted(op_hardware.items()))},
    }


#: schema tag on the calibration export; the calibration PR keys on it
CALIBRATION_SCHEMA = "repro.telemetry.calibration/v1"

#: cap on raw samples retained per (hardware, op, phase) series — enough
#: for a curve fit, bounded so an export never balloons
CALIBRATION_MAX_SAMPLES = 512


def calibration_export(directory) -> Dict[str, Any]:
    """Aggregate ``op_timing`` events into the calibration ingest format.

    Output: per hardware spec, per ``<kind>/<phase>`` series with count,
    total/min/max seconds and up to :data:`CALIBRATION_MAX_SAMPLES` raw
    ``(elements, flops, seconds)`` samples — exactly what a tensor-size →
    time curve fit (the ROADMAP's profile-guided calibration item) needs.
    """
    hardware: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for event in iter_events(directory, types=("op_timing",)):
        spec = str(event.get("hardware", "unknown"))
        kind = event.get("kind", event.get("op", "op"))
        phase = event.get("phase", "total")
        key = f"{kind}/{phase}"
        series = hardware.setdefault(spec, {}).setdefault(key, {
            "count": 0, "total_s": 0.0, "min_s": None, "max_s": None,
            "samples": [],
        })
        seconds = event.get("time_s")
        if not isinstance(seconds, (int, float)):
            continue
        seconds = float(seconds)
        series["count"] += 1
        series["total_s"] += seconds
        series["min_s"] = (seconds if series["min_s"] is None
                           else min(series["min_s"], seconds))
        series["max_s"] = (seconds if series["max_s"] is None
                           else max(series["max_s"], seconds))
        if len(series["samples"]) < CALIBRATION_MAX_SAMPLES:
            sample = {
                "elements": event.get("elements"),
                "flops": event.get("flops"),
                "seconds": seconds,
                "op": event.get("op"),
                "model": event.get("model"),
                "batch": event.get("batch"),
            }
            # board count and transfer count ride along when present: the
            # profile fitter (repro.calib) normalizes rates per board and
            # recovers the per-transfer latency from the transfer count
            if event.get("devices") is not None:
                sample["devices"] = event.get("devices")
            if event.get("transfers") is not None:
                sample["transfers"] = event.get("transfers")
            series["samples"].append(sample)
    for spec_series in hardware.values():
        for series in spec_series.values():
            count = series["count"]
            series["mean_s"] = series["total_s"] / count if count else None
            series["total_s"] = round(series["total_s"], 9)
    return {
        "schema": CALIBRATION_SCHEMA,
        "source": str(directory),
        "hardware": dict(sorted(hardware.items())),
    }
