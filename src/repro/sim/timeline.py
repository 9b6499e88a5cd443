"""Timeline export: render a simulated iteration as a Chrome trace.

Produces Trace Event Format JSON (load it at ``chrome://tracing`` or in
Perfetto) for the critical path :func:`~repro.sim.executor.evaluate`
charges, at its rates: one row per level with the report's exchange time,
and one row for the critical leaf's per-layer, per-phase execution.  The
leaf rows time each phase alone, without the overlap the evaluator applies
across phases, so the span is the reported time plus a few percent.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..core.planner import PlannedExecution
from ..core.types import Phase
from ..ioutil import atomic_write_text
from .engine import EngineConfig
from .executor import simulate_critical_path
from .trace import layer_phase_events, optimizer_update_events


def _event(name: str, start_us: float, dur_us: float, tid: int,
           category: str) -> Dict:
    return {
        "name": name,
        "cat": category,
        "ph": "X",
        "ts": round(start_us, 3),
        "dur": round(max(dur_us, 0.001), 3),
        "pid": 0,
        "tid": tid,
    }


def critical_path_timeline(
    planned: PlannedExecution,
    config: Optional[EngineConfig] = None,
    profile=None,
) -> List[Dict]:
    """Trace events along the critical path ``evaluate`` reports.

    Rows (``tid``): 0..h-1 are the levels' communication phases on the
    path; row h is its leaf's layer-by-layer execution.  ``config`` and
    ``profile`` mean what they mean to ``evaluate``.
    """
    if config is None:
        config = EngineConfig(dtype_bytes=planned.dtype_bytes)
    root, engine = simulate_critical_path(planned, config, profile)
    events: List[Dict] = []
    cursor_us = 0.0

    for row, (step, record) in enumerate(zip(root.path, root.levels)):
        node = step.node
        assert node.left is not None and node.right is not None
        comm_us = record.comm_time * 1e6
        events.append(
            _event(
                f"level {record.level} exchange ({node.left.group} | {node.right.group})",
                cursor_us, comm_us, row, "communication",
            )
        )
        cursor_us += comm_us

    # leaf execution: per layer, per phase
    leaf = root.path[-1]
    leaf_row = len(root.levels)
    for sw in leaf.stages.workloads():
        for phase in Phase:
            dur = engine.elapsed(layer_phase_events(sw, phase),
                                 leaf.node.group) * 1e6
            events.append(
                _event(f"{sw.name}:{phase.value}", cursor_us, dur, leaf_row,
                       "compute")
            )
            cursor_us += dur
        dur = engine.elapsed(optimizer_update_events(sw, config.optimizer),
                             leaf.node.group) * 1e6
        events.append(
            _event(f"{sw.name}:update", cursor_us, dur, leaf_row, "optimizer")
        )
        cursor_us += dur

    return events


def save_chrome_trace(planned: PlannedExecution, path,
                      config: Optional[EngineConfig] = None,
                      profile=None) -> None:
    """Atomically write the critical-path timeline as a Chrome-trace file."""
    events = critical_path_timeline(planned, config, profile)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    atomic_write_text(path, json.dumps(document, indent=1))
