"""Plan evaluation: simulate one training iteration of a hierarchical plan.

The executor folds over the walk of the plan down the pairing tree
(:func:`repro.core.hierarchy.walk`):

* at a **leaf**, the group executes its fully-sharded slice of every layer's
  three phases; the trace events are costed against the leaf's compute
  density and HBM bandwidth (overlapped);
* at an **internal node**, the two child groups exchange the level's
  intra-layer partial sums (Table 4) and inter-layer boundary tensors
  (Table 5); the level's time is the slower party's network time plus its
  partial-sum additions, and the node's total is that plus the slower
  child subtree — children execute concurrently.

This evaluator is deliberately independent of the planner's Eq. 9 objective:
schemes are *scored* here on identical terms, which is what makes the
speedup comparisons of Section 6 meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cost_model import inter_layer_elements
from ..core.planner import PlannedExecution
from ..core.hierarchy import Step, stored_level, walk
from ..core.stages import Fork, ShardedStages
from ..core.types import PSUM_PHASE, PartitionType, Phase
from ..plan.ir import LevelPlan
from ..hardware.cluster import GroupNode
from .energy import EnergyBreakdown, ZERO_ENERGY, events_energy
from .engine import EngineConfig, TimingEngine
from .memory import MemoryReport, leaf_memory_report
from .trace import (
    EventKind,
    TraceEvent,
    granule_of,
    layer_events,
    layer_phase_events,
    optimizer_update_events,
    total_amount,
)


@dataclass(frozen=True)
class LevelRecord:
    """Communication accounting of one pairing-tree level on the critical path."""

    level: int
    comm_time: float
    net_bytes_left: float
    net_bytes_right: float


@dataclass
class SimReport:
    """Result of simulating one training iteration."""

    total_time: float
    leaf_time: float
    comm_time: float
    levels: List[LevelRecord]
    memory_worst: Optional[MemoryReport]
    batch: int
    energy: EnergyBreakdown = ZERO_ENERGY

    @property
    def throughput(self) -> float:
        """Training samples per second."""
        return self.batch / self.total_time

    @property
    def samples_per_joule(self) -> float:
        """Training efficiency: samples processed per joule (array-wide)."""
        if self.energy.total_j == 0.0:
            return float("inf")
        return self.batch / self.energy.total_j

    @property
    def fits_memory(self) -> bool:
        return self.memory_worst is None or self.memory_worst.fits


def _group_hardware_name(group) -> str:
    """A stable spec label for one leaf group (``tpu-v2``, ``a+b`` if mixed)."""
    return "+".join(sorted({m.name for m in group.members}))


def _record_op_timing(telemetry, planned: PlannedExecution, group,
                      **fields) -> None:
    telemetry.record({
        "type": "op_timing",
        "hardware": _group_hardware_name(group),
        "devices": group.size,
        **fields,
        "model": planned.network_name,
        "scheme": planned.scheme,
        "batch": planned.batch,
    })


def _record_leaf_timings(telemetry, planned: PlannedExecution, node: GroupNode,
                         stages: ShardedStages, engine: TimingEngine) -> None:
    """One durable ``op_timing`` event per (layer, phase) of a leaf group.

    These are the measured per-op timings ``repro telemetry export
    --calibration`` aggregates into per-hardware curves.  Only called with
    an enabled telemetry writer, and memoized leaves record
    once per distinct (group, stages) pair — duplicates carry no new
    calibration signal.
    """
    for sw in stages.workloads():
        for phase in Phase:
            events = layer_phase_events(sw, phase)
            _record_op_timing(
                telemetry, planned, node.group, op=sw.name,
                kind="conv" if sw.base.is_conv else "fc",
                phase=phase.name.lower(),
                elements=(total_amount(events, EventKind.LOAD)
                          + total_amount(events, EventKind.STORE)),
                flops=sw.flops_phase(phase),
                time_s=engine.elapsed(events, node.group),
            )


def _record_level_timings(telemetry, planned: PlannedExecution, node: GroupNode,
                          ev_i: Sequence[TraceEvent], ev_j: Sequence[TraceEvent],
                          engine: TimingEngine) -> None:
    """One durable ``op_timing`` event per party of an internal level.

    ``kind="net"`` / ``phase="comm"`` series carry the network share of the
    level's exchange time plus the transfer count, which is what the
    network side of the calibration fit (bandwidth-efficiency curve and
    per-transfer latency) regresses on.
    """
    for party, events in ((node.left, ev_i), (node.right, ev_j)):
        net = [e for e in events if e.kind is EventKind.NET_READ]
        if net:
            _record_op_timing(
                telemetry, planned, party.group, op=f"level-{node.level + 1}",
                kind="net", phase="comm",
                elements=sum(e.quantized_amount() for e in net), flops=0.0,
                transfers=len(net),
                time_s=engine.breakdown(events, party.group).network,
            )


@dataclass
class _NodeResult:
    time: float
    levels: Tuple[LevelRecord, ...]
    leaf_time: float
    memory_worst: Optional[MemoryReport]
    energy: EnergyBreakdown
    #: the steps of the critical path below this node, down to its leaf
    path: Tuple[Step, ...]


def _level_net_events(
    stages: ShardedStages,
    level: LevelPlan,
) -> Tuple[List[TraceEvent], List[TraceEvent]]:
    """Per-party network/psum-add events for one level."""
    events_i: List[TraceEvent] = []
    events_j: List[TraceEvent] = []
    workloads = stages.workloads()

    def emit_pair(amount_i: float, amount_j: float, name: str, phase: Phase,
                  granule: int) -> None:
        if amount_i > 0:
            events_i.append(TraceEvent(EventKind.NET_READ, name, phase, amount_i, granule))
        if amount_j > 0:
            events_j.append(TraceEvent(EventKind.NET_READ, name, phase, amount_j, granule))

    def walk(sub, prev: Optional[PartitionType]) -> Optional[PartitionType]:
        for stage in sub:
            if isinstance(stage, Fork):
                join = level.alignment_for(stage.name)
                fork = workloads[stage.first]
                for index, (path, last) in enumerate(zip(stage.paths,
                                                         stage.lasts)):
                    if path:
                        exit_state = walk(path, prev)
                        boundary = workloads[last].a_output_fm()
                    else:
                        exit_state = prev
                        boundary = fork.a_input_fm()  # the skip tensor itself
                    # the search records each path's pre-alignment exit state;
                    # prefer the recorded value so the replay matches exactly
                    # what was costed (inferred state kept for legacy plans)
                    recorded = level.path_exit(stage.name, index)
                    if recorded is not None:
                        exit_state = recorded.state
                    # re-align each path's output to the join state
                    if join is not None and exit_state is not None \
                            and exit_state is not join.state:
                        amount_i, amount_j = inter_layer_elements(
                            boundary, exit_state, join.state, join.alpha
                        )
                        emit_pair(amount_i, amount_j, stage.name, Phase.FORWARD,
                                  granule_of(fork))
                if join is not None:
                    prev = join.state
                # else: linearized schemes (HyPar) recorded no join state; the
                # boundary keeps the fork state, which never over-charges them
            else:
                sw = workloads[stage]
                entry = level.assignment(sw.name)
                g = granule_of(sw)
                phase = PSUM_PHASE[entry.ptype]
                # intra-layer: both parties fetch the peer's partial sums and add
                psum = sw.a_psum(entry.ptype)
                emit_pair(psum, psum, sw.name, phase, g)
                events_i.append(TraceEvent(EventKind.ADD, sw.name, phase, psum, g))
                events_j.append(TraceEvent(EventKind.ADD, sw.name, phase, psum, g))
                # inter-layer: re-align the boundary tensor from prev's state
                if prev is not None:
                    amount_i, amount_j = inter_layer_elements(
                        sw.a_input_fm(), prev, entry.ptype, entry.alpha
                    )
                    emit_pair(amount_i, amount_j, sw.name, Phase.FORWARD, g)
                prev = entry.ptype
        return prev

    walk(stages.skeleton.stages, None)
    return events_i, events_j


def evaluate(planned: PlannedExecution,
             config: Optional[EngineConfig] = None,
             profile=None,
             telemetry=None) -> SimReport:
    """Simulate one training iteration of a planned execution.

    ``profile`` selects the hardware rates the timing engine applies: the
    default (``None``) keeps the peak analytic ones; a
    :class:`~repro.hardware.profile.CalibratedProfile` scores the plan
    under measured effective rates instead (it must cover every spec in
    the planned array).  ``telemetry`` is the writer that gets the
    ``op_timing`` events, or None to record nothing.
    """
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    root, _ = simulate_critical_path(planned, config, profile, telemetry)
    return SimReport(
        total_time=root.time,
        leaf_time=root.leaf_time,
        comm_time=root.time - root.leaf_time,
        levels=list(root.levels),
        memory_worst=root.memory_worst,
        batch=planned.batch,
        energy=root.energy,
    )


def simulate_critical_path(planned: PlannedExecution,
                           config: Optional[EngineConfig] = None,
                           profile=None,
                           telemetry=None) -> Tuple[_NodeResult, TimingEngine]:
    """:func:`evaluate`'s fold over the replayed plan, and its timing engine.

    The root result's ``path`` holds the critical path's steps (the slower
    child at every split), one per record in ``levels``, then the leaf.
    """
    if config is None:
        config = EngineConfig(dtype_bytes=planned.dtype_bytes)
    if profile is not None:
        profile.validate_array(planned.tree.group)
    engine = TimingEngine(config, profile=profile)
    results: Dict[Step, _NodeResult] = {}

    def fold(step: Step) -> _NodeResult:
        result = results.get(step)
        if result is not None:
            return result
        node, stages, level = step.node, step.stages, step.level
        if level is None:
            if not node.is_leaf and step.plan.level_plan is not None:
                # a stored split that cannot shard: raise verify's issues
                # (verify imports this package, hence the late import)
                from ..core.verify import verify_planned

                verify_planned(planned, config.optimizer, strict=True)
            events: List[TraceEvent] = []
            for sw in stages.workloads():
                events.extend(layer_events(sw))
                events.extend(optimizer_update_events(sw, config.optimizer))
            leaf_time = engine.elapsed(events, node.group)
            mem = leaf_memory_report(stages, node.group, config.dtype_bytes,
                                     config.optimizer)
            result = _NodeResult(time=leaf_time, levels=(), leaf_time=leaf_time,
                                 memory_worst=mem,
                                 energy=events_energy(events, config.dtype_bytes,
                                                      config.energy),
                                 path=(step,))
            if telemetry is not None:
                _record_leaf_timings(telemetry, planned, node, stages, engine)
            results[step] = result
            return result

        assert node.left is not None and node.right is not None
        assert step.left is not None and step.right is not None
        ev_i, ev_j = _level_net_events(stages, level)
        time_i = engine.elapsed(ev_i, node.left.group)
        time_j = engine.elapsed(ev_j, node.right.group)
        comm_time = max(time_i, time_j)
        if telemetry is not None:
            _record_level_timings(telemetry, planned, node, ev_i, ev_j, engine)

        bytes_i = sum(e.quantized_amount() for e in ev_i
                      if e.kind is EventKind.NET_READ) * config.dtype_bytes
        bytes_j = sum(e.quantized_amount() for e in ev_j
                      if e.kind is EventKind.NET_READ) * config.dtype_bytes

        left = fold(step.left)
        right = fold(step.right)
        slower = left if left.time >= right.time else right

        record = LevelRecord(
            level=node.level + 1,
            comm_time=comm_time,
            net_bytes_left=bytes_i,
            net_bytes_right=bytes_j,
        )
        worst_mem = _worse_memory(left.memory_worst, right.memory_worst)
        # energy is additive over the whole array: both children plus both
        # parties' exchanges at this level (time, by contrast, is a
        # critical-path quantity)
        level_energy = (
            events_energy(ev_i, config.dtype_bytes, config.energy)
            + events_energy(ev_j, config.dtype_bytes, config.energy)
        )
        result = _NodeResult(
            time=comm_time + slower.time,
            levels=(record,) + slower.levels,
            leaf_time=slower.leaf_time,
            memory_worst=worst_mem,
            energy=level_energy + left.energy + right.energy,
            path=(step,) + slower.path,
        )
        results[step] = result
        return result

    root = fold(walk(planned.tree, planned.stages, stored_level, planned.plan))
    # the recursive closure is a reference cycle: empty the memo so the
    # steps' tables go with the caller's last reference, not a GC pass
    results.clear()
    return root, engine


def _worse_memory(a: Optional[MemoryReport],
                  b: Optional[MemoryReport]) -> Optional[MemoryReport]:
    if a is None:
        return b
    if b is None:
        return a
    return a if a.utilization >= b.utilization else b
