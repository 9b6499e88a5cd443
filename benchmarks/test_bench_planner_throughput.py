"""Planner-throughput bench: the hot-path overhaul vs the seed planner.

Times end-to-end hierarchical planning (tree build + every level search) on
the paper's heterogeneous 128+128 TPU-v2/v3 array and emits
``results/BENCH_planner.json``.  Three guarantees are enforced here rather
than just reported:

* the planner (packed closed-form step costs + the Eq. 9 recurrence: every
  fork path in one numpy sweep, the top-level chain on Python floats)
  emits the *same plan* as the legacy mode — the scalar
  reference recurrence fed by bisection, uncached
  (``tests/reference_search.py``, registered as a search backend) — types
  identical, ratios within 1e-9;
* the planner clears the overhaul's speedup floor against the recorded
  seed-planner timings;
* fresh timings may not regress more than ``REGRESSION_FACTOR``× against the
  committed ``BENCH_planner.json`` (the CI gate; the committed file is read
  *before* it is rewritten with this run's numbers).

Beside each network's ``optimized_ms`` the artifact records the search's
split, ``pack_ms`` (phase 1, the packed step costs) and ``recurrence_ms``
(phase 2), from each timed plan's own ``vec_pack_ns`` /
``vec_recurrence_ns`` counts (each runs for a participant of its own).
"""

import json
import pathlib
import statistics
import time

from repro.core.hierarchy import collect_level_plans
from repro.core.planner import PartitionScheme, Planner
from repro.hardware.presets import heterogeneous_array
from repro.ioutil import atomic_write_text
from repro.models import build_model
from repro.obs.telemetry import TelemetryWriter
from repro.obs.tracing import Participant, set_request_context
from repro.plan import register_backend
from tests.reference_search import REFERENCE_BACKEND, ReferenceBisectionBackend

ARTIFACT = "BENCH_planner.json"

NETWORKS = ("alexnet", "vgg16", "resnet18")
BATCH = 512
REPEATS = 7

#: end-to-end planning time of the pre-overhaul planner (bisection ratio
#: solver, no step memoization, no workload/tree caching) on this benchmark's
#: exact configuration, recorded at the seed commit.  These are the "before"
#: numbers the overhaul is measured against; the in-process legacy mode
#: (the bisection-fed reference recurrence) is faster than this because the
#: structural work (eager workload quantities, pairing-tree cache) speeds
#: both modes up.
SEED_BASELINE_MS = {
    "alexnet": 44.8,
    "vgg16": 92.9,
    "resnet18": 224.5,
}

#: acceptance floor for the overhaul: optimized wall-clock vs seed baseline
SPEEDUP_FLOOR = 5.0

#: the minimum time of :func:`_machine_probe` on the machine that recorded
#: ``SEED_BASELINE_MS``: the probe's 23.36 ms on a later host over that
#: host's slowdown, 1.365, read from the legacy mode against the timings
#: recorded beside the seed numbers (alexnet 17.47, vgg16 36.80, resnet18
#: 101.48 ms).  ``probe_now / PROBE_REFERENCE_MS`` measures how much slower
#: (or faster) the current machine is, and scaling the seed baseline by it
#: makes the speedup floor machine-independent.  The probe runs no code
#: from ``src/``, so no change to the program can move the factor.
PROBE_REFERENCE_MS = 17.11

#: cells the probe prices: ~20 ms of scalar Python on a 2-vCPU VM
PROBE_CELLS = 3600

#: CI gate: fresh optimized timings may be at most this factor slower than
#: the committed artifact (absorbs machine-speed differences between the
#: machine that committed the baseline and the CI runner)
REGRESSION_FACTOR = 3.0

#: CI gate: planning with durable telemetry *enabled* (a live writer
#: recording one search event per plan) may cost at most this fraction
#: over planning with telemetry off.  Measured on the fastest network —
#: the per-plan recording cost is fixed, so the shallowest plan is where
#: it is proportionally largest.
TELEMETRY_OVERHEAD_CEILING = 0.05
TELEMETRY_GATE_NETWORK = "alexnet"
TELEMETRY_REPEATS = 15


def _plan(net, scheme, telemetry=None):
    """One cold end-to-end plan: fresh array, fresh planner, fresh scheme."""
    array = heterogeneous_array()
    return Planner(array, scheme, telemetry=telemetry).plan(net, BATCH)


def _interleaved_ms(net, scheme_factories):
    """Time several schemes interleaved.

    Returns ``(median_ms, min_ms, pack_ms, recurrence_ms)`` per scheme, the
    last two the medians of each run's search split (zero for a backend
    that does not pack).

    Each repeat runs every scheme once, back to back, so a machine-noise
    burst (shared CI runner, single-core box) lands on all schemes instead
    of biasing whichever one happened to own that block of wall-clock.
    The speedup gates compare the *minima*: scheduler noise is strictly
    additive, so min-of-N estimates true cost stably where a ratio of
    block medians flaps; the medians are reported in the artifact.
    """
    times = [[] for _ in scheme_factories]
    splits = [[] for _ in scheme_factories]
    for _ in range(REPEATS):
        for slot, factory in enumerate(scheme_factories):
            scheme = factory()
            owner = Participant()
            t0 = time.perf_counter()
            previous = set_request_context(owner)
            try:
                _plan(net, scheme)
            finally:
                set_request_context(*previous)
            times[slot].append(time.perf_counter() - t0)
            counts = owner.planner_counts()
            splits[slot].append([counts.get("vec_pack_ns", 0),
                                 counts.get("vec_recurrence_ns", 0)])
    return [
        (statistics.median(ts) * 1e3, min(ts) * 1e3,
         statistics.median(ns[0] for ns in split) / 1e6,
         statistics.median(ns[1] for ns in split) / 1e6)
        for ts, split in zip(times, splits)
    ]


def _machine_probe():
    """A fixed pure-Python workload shaped like the seed planner's hot
    loop: a bisection of one balance residual per cell (its Eq. 10 solve)
    and a 3x3 min-plus step per nine cells (its Eq. 9 recurrence)."""
    frontier = [0.0, 0.0, 0.0]
    for layer in range(PROBE_CELLS // 9):
        step = []
        for cell in range(9):
            const = 1.0 + ((layer * 9 + cell) % 17) * 0.01
            lin = 0.5 + cell * 0.01
            quad = 0.001 * (cell % 3)
            lo, hi = 1e-3, 1.0 - 1e-3
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                ab = mid * (1.0 - mid)
                if const + lin * mid + quad * ab > \
                        const + lin * (1.0 - mid) + 2.0 * quad * ab:
                    hi = mid
                else:
                    lo = mid
            step.append(const + lin * lo)
        frontier = [min(frontier[p] + step[3 * p + t] for p in range(3))
                    for t in range(3)]
    return frontier


def _probe_min_ms():
    """The probe's minimum over ``REPEATS`` runs, after one warm-up."""
    _machine_probe()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _machine_probe()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def _legacy_scheme():
    """The legacy mode: the reference recurrence, bisection, no caches."""
    return PartitionScheme(backend=REFERENCE_BACKEND)


def _assert_same_plan(name, optimized, legacy):
    """The overhaul must not change a single decision: types identical,
    ratios within 1e-9, per-level costs within float noise."""
    opt_levels = collect_level_plans(optimized.plan)
    leg_levels = collect_level_plans(legacy.plan)
    assert len(opt_levels) == len(leg_levels), name
    for opt, leg in zip(opt_levels, leg_levels):
        assert set(opt.assignments) == set(leg.assignments), name
        for key in opt.assignments:
            o, l = opt.assignments[key], leg.assignments[key]
            assert o.ptype == l.ptype, (name, key, o.ptype, l.ptype)
            assert abs(o.ratio - l.ratio) <= 1e-9, (name, key, o.ratio, l.ratio)
        if opt.cost and leg.cost:
            rel = abs(opt.cost - leg.cost) / max(abs(leg.cost), 1e-30)
            assert rel <= 1e-9, (name, opt.cost, leg.cost)


def test_planner_throughput_and_regression_gate(results_dir):
    artifact_path = pathlib.Path(results_dir) / ARTIFACT
    committed = None
    if artifact_path.exists():
        committed = json.loads(artifact_path.read_text())
    register_backend(REFERENCE_BACKEND, ReferenceBisectionBackend)
    # calibrate the seed baseline to this machine; the gate uses minima
    # end to end, so the factor does too
    probe_ms = _probe_min_ms()
    machine_factor = probe_ms / PROBE_REFERENCE_MS

    networks = {}
    for name in NETWORKS:
        net = build_model(name)

        # identity first (also warms imports and caches for the timings)
        optimized = _plan(net, PartitionScheme())
        legacy = _plan(net, _legacy_scheme())
        _assert_same_plan(name, optimized, legacy)

        (
            (optimized_ms, optimized_min, pack_ms, recurrence_ms),
            (legacy_ms, legacy_min, _, _),
        ) = _interleaved_ms(net, (PartitionScheme, _legacy_scheme))
        seed_ms = SEED_BASELINE_MS[name] * machine_factor
        networks[name] = {
            "seed_baseline_ms": SEED_BASELINE_MS[name],
            "optimized_ms": round(optimized_ms, 2),
            "pack_ms": round(pack_ms, 2),
            "recurrence_ms": round(recurrence_ms, 2),
            "legacy_mode_ms": round(legacy_ms, 2),
            "speedup_vs_seed": round(seed_ms / optimized_min, 2),
            "speedup_vs_legacy_mode": round(legacy_min / optimized_min, 2),
        }

        assert seed_ms / optimized_min >= SPEEDUP_FLOOR, (
            f"{name}: optimized planner at {optimized_min:.1f}ms is only "
            f"{seed_ms / optimized_min:.1f}x over the machine-calibrated seed "
            f"baseline ({seed_ms:.1f}ms = {SEED_BASELINE_MS[name]:.1f}ms x "
            f"{machine_factor:.2f}); the overhaul requires >= {SPEEDUP_FLOOR}x"
        )

        if committed is not None:
            baseline = committed["networks"][name]["optimized_ms"]
            assert optimized_ms <= REGRESSION_FACTOR * baseline, (
                f"{name}: optimized planner regressed to {optimized_ms:.1f}ms, "
                f"more than {REGRESSION_FACTOR}x the committed baseline "
                f"({baseline:.1f}ms)"
            )

    payload = {
        "description": (
            "End-to-end hierarchical planning time (median of "
            f"{REPEATS} interleaved cold runs; speedup ratios compare the "
            "per-scheme minima, which are stable under shared-runner noise), "
            "heterogeneous 128+128 TPU-v2/v3 array, "
            f"batch {BATCH}.  seed_baseline_ms is the pre-overhaul planner "
            "recorded at the seed commit; optimized_ms is the planner (packed "
            "step costs, then the Eq. 9 recurrence: every fork path of a "
            "level in one numpy sweep, the top-level chain on Python "
            "floats), and "
            "pack_ms / recurrence_ms are the medians of its search's two "
            "phases over the same runs; legacy_mode_ms is the "
            "same solver configuration as the seed (scalar recurrence, "
            "bisection, uncached) running in-process today; machine_factor "
            "(probe_ms, the minimum time of a fixed pure-Python probe that "
            "runs no program code, over the probe's time on the machine "
            "that recorded the seed numbers) rescales the seed baseline to "
            "this machine before the speedup floor is checked."
        ),
        "batch": BATCH,
        "repeats": REPEATS,
        "regression_factor": REGRESSION_FACTOR,
        "probe_ms": round(probe_ms, 3),
        "machine_factor": round(machine_factor, 3),
        "networks": networks,
    }
    text = json.dumps(payload, indent=2)
    # atomic: a crashed run must not leave a truncated regression baseline
    atomic_write_text(artifact_path, text + "\n")
    print(f"\n[artifact: {artifact_path}]\n{text}")


def test_telemetry_overhead_gate(results_dir, tmp_path):
    """Durable telemetry must stay out of the planner's way.

    Two interleaved timing series on the same workload: telemetry off
    (no writer handed to the planner — the disabled-path contract, one
    attribute read per plan) and telemetry on (a live writer appending one
    search event per plan).  The enabled overhead, measured on the per-mode
    *medians*, must stay under ``TELEMETRY_OVERHEAD_CEILING``.  Medians
    rather than the minima the speedup gates use: the true recording
    cost is microseconds against a multi-millisecond plan, so at this
    resolution the minimum of either series is itself a noise draw,
    while the interleaved medians cancel machine noise that lands on
    both modes alike.
    """
    net = build_model(TELEMETRY_GATE_NETWORK)
    _plan(net, PartitionScheme())  # warm imports/caches outside the timings

    off_times, on_times = [], []
    with TelemetryWriter(tmp_path / "telemetry") as writer:
        # open the writer's segment outside the timed region: a production
        # writer stays open, so the on-path timing should not pay an open()
        writer.record({"type": "bench_warm"})
        for _ in range(TELEMETRY_REPEATS):
            t0 = time.perf_counter()
            _plan(net, PartitionScheme())
            off_times.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            _plan(net, PartitionScheme(), telemetry=writer)
            on_times.append(time.perf_counter() - t0)

    # one warm event + one search event per enabled plan
    assert writer.events_written == 1 + TELEMETRY_REPEATS
    off_ms = statistics.median(off_times) * 1e3
    on_ms = statistics.median(on_times) * 1e3
    overhead = on_ms / off_ms - 1.0
    assert overhead <= TELEMETRY_OVERHEAD_CEILING, (
        f"telemetry-enabled planning at {on_ms:.2f}ms is "
        f"{overhead * 100:.1f}% over the disabled path "
        f"({off_ms:.2f}ms); the ceiling is "
        f"{TELEMETRY_OVERHEAD_CEILING * 100:.0f}%"
    )

    # fold the measurement into the committed artifact (the main gate has
    # already rewritten it this run when the full file is executed)
    artifact_path = pathlib.Path(results_dir) / ARTIFACT
    payload = json.loads(artifact_path.read_text()) \
        if artifact_path.exists() else {}
    payload["telemetry_overhead"] = {
        "network": TELEMETRY_GATE_NETWORK,
        "repeats": TELEMETRY_REPEATS,
        "ceiling": TELEMETRY_OVERHEAD_CEILING,
        "disabled_ms": round(off_ms, 3),
        "enabled_ms": round(on_ms, 3),
        "overhead_pct": round(overhead * 100, 2),
    }
    text = json.dumps(payload, indent=2)
    atomic_write_text(artifact_path, text + "\n")
    print(f"\n[artifact: {artifact_path} telemetry_overhead]\n"
          f"{json.dumps(payload['telemetry_overhead'], indent=2)}")
