"""The repo benchmark: seeded workloads against ``python -m repro serve``.

    python3 perfbench/run.py --workload cold-plan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is ``src/repro``,
started as a child process and driven over its stdin JSON-lines protocol or
its fleet TCP port by this one process, with at most two connections.  The
workloads are defined in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics of an untraced run.  Its
timings are scaled to a reference host speed by ``hostspeed.py``, whose
probe runs when no request is in flight; the raw figures go to stderr.  The server is pinned to one CPU and
this process to another.
``--trace 1`` runs the workload twice, untraced and then through
``launcher.py``, and reports the per-layer metrics of the traced run and
the tracing overhead.  Counter rows are differences between ``stats``
snapshots taken just before and just after the timed phase.

A summary goes to stderr; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every op matched its reference answer and the workload
kept the property it exists for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import workloads as wl
from hostspeed import HostSpeed, pinned, placement

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
LAUNCHER = BENCH_DIR / "launcher.py"

#: ceilings that only a broken server reaches; past SERVE_DEADLINE_S a
#: server is killed, so a wedged one fails the run instead of hanging it
SPAWN_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 60.0
SERVE_DEADLINE_S = 150.0

#: a fleet's timed phase runs in segments this long; between two of them,
#: with no request in flight, and at the end of set-up, the host-speed
#: probe runs this many times
SEGMENT_S = 1.0
PROBES_PER_PAUSE = 2

FLEET_UP = re.compile(r"fleet up: frontend (\S+):(\d+) ")

#: traced self time per op: (metric, launcher layer)
TRACE_MS_ROWS = (
    ("fleet.wire.ms_per_op", "fleet.wire"),
    ("fleet.admission.ms_per_op", "fleet.admission"),
    ("fleet.ring.ms_per_op", "fleet.ring"),
    ("fleet.shard.ms_per_op", "fleet.shard"),
    ("service.server.ms_per_op", "service.server"),
    ("service.fingerprint.ms_per_op", "service.fingerprint"),
    ("hardware.accelerator.fingerprint_ms_per_op",
     "hardware.accelerator.fingerprint"),
    ("graph.network.fingerprint_ms_per_op", "graph.network.fingerprint"),
    ("models.registry.build_ms_per_op", "models.registry.build"),
    ("service.service.wait_ms_per_op", "service.service.wait"),
    ("core.serialize.to_dict_ms_per_op", "core.serialize.to_dict"),
    ("service.cache.checksum_ms_per_op", "service.cache.checksum"),
    ("service.cache.put_ms_per_op", "service.cache.put"),
    ("ioutil.write_ms_per_op", "ioutil.write"),
    ("service.cache.lookup_ms_per_op", "service.cache.lookup"),
    ("core.serialize.from_dict_ms_per_op", "core.serialize.from_dict"),
    ("core.planner.ms_per_op", "core.planner"),
    ("hardware.cluster.ms_per_op", "hardware.cluster"),
    ("core.stages.ms_per_op", "core.stages"),
    ("plan.backends.search_ms_per_op", "plan.backends.search"),
)
TRACE_CALL_ROWS = (
    ("service.fingerprint.calls_per_op", "service.fingerprint"),
    ("models.registry.build_calls_per_op", "models.registry.build"),
)
TRACE_BYTE_ROWS = (
    ("fleet.wire.bytes_per_op", "fleet.wire"),
    ("service.cache.bytes_written_per_op", "ioutil.write"),
)
#: PlanService.plan's self time is mostly the wait on the single-flight
#: future; the worker's planner and write rows stand for it on the
#: critical path
OFF_CRITICAL_PATH = ("service.service.wait",)

END_TO_END_UNITS = {"ops_per_s": "ops/s", "latency_p50_ms": "ms",
                    "latency_p95_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
#: how an end-to-end metric scales to the reference host speed: the value
#: times the slowdown of the phase it was measured in, to this power
#: (rates up, times down, memory not)
SPEED_POWER = {"ops_per_s": ("timed", 1), "latency_p50_ms": ("timed", -1),
               "latency_p95_ms": ("timed", -1), "setup_s": ("setup", -1),
               "peak_rss_mb": ("timed", 0)}


class ServeError(RuntimeError):
    """The serve process died, timed out or broke the protocol."""


# ----------------------------------------------------------------------
# the program under test
# ----------------------------------------------------------------------

class Serve:
    """One ``repro serve`` child process on ``cpus``; its stderr goes to a
    log file."""

    def __init__(self, workload: wl.Workload, work: Path,
                 trace_out: Optional[Path], cpus: Set[int], **popen):
        work.mkdir(parents=True, exist_ok=True)
        self.cache_dir = work / "cache"
        self.log_path = work / "serve.log"
        args = ["serve", *workload.serve_args,
                "--cache-dir", str(self.cache_dir)]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(LAUNCHER), str(trace_out), *args]
        # the program gets only the generated inputs: no inherited knobs
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        self._log = open(self.log_path, "w")
        with pinned(cpus):
            self.proc = subprocess.Popen(argv, cwd=work, env=env,
                                         stderr=self._log, **popen)
        self._watchdog = threading.Timer(SERVE_DEADLINE_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise ServeError("no VmHWM line in /proc status")

    def _reap(self) -> None:
        try:
            self.proc.wait(EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._watchdog.cancel()
            self._log.close()

    def describe_failure(self) -> str:
        tail = self.log_path.read_text().splitlines()[-15:]
        return f"serve exit code {self.proc.poll()}; log tail:\n" + \
            "\n".join(tail)


class StdinServe(Serve):
    """Single-process ``repro serve``: one JSON line in, one line out."""

    def __init__(self, workload, work, trace_out, cpus):
        super().__init__(workload, work, trace_out, cpus,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         text=True, bufsize=1)

    def connect(self) -> None:
        """Nothing to dial: the first reply shows the server is up."""

    def call(self, doc: Dict) -> Tuple[Dict, float]:
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        latency = time.perf_counter() - start
        if not line:
            raise ServeError("serve closed its stdout")
        return json.loads(line), latency

    def stats(self) -> Dict:
        reply, _ = self.call({"op": "stats"})
        return service_view([reply["stats"]], frontend={})

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.call({"op": "shutdown"})
            self.proc.stdin.close()
        except (OSError, ValueError, ServeError):
            pass  # already gone or garbled; _reap collects the process
        finally:
            self._reap()


class FleetServe(Serve):
    """``repro serve --shards N --port 0``, driven over wire-v2 frames."""

    def __init__(self, workload, work, trace_out, cpus):
        super().__init__(workload, work, trace_out, cpus,
                         stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self.clients: list = []

    def connect(self) -> None:
        from repro.fleet.client import FleetClient
        from repro.fleet.retry import NO_RETRY

        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while True:
            match = FLEET_UP.search(self.log_path.read_text())
            if match:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise ServeError("the fleet did not come up")
            time.sleep(0.005)
        host, port = match.group(1), int(match.group(2))
        # no client-side retries: a transport error is a failed op
        self.clients = [FleetClient(host, port, timeout=CLIENT_TIMEOUT_S,
                                    retry=NO_RETRY)
                        for _ in range(wl.WARM_CONNECTIONS)]

    def batch(self, docs: List[Dict], client: int = 0
              ) -> Tuple[List[Dict], float]:
        start = time.perf_counter()
        reply = self.clients[client].plan_batch(docs)
        latency = time.perf_counter() - start
        items = reply.get("items") if reply.get("ok") else None
        if not isinstance(items, list) or len(items) != len(docs):
            items = [{"ok": False, "error": reply.get("error")}] * len(docs)
        return items, latency

    def stats(self) -> Dict:
        reply = self.clients[0].stats()
        shards = list((reply.get("shards") or {}).values())
        if not reply.get("ok") or not shards or not all(shards):
            raise ServeError(f"fleet_stats failed: {reply}")
        return service_view(shards,
                            frontend=reply["frontend"]["metrics"]["counters"])

    def close(self) -> None:
        try:
            if self.clients and self.proc.poll() is None:
                self.clients[0].shutdown()
        except (OSError, ValueError):
            pass  # a dead frontend; _reap collects the process
        finally:
            for client in self.clients:
                client.close()
            self._reap()


def service_view(services: List[Dict], frontend: Dict) -> Dict:
    """Counters summed over shards.  Planner counters are process-wide
    (thread shards share them), so they are taken once."""
    counters: Counter = Counter()
    cache: Counter = Counter()
    for snap in services:
        counters.update(snap["metrics"]["counters"])
        cache.update(snap["cache"])
    return {"service": dict(counters), "cache": dict(cache),
            "planner": dict(services[0]["planner"]),
            "frontend": dict(frontend)}


def stats_delta(before: Dict, after: Dict) -> Dict[str, Dict[str, int]]:
    return {section: {name: value - before[section].get(name, 0)
                      for name, value in after[section].items()}
            for section in after}


# ----------------------------------------------------------------------
# one run: spawn, set up, time, shut down
# ----------------------------------------------------------------------

@dataclass
class Run:
    """What one spawn / set-up / timed phase / shutdown cycle observed."""

    setup_s: float
    #: one entry per request: (latency_s, [(request doc, reply item)])
    samples: List[Tuple[float, List[Tuple[Dict, Dict]]]]
    wall_s: float
    delta: Dict[str, Dict[str, int]]
    peak_rss_mb: float
    #: total size of the entry files behind the disk-hit replies
    disk_hit_bytes: int
    #: per launcher layer: [calls, self_ns, bytes] inside the timed phase
    trace: Optional[Dict[str, List[int]]] = None

    def items(self):
        for latency, pairs in self.samples:
            for doc, item in pairs:
                yield latency, doc, item


def set_up(workload: wl.Workload, server, speed: HostSpeed,
           started: float) -> float:
    """Warm the server up; returns the set-up time since ``started``, the
    spawn, without the probes taken meanwhile."""
    spent = speed.spent_s
    warm_up(workload, server, speed)
    setup_s = time.perf_counter() - started - (speed.spent_s - spent)
    for _ in range(PROBES_PER_PAUSE):
        speed.sample("setup")
    return setup_s


def warm_up(workload: wl.Workload, server, speed: HostSpeed) -> None:
    """Send the workload's warm-up, probing the host between requests; a
    fleet then re-checks until every catalogue item answers as a
    non-degraded memory hit."""
    server.connect()
    warmup = workload.warmup()
    if not workload.fleet:
        for doc in warmup:
            reply, _ = server.call(doc)
            if not reply.get("ok") or reply.get("degraded"):
                raise ServeError(f"set-up request {doc} failed: {reply}")
            speed.tick("setup")
        return
    # one item at a time: plans never overlap, so neither set-up time nor
    # the memory peak depends on how the shards' worker pools interleave
    for doc in warmup:
        server.batch([doc])
        speed.tick("setup")
    size = wl.WARM_BATCH_ITEMS
    chunks = [warmup[i:i + size] for i in range(0, len(warmup), size)]
    for _ in range(3):
        warm = True
        for chunk in chunks:
            items, _ = server.batch(chunk)
            warm = warm and all(item.get("ok") and not item.get("degraded")
                                and item.get("source") == "memory"
                                for item in items)
            speed.tick("setup")
        if warm:
            return
    raise ServeError("the fleet catalogue never answered all-warm")


def timed_phase(workload: wl.Workload, server, seed: int, seconds: float,
                speed: HostSpeed) -> Tuple[list, float]:
    """``seconds`` of closed-loop requests, with the host-speed probe where
    no request is in flight.  The wall time returned leaves the probes out.
    """
    samples: list = []
    # the replies kept for checking make the load generator's heap grow;
    # its collector stays off, so no full collection lands in a latency
    gc.collect()
    gc.disable()
    try:
        loop = fleet_loop if workload.fleet else stdin_loop
        wall_s = loop(workload, server, seed, seconds, speed, samples)
    finally:
        gc.enable()
    return samples, wall_s


def stdin_loop(workload: wl.Workload, server: StdinServe, seed: int,
               seconds: float, speed: HostSpeed, samples: list) -> float:
    """One request at a time, probing between two of them every
    PROBE_EVERY_S; stops early if the stream runs out."""
    start, spent = time.perf_counter(), speed.spent_s
    wall_s = 0.0
    for doc in workload.stream(random.Random(f"{workload.name}:{seed}")):
        reply, latency = server.call(doc)
        samples.append((latency, [(doc, reply)]))
        speed.tick("timed")
        wall_s = time.perf_counter() - start - (speed.spent_s - spent)
        if wall_s >= seconds:
            break
    return wall_s


def fleet_loop(workload: wl.Workload, server: FleetServe, seed: int,
               seconds: float, speed: HostSpeed, samples: list) -> float:
    """Both connections in segments of SEGMENT_S, probing between two."""
    streams = [workload.stream(random.Random(f"{workload.name}:{seed}:{index}"))
               for index in range(wl.WARM_CONNECTIONS)]
    wall_s = 0.0
    while wall_s < seconds:
        start = time.perf_counter()
        fleet_segment(server, streams, samples,
                      start + min(SEGMENT_S, seconds - wall_s))
        wall_s += time.perf_counter() - start
        for _ in range(PROBES_PER_PAUSE):
            speed.sample("timed")
    return wall_s


def fleet_segment(server: FleetServe, streams: list, samples: list,
                  end: float) -> None:
    """A closed loop per connection until ``end``; each ends with its last
    reply, so no request is in flight when this returns."""
    errors: list = []

    def client_loop(index: int) -> None:
        try:
            while time.perf_counter() < end:
                docs = next(streams[index])
                items, latency = server.batch(docs, client=index)
                samples.append((latency, list(zip(docs, items))))
        except Exception as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(index,))
               for index in range(wl.WARM_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def load_trace(path: Path, window: Tuple[int, int]) -> Dict[str, List[int]]:
    """Per-layer [calls, self_ns, bytes] of the calls started in the window."""
    doc = json.loads(path.read_text())
    totals: Dict[str, List[int]] = {}
    low, high = window
    for index, start, _, self_ns, size in doc["records"]:
        if low <= start <= high:
            row = totals.setdefault(doc["layers"][index], [0, 0, 0])
            row[0] += 1
            row[1] += self_ns
            row[2] += size
    return totals


def entry_bytes(samples, cache_dir: Path) -> int:
    total = 0
    for _, pairs in samples:
        for _, item in pairs:
            if item.get("source") == "disk":
                base = cache_dir / f"shard-{item['shard']}" \
                    if "shard" in item else cache_dir
                total += (base / f"{item['fingerprint']}.json").stat().st_size
    return total


def spawn(workload: wl.Workload, work: Path, trace_out: Optional[Path],
          cpus: Set[int]):
    kind = FleetServe if workload.fleet else StdinServe
    return kind(workload, work, trace_out, cpus)


def setup_only(workload: wl.Workload, work: Path, speed: HostSpeed) -> float:
    """One extra set-up, timed and thrown away (for the setup_s median)."""
    started = time.perf_counter()
    server = spawn(workload, work, None, speed.cpus)
    try:
        return set_up(workload, server, speed, started)
    except ServeError as exc:
        raise ServeError(f"{exc}\n{server.describe_failure()}") from exc
    finally:
        server.close()
        shutil.rmtree(work, ignore_errors=True)


def run_once(workload: wl.Workload, seed: int, seconds: float, work: Path,
             traced: bool, speed: HostSpeed) -> Run:
    trace_out = work / "trace.json" if traced else None
    started = time.perf_counter()
    server = spawn(workload, work, trace_out, speed.cpus)
    try:
        setup_s = set_up(workload, server, speed, started)
        before = server.stats()
        window_start = time.perf_counter_ns()
        samples, wall_s = timed_phase(workload, server, seed, seconds, speed)
        window = (window_start, time.perf_counter_ns())
        after = server.stats()
        peak_rss_mb = server.peak_rss_mb()
    except ServeError as exc:
        raise ServeError(f"{exc}\n{server.describe_failure()}") from exc
    finally:
        server.close()
    run = Run(setup_s=setup_s, samples=samples, wall_s=wall_s,
              delta=stats_delta(before, after), peak_rss_mb=peak_rss_mb,
              disk_hit_bytes=entry_bytes(samples, server.cache_dir))
    if traced:
        run.trace = load_trace(trace_out, window)
    shutil.rmtree(work, ignore_errors=True)
    return run


# ----------------------------------------------------------------------
# correctness, properties and metrics
# ----------------------------------------------------------------------

def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check(workload: wl.Workload, run: Run, reference: Dict
          ) -> Tuple[int, int, Dict, List[str]]:
    """(attempted, failed, observed shares, property violations)."""
    attempted = failed = 0
    sources: Counter = Counter()
    fingerprints: Counter = Counter()
    for _, doc, item in run.items():
        attempted += 1
        failed += not wl.matches(item, reference.get(wl.key(doc)))
        sources[item.get("source")] += 1
        fingerprints[item.get("fingerprint")] += 1
    observed = {
        "memory": ratio(sources["memory"], attempted),
        "disk": ratio(sources["disk"], attempted),
        "miss": ratio(attempted - sources["memory"] - sources["disk"],
                      attempted),
        "repeated_fingerprints": sum(n - 1 for n in fingerprints.values()),
        "degraded_pressure": run.delta["frontend"].get("degraded_pressure", 0),
    }
    return attempted, failed, observed, workload.violations(observed)


def end_to_end(run: Run, setup_times: List[float], completed: int) -> Dict:
    """The end-to-end metrics as measured, at this host's speed."""
    latencies = [latency for latency, _ in run.samples]
    return {
        "ops_per_s": completed / run.wall_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run.peak_rss_mb,
    }


def at_reference_speed(values: Dict, speed: HostSpeed) -> Dict:
    scaled = {}
    for name, value in values.items():
        phase, power = SPEED_POWER[name]
        scaled[name] = value * speed.slowdown(phase) ** power
    return scaled


def per_layer(run: Run, observed: Dict, untraced_ops_per_s: float,
              traced_ops_per_s: float) -> Dict:
    items = list(run.items())
    ops = len(items)
    d = run.delta
    service, cache, planner, frontend = (d["service"], d["cache"],
                                         d["planner"], d["frontend"])
    level_plans = sum(v for k, v in planner.items()
                      if k.startswith("level_plans_"))
    memo = planner.get("hierarchy_memo_hits", 0) + \
        planner.get("hierarchy_memo_misses", 0)
    sheds = sum(frontend.get(k, 0)
                for k in ("shed_deadline", "shed_queue_full", "shed_late"))
    metrics = {
        "service.cache.memory_hit_ratio": observed["memory"],
        "service.cache.disk_hit_ratio": observed["disk"],
        "service.cache.miss_ratio": observed["miss"],
        "service.service.ms_p50": statistics.median(
            item.get("latency_ms", 0.0) for _, _, item in items),
        "service.service.coalesced_ratio": ratio(
            sum(bool(item.get("coalesced")) for _, _, item in items), ops),
        "service.service.degraded_ratio": ratio(
            sum(bool(item.get("degraded")) for _, _, item in items), ops),
        "service.service.planner_runs_per_op": ratio(
            service.get("planner_runs", 0), ops),
        "ingress.ms_p50": statistics.median(
            latency * 1e3 - item.get("latency_ms", 0.0)
            for latency, _, item in items),
        "core.cost_model.step_calls_per_op": ratio(
            planner.get("step_calls", 0), ops),
        "core.cost_model.step_cache_hit_ratio": ratio(
            planner.get("step_cache_hits", 0), planner.get("step_calls", 0)),
        "core.ratio.solves_per_op": ratio(planner.get("ratio_solves", 0), ops),
        "core.ratio.bisection_fallback_ratio": ratio(
            planner.get("ratio_bisection_fallback", 0),
            planner.get("ratio_solves", 0)),
        "core.hierarchy.level_plans_per_op": ratio(level_plans, ops),
        "core.hierarchy.memo_hit_ratio": ratio(
            planner.get("hierarchy_memo_hits", 0), memo),
        "core.multipath.path_dp_runs_per_op": ratio(
            planner.get("multipath_path_dp_runs", 0), ops),
        "core.dp_vectorized.pack_ms_per_op": ratio(
            planner.get("vec_pack_ns", 0) / 1e6, ops),
        "core.dp_vectorized.recurrence_ms_per_op": ratio(
            planner.get("vec_recurrence_ns", 0) / 1e6, ops),
        "fleet.frontend.shed_ratio": ratio(sheds, frontend.get("items", 0)),
        "fleet.frontend.degraded_pressure_ratio": ratio(
            frontend.get("degraded_pressure", 0), frontend.get("items", 0)),
        "fleet.frontend.retries_per_op": ratio(
            frontend.get("retries_total", 0), ops),
        "fleet.frontend.failovers_per_op": ratio(
            frontend.get("failover_total", 0), ops),
        "service.cache.evictions_per_op": ratio(cache.get("evictions", 0), ops),
        "service.cache.bytes_read_per_op": ratio(run.disk_hit_bytes, ops),
    }
    trace = run.trace or {}
    critical_ms = 0.0
    for metric, layer in TRACE_MS_ROWS:
        value = ratio(trace.get(layer, [0, 0, 0])[1] / 1e6, ops)
        metrics[metric] = value
        if layer not in OFF_CRITICAL_PATH:
            critical_ms += value
    for metric, layer in TRACE_CALL_ROWS:
        metrics[metric] = ratio(trace.get(layer, [0, 0, 0])[0], ops)
    for metric, layer in TRACE_BYTE_ROWS:
        metrics[metric] = ratio(trace.get(layer, [0, 0, 0])[2], ops)
    mean_latency_ms = statistics.fmean(latency for latency, _, _ in items) * 1e3
    # on the serial stdin workloads these rows plus this one add up to the
    # mean op latency; under the fleet's concurrency it also holds queueing
    metrics["bench.unaccounted_ms_per_op"] = mean_latency_ms - critical_ms
    metrics["bench.trace_overhead_pct"] = \
        (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100
    return metrics


def layer_units(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ms_per_op"):
        return "ms/op"
    if "bytes_" in name:
        return "B/op"
    if name.endswith("_per_op"):
        return "count/op"
    return "ms"


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool,
            work: Path, server_cpus: Set[int]) -> Dict:
    reference = wl.load_reference()
    runs = []
    speeds = []
    if trace:
        for name, traced in (("untraced", False), ("traced", True)):
            speeds.append(HostSpeed(server_cpus))
            runs.append(run_once(workload, seed, seconds, work / name, traced,
                                 speeds[-1]))
    else:
        speeds.append(HostSpeed(server_cpus))
        setup_times = [setup_only(workload, work / f"setup-{index}", speeds[0])
                       for index in range(workload.setup_repeats - 1)]
        runs.append(run_once(workload, seed, seconds, work / "run", False,
                             speeds[0]))
        setup_times.append(runs[0].setup_s)
    attempted = failed = 0
    violations: List[str] = []
    checked = []
    for run in runs:
        run_attempted, run_failed, observed, run_violations = \
            check(workload, run, reference)
        attempted += run_attempted
        failed += run_failed
        violations += run_violations
        checked.append((run, run_attempted - run_failed, observed))
    rates = [completed / run.wall_s * speed.slowdown("timed")
             for (run, completed, _), speed in zip(checked, speeds)]
    if trace:
        run, _, observed = checked[-1]
        values = per_layer(run, observed, rates[0], rates[1])
        units = {name: layer_units(name) for name in values}
    else:
        run, completed, observed = checked[0]
        raw = end_to_end(run, setup_times, completed)
        print("perfbench: as measured: " + " ".join(
            f"{k}={v:.4g}" for k, v in raw.items()) + " sources: " + " ".join(
            f"{k}={observed[k]:.3f}" for k in ("memory", "disk", "miss")),
            file=sys.stderr)
        values = at_reference_speed(raw, speeds[0])
        units = END_TO_END_UNITS
    for message in violations:
        print(f"perfbench: property lost: {message}", file=sys.stderr)
    print(f"perfbench: {workload.name} seed={seed} trace={int(trace)} "
          f"ops={attempted} failed={failed} slowdown="
          + "/".join(f"{s.slowdown('setup'):.3f},{s.slowdown('timed'):.3f}"
                     for s in speeds) + " "
          + " ".join(f"{k}={v:.4g}" for k, v in values.items()
                     if not k.startswith("core.")), file=sys.stderr)
    return {
        "correct": failed == 0 and not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}: run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    server_cpus, client_cpus = placement()
    os.sched_setaffinity(0, client_cpus)
    try:
        result = measure(wl.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), work, server_cpus)
    except ServeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
