"""Fleet-serving bench: batched plan throughput across 1/2/4 shards.

Stands up a real fleet topology per shard count — thread-mode shards,
asyncio frontend, wire-protocol-v2 TCP client — and measures batched
(``plan_batch``) throughput in two regimes:

* **cold**: every spec is a planner run on its owning shard (the batch
  fans out across the consistent-hash ring);
* **warm**: the identical batch again, now served from the sharded
  caches (median of several repeats).

Each topology is measured in :data:`FLEETS` fresh fleets, and the
artifact holds the medians: one fleet's figures swing 2-3x on a shared
2-vCPU host.  Emits ``results/BENCH_fleet.json``.  The fresh median warm
throughput may not fall below ``1/REGRESSION_FACTOR`` of the committed
artifact for the same shard count (the committed file is read *before* it
is rewritten with this run's numbers) — the CI gate that keeps the
frontend hot path honest.  Every warm batch must also cross to each
owning shard as exactly one frame (the ``shard_frames`` counter).
"""

import json
import pathlib
import statistics
import time

from repro.fleet.client import FleetClient
from repro.fleet.frontend import FleetFrontend
from repro.fleet.shard import ShardSupervisor
from repro.ioutil import atomic_write_text

ARTIFACT = "BENCH_fleet.json"

SHARD_COUNTS = (1, 2, 4)
WARM_REPEATS = 5
#: fresh fleets per topology; the artifact and the gate take their medians
FLEETS = 5

#: one batch = every (model, batch-size) combination below; distinct
#: fingerprints, so the cold pass is pure planner work fanned across shards
MODELS = ("lenet", "alexnet")
BATCHES = (32, 64, 128, 256, 384, 512, 768, 1024)
ARRAY = "tpu-v2:2,tpu-v3:2"

#: CI gate: fresh warm throughput may be at most this factor slower than
#: the committed artifact (absorbs machine-speed differences between the
#: machine that committed the baseline and the CI runner)
REGRESSION_FACTOR = 3.0


def _batch_docs():
    return [{"model": model, "array": ARRAY, "batch": batch}
            for model in MODELS for batch in BATCHES]


def _assert_batch_ok(reply, ring):
    assert reply["ok"], reply
    assert reply["succeeded"] == len(reply["items"]), reply
    for item in reply["items"]:
        assert item["ok"], item
        assert item["shard"] == ring.owner(item["fingerprint"]), item


def _frames(client):
    return client.stats()["frontend"]["metrics"]["counters"].get(
        "shard_frames", 0)


def _run_fleet(shard_count, cache_dir):
    """Cold + warm batched throughput against one fresh fleet."""
    docs = _batch_docs()
    supervisor = ShardSupervisor(shard_count, cache_dir=cache_dir)
    with supervisor:
        with FleetFrontend(supervisor.handles) as frontend:
            with FleetClient(frontend.host, frontend.port) as client:
                t0 = time.perf_counter()
                reply = client.plan_batch(docs)
                cold_s = time.perf_counter() - t0
                _assert_batch_ok(reply, frontend.ring)

                owners = {item["shard"] for item in reply["items"]}
                frames_before = _frames(client)
                warm_times = []
                for _ in range(WARM_REPEATS):
                    t0 = time.perf_counter()
                    reply = client.plan_batch(docs)
                    warm_times.append(time.perf_counter() - t0)
                    _assert_batch_ok(reply, frontend.ring)
                    assert all(i["cache_hit"] for i in reply["items"]), \
                        "warm pass should be all cache hits"
                warm_s = statistics.median(warm_times)
                frames = (_frames(client) - frames_before) / WARM_REPEATS

                stats = client.stats()
                shards_hit = sum(
                    1 for shard in stats["shards"].values()
                    if shard["metrics"]["counters"].get("requests", 0)
                )
    return {
        "cold_items_per_s": len(docs) / cold_s,
        "warm_items_per_s": len(docs) / warm_s,
        "cold_batch_ms": cold_s * 1e3,
        "warm_batch_ms": warm_s * 1e3,
        "shards_serving": shards_hit,
        "owning_shards": len(owners),
        "shard_frames_per_warm_batch": frames,
    }


def _run_topology(shard_count, cache_root):
    """The medians of :data:`FLEETS` fresh fleets of ``shard_count``."""
    runs = [_run_fleet(shard_count,
                       cache_root / f"fleet-{shard_count}-{index}")
            for index in range(FLEETS)]

    def median(key, digits):
        return round(statistics.median(run[key] for run in runs), digits)

    for run in runs:
        # every shard must actually take traffic: consistent hashing over
        # 16 distinct fingerprints leaves no shard idle at these sizes
        assert run["shards_serving"] == shard_count, run
        # one frame per owning shard per batch, never one per item
        assert run["shard_frames_per_warm_batch"] == run["owning_shards"], run
    return {
        "cold_items_per_s": median("cold_items_per_s", 1),
        "warm_items_per_s": median("warm_items_per_s", 1),
        "cold_batch_ms": median("cold_batch_ms", 2),
        "warm_batch_ms": median("warm_batch_ms", 2),
        "shards_serving": shard_count,
        "shard_frames_per_warm_batch": runs[0]["shard_frames_per_warm_batch"],
        "warm_items_per_s_by_fleet": [round(run["warm_items_per_s"], 1)
                                      for run in runs],
    }


def test_fleet_batched_throughput_and_regression_gate(results_dir, tmp_path):
    artifact_path = pathlib.Path(results_dir) / ARTIFACT
    committed = None
    if artifact_path.exists():
        committed = json.loads(artifact_path.read_text())

    topologies = {}
    for count in SHARD_COUNTS:
        numbers = _run_topology(count, tmp_path)
        topologies[str(count)] = numbers

        if committed is not None and str(count) in committed["topologies"]:
            baseline = committed["topologies"][str(count)]["warm_items_per_s"]
            fresh = numbers["warm_items_per_s"]
            assert fresh >= baseline / REGRESSION_FACTOR, (
                f"{count}-shard median warm throughput regressed to "
                f"{fresh:.0f} items/s, below 1/{REGRESSION_FACTOR} of the "
                f"committed baseline ({baseline:.0f} items/s)"
            )

    payload = {
        "description": (
            "Batched plan-serving throughput against a live thread-mode "
            f"fleet (frontend + N shards, wire protocol v2).  One batch = "
            f"{len(_batch_docs())} distinct (model, batch-size) specs on "
            f"{ARRAY}.  cold = first pass (planner runs, fanned across the "
            f"ring); warm = median of {WARM_REPEATS} repeat passes served "
            f"from the sharded caches.  Each figure is the median of "
            f"{FLEETS} fresh fleets; shard_frames_per_warm_batch is the "
            "plan frames one warm batch sent to the shards (one per "
            "owning shard).  Thread-mode shards share the frontend's "
            "process and its one interpreter lock, so the 1 -> 2 -> 4 "
            "shard rows compare the cost of more frames and hops per "
            "batch, not serving capacity."
        ),
        "batch_items": len(_batch_docs()),
        "warm_repeats": WARM_REPEATS,
        "fleets": FLEETS,
        "regression_factor": REGRESSION_FACTOR,
        "topologies": topologies,
    }
    text = json.dumps(payload, indent=2)
    # atomic: a crashed run must not leave a truncated regression baseline
    atomic_write_text(artifact_path, text + "\n")
    print(f"\n[artifact: {artifact_path}]\n{text}")
