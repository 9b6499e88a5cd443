"""Benchmark: plan-service cache speedup and single-flight coalescing.

Three serving-layer claims are measured (and enforced):

* a warm (cached) request is at least 10x faster than the cold planning run
  it memoizes — the whole point of fronting the O(N·|T|²) DP with a cache;
* N concurrent identical requests trigger exactly one planner invocation,
  i.e. a coalescing factor of N;
* the disk tier writes an entry at least 10x faster than the indented
  writer it replaced, and reads it back no slower than that writer's
  reader (``results/BENCH_cache.json``);
* a format-3 entry, which stores each distinct plan subtree once, is at
  most a tenth of the format-2 entry earlier builds wrote for resnet50 on
  256 boards, and its disk hit is faster;
* a disk hit builds no model and no stages: the timed hits make no
  ``build_model`` and no ``Network.stages`` call.
"""

import hashlib
import json
import threading
import time

from repro.core.planner import AccParPlanner
from repro.core.serialize import plan_from_dict, plan_to_dict
from repro.hardware.presets import heterogeneous_array
from repro.ioutil import atomic_write_text
from repro.models import build_model
from repro.plan import plan_diff
from repro.service import PlanCache, PlanRequest, PlanService
from repro.service.cache import entry_checksum

from conftest import save_artifact
from tests.build_counts import count_builds

MODEL = "vgg19"
BATCH = 512
THREADS = 8


def test_bench_cold_vs_warm_and_coalescing(results_dir):
    array = heterogeneous_array(8, 8)
    request = PlanRequest(model=MODEL, array=array, batch=BATCH)

    with PlanService(workers=THREADS) as service:
        t0 = time.perf_counter()
        cold = service.plan(request)
        cold_s = time.perf_counter() - t0
        assert cold.source == "planned"

        warm_samples = []
        for _ in range(20):
            t0 = time.perf_counter()
            warm = service.plan(request)
            warm_samples.append(time.perf_counter() - t0)
            assert warm.source == "memory"
        warm_s = min(warm_samples)

    # concurrent duplicate requests on a fresh service: one planner run
    with PlanService(workers=THREADS) as service:
        barrier = threading.Barrier(THREADS)
        responses = [None] * THREADS

        def worker(i):
            barrier.wait()
            responses[i] = service.plan(request)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(THREADS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        herd_s = time.perf_counter() - t0

        planner_runs = service.metrics.value("planner_runs")
        coalesced = service.metrics.value("coalesced")

    speedup = cold_s / warm_s
    factor = THREADS / planner_runs
    lines = [
        f"plan service cache benchmark ({MODEL}, batch {BATCH}, "
        f"{array.size} accelerators)",
        f"  cold plan latency        {cold_s * 1e3:9.2f} ms",
        f"  warm (cache) latency     {warm_s * 1e3:9.2f} ms  (best of 20)",
        f"  warm speedup             {speedup:9.1f}x",
        f"  {THREADS} concurrent duplicates  {herd_s * 1e3:9.2f} ms wall",
        f"  planner invocations      {planner_runs:9d}",
        f"  coalesced requests       {coalesced:9d}",
        f"  coalescing factor        {factor:9.1f}x",
    ]
    save_artifact(results_dir, "bench_service_cache.txt", "\n".join(lines))

    assert planner_runs == 1, "duplicate requests must plan exactly once"
    assert coalesced == THREADS - 1
    assert speedup >= 10.0, (
        f"warm requests must be >=10x faster than cold (got {speedup:.1f}x: "
        f"cold {cold_s * 1e3:.2f}ms, warm {warm_s * 1e3:.2f}ms)"
    )


# --- disk tier -----------------------------------------------------------

DISK_MODELS = ("vgg19", "resnet50")
DISK_ROUNDS = 5
PUT_SPEEDUP_GATE = 10.0
#: the v3 entry of this model must be at most this share of its v2 entry
V2_GATE_MODEL = "resnet50"
V2_SIZE_GATE = 0.1


def v2_document(planned):
    """The plan as the format-2 document earlier builds wrote: every node
    nested in its parent (a shared subtree once per parent), and every
    member spec listed."""
    document = plan_to_dict(planned)
    nodes = document.pop("nodes")

    def expand(index):
        if index is None:
            return None
        node = nodes[index]
        return {**node, "left": expand(node["left"]),
                "right": expand(node["right"])}

    return {**document, "format_version": 2,
            "array": [spec for spec, count in document["array"]
                      for _ in range(count)],
            "plan": expand(document["plan"])}


def reference_put(directory, key, planned):
    """The indented writer: expand, checksum, ``json.dumps(indent=2)``."""
    document = v2_document(planned)
    document["fingerprint"] = key
    document["checksum"] = entry_checksum(document)
    atomic_write_text(directory / f"{key}.json",
                      json.dumps(document, indent=2))


def reference_get(directory, key):
    """The indented layout's reader: parse, ``entry_checksum``, rebuild."""
    data = json.loads((directory / f"{key}.json").read_text())
    assert data["checksum"] == entry_checksum(data)
    return plan_from_dict(data)


def v2_put(directory, key, planned):
    """The compact format-2 entry the previous build wrote (checksum
    first, then the canonical text), which a disk hit here still reads."""
    text = json.dumps({**v2_document(planned), "fingerprint": key},
                      sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(text.encode("utf-8")).hexdigest()
    atomic_write_text(directory / f"{key}.json",
                      f'{{"checksum":"{checksum}",{text[1:]}')


def _ms(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1e3


def _disk_row(model, array, tmp_path, builds):
    """``builds`` counts model builds (:func:`count_builds`); the row
    records the ones made inside the timed disk hits."""
    planned = AccParPlanner(array).plan(build_model(model), batch=BATCH)
    key = PlanRequest(model=model, array=array, batch=BATCH).fingerprint()
    dirs = {name: tmp_path / f"{model}-{name}"
            for name in ("reference", "v2", "canonical")}
    for directory in dirs.values():
        directory.mkdir()

    samples = {name: [] for name in (
        "put_ms", "put_ms_reference",
        "hit_ms", "hit_ms_reference", "hit_ms_v2")}
    cache = PlanCache(disk_dir=dirs["canonical"])
    v2_put(dirs["v2"], key, planned)
    hit_builds = dict.fromkeys(("build_model", "stages"), 0)
    # interleaved rounds: host drift hits every writer and reader alike
    for _ in range(DISK_ROUNDS):
        samples["put_ms_reference"].append(
            _ms(reference_put, dirs["reference"], key, planned))
        samples["put_ms"].append(_ms(cache.put, key, planned))
        before = dict(builds)
        samples["hit_ms_reference"].append(
            _ms(reference_get, dirs["reference"], key))
        samples["hit_ms_v2"].append(
            _ms(PlanCache(disk_dir=dirs["v2"]).get_with_tier, key))
        samples["hit_ms"].append(
            _ms(PlanCache(disk_dir=dirs["canonical"]).get_with_tier, key))
        for name in hit_builds:
            hit_builds[name] += builds[name] - before[name]

    for name in ("canonical", "v2"):
        reader = PlanCache(disk_dir=dirs[name])
        hit, tier = reader.get_with_tier(key)
        assert tier == "disk" and reader.stats.disk_errors == 0, name
        assert plan_diff(hit.plan, planned.plan) == [], name

    row = {name: round(min(values), 2) for name, values in samples.items()}
    row.update({
        name: (dirs[directory] / f"{key}.json").stat().st_size
        for name, directory in (("entry_bytes", "canonical"),
                                ("entry_bytes_v2", "v2"),
                                ("entry_bytes_reference", "reference"))
    })
    row["put_speedup"] = round(row["put_ms_reference"] / row["put_ms"], 1)
    row["hit_speedup"] = round(row["hit_ms_reference"] / row["hit_ms"], 2)
    row["entry_share_of_v2"] = round(
        row["entry_bytes"] / row["entry_bytes_v2"], 3)
    row["hit_speedup_over_v2"] = round(row["hit_ms_v2"] / row["hit_ms"], 2)
    row["hit_builds"] = hit_builds
    return row


def test_bench_disk_tier(results_dir, tmp_path, monkeypatch):
    array = heterogeneous_array()
    builds = count_builds(monkeypatch)
    rows = {model: _disk_row(model, array, tmp_path, builds)
            for model in DISK_MODELS}

    payload = {
        "description": (
            f"Disk-tier entry write (PlanCache.put) and disk hit (a fresh "
            f"PlanCache.get_with_tier) of today's format-3 entries, against "
            f"the indented writer and its reader (format-2 document + "
            f"entry_checksum + json.dumps(indent=2); json.loads + "
            f"entry_checksum + plan_from_dict) and against the compact "
            f"format-2 entries the previous build wrote (*_v2: every plan "
            f"node nested in its parent, every member spec listed), timed "
            f"in one process on {array.size} boards (hetero), batch "
            f"{BATCH}.  Best of {DISK_ROUNDS} interleaved rounds.  "
            f"hit_builds: the build_model and Network.stages calls made "
            f"inside all the timed hits of a model (a loaded plan builds "
            f"its stages on first read, and a hit reads none)."
        ),
        "boards": array.size,
        "batch": BATCH,
        "rounds": DISK_ROUNDS,
        "put_speedup_gate": PUT_SPEEDUP_GATE,
        "v2_gate": {"model": V2_GATE_MODEL,
                    "max_entry_share_of_v2": V2_SIZE_GATE,
                    "hit_faster_than_v2": True},
        "models": rows,
    }
    text = json.dumps(payload, indent=2)
    atomic_write_text(results_dir / "BENCH_cache.json", text + "\n")
    print(f"\n[artifact: {results_dir / 'BENCH_cache.json'}]\n{text}")

    for model, row in rows.items():
        assert row["hit_builds"] == {"build_model": 0, "stages": 0}, (
            f"{model}: the timed disk hits built models or stages: "
            f"{row['hit_builds']}"
        )
        assert row["put_speedup"] >= PUT_SPEEDUP_GATE, (
            f"{model}: disk-tier put only {row['put_speedup']}x faster than "
            f"the indented writer ({row['put_ms']} vs "
            f"{row['put_ms_reference']} ms)"
        )
        assert row["hit_ms"] <= row["hit_ms_reference"], (
            f"{model}: disk hit {row['hit_ms']} ms is slower than the "
            f"indented reader's {row['hit_ms_reference']} ms"
        )
    row = rows[V2_GATE_MODEL]
    assert row["entry_bytes"] <= V2_SIZE_GATE * row["entry_bytes_v2"], (
        f"{V2_GATE_MODEL}: v3 entry of {row['entry_bytes']} bytes is more "
        f"than {V2_SIZE_GATE} of the v2 entry's {row['entry_bytes_v2']}"
    )
    assert row["hit_ms"] < row["hit_ms_v2"], (
        f"{V2_GATE_MODEL}: v3 disk hit {row['hit_ms']} ms is not faster "
        f"than the v2 disk hit's {row['hit_ms_v2']} ms"
    )
