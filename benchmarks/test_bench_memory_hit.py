"""Benchmark: a memory hit costs about the same on any array or model.

A repeat plan request parses its array, fingerprints the request and reads
the memory tier.  The array text is parsed once per process: every request
that names one array shares one group and the digest it caches, and the
network digest is cached per model, so a hit on ``hetero`` neither builds
nor hashes 256 members, nor rebuilds or hashes resnet50's layers.
Measured per (model, array), as medians of interleaved rounds
(``results/BENCH_hit.json``):

* ``fingerprint_us``: ``request_from_doc(doc).fingerprint()`` on a fresh
  request;
* ``hit_us``: ``handle_doc`` answering the same document from memory.

Gates, in the same run: the resnet50 hit on ``hetero`` costs at most
:data:`HIT_RATIO_GATE` times the alexnet hit on four boards, and each
model's ``hetero`` fingerprint at most :data:`FINGERPRINT_RATIO_GATE`
times its four-board one.
"""

import json
import statistics
import time

from repro.ioutil import atomic_write_text
from repro.service import PlanCache, PlanService
from repro.service.server import handle_doc, request_from_doc

MODELS = ("alexnet", "resnet50")
ARRAYS = ("tpu-v2:2,tpu-v3:2", "tpu-v2:8,tpu-v3:8", "homo", "hetero")
BATCH = 64
ROUNDS = 200
HIT_RATIO_GATE = 5.0
FINGERPRINT_RATIO_GATE = 1.5
SMALL, LARGE = "alexnet/tpu-v2:2,tpu-v3:2", "resnet50/hetero"


def _us(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e6


def test_bench_memory_hit(results_dir):
    docs = {f"{m}/{a}": {"model": m, "array": a, "batch": BATCH}
            for m in MODELS for a in ARRAYS}
    samples = {key: {"fingerprint_us": [], "hit_us": []} for key in docs}
    with PlanService(cache=PlanCache(), workers=1) as service:
        for doc in docs.values():
            assert handle_doc(service, dict(doc))["source"] == "planned"
        # interleaved rounds: host drift hits every row alike
        for _ in range(ROUNDS):
            for key, doc in docs.items():
                samples[key]["fingerprint_us"].append(_us(
                    lambda: request_from_doc(doc).fingerprint()))
                samples[key]["hit_us"].append(_us(
                    lambda: handle_doc(service, dict(doc))))
        assert service.metrics.value("hits_memory") == ROUNDS * len(docs)

    rows = {key: {name: round(statistics.median(values), 1)
                  for name, values in row.items()}
            for key, row in samples.items()}
    ratio = rows[LARGE]["hit_us"] / rows[SMALL]["hit_us"]
    fingerprint_ratios = {
        model: round(rows[f"{model}/hetero"]["fingerprint_us"]
                     / rows[f"{model}/{ARRAYS[0]}"]["fingerprint_us"], 2)
        for model in MODELS}
    payload = {
        "description": (
            f"Median microseconds of a fresh request_from_doc(doc)."
            f"fingerprint() and of a handle_doc memory hit, per model and "
            f"array at batch {BATCH}, over {ROUNDS} interleaved rounds in "
            f"one process.  The array text is parsed once per process, so "
            f"a repeat request shares its array's group and cached digest.  "
            f"Gates: the {LARGE} hit is at most {HIT_RATIO_GATE}x the "
            f"{SMALL} hit, and each model's hetero fingerprint at most "
            f"{FINGERPRINT_RATIO_GATE}x its {ARRAYS[0]} fingerprint."
        ),
        "batch": BATCH,
        "rounds": ROUNDS,
        "hit_ratio_gate": HIT_RATIO_GATE,
        "hit_ratio": round(ratio, 2),
        "fingerprint_ratio_gate": FINGERPRINT_RATIO_GATE,
        "fingerprint_ratios": fingerprint_ratios,
        "rows": rows,
    }
    text = json.dumps(payload, indent=2)
    atomic_write_text(results_dir / "BENCH_hit.json", text + "\n")
    print(f"\n[artifact: {results_dir / 'BENCH_hit.json'}]\n{text}")

    assert ratio <= HIT_RATIO_GATE, (
        f"{LARGE} memory hit costs {ratio:.1f}x the {SMALL} hit "
        f"({rows[LARGE]['hit_us']} vs {rows[SMALL]['hit_us']} us)"
    )
    for model, fingerprint_ratio in fingerprint_ratios.items():
        assert fingerprint_ratio <= FINGERPRINT_RATIO_GATE, (
            f"{model}/hetero fingerprint costs {fingerprint_ratio}x the "
            f"{model}/{ARRAYS[0]} one")
