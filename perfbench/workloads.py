"""The benchmark's workloads: catalogues, request streams and why each exists.

All three are closed loops, because the repo's clients (stdin pipes,
``FleetClient``, ``repro warm``) each wait for their reply before sending
the next request.  Each catalogue is fixed; the seed only picks the request
stream.  The "expected" magnitudes come from a prototype on a 2-vCPU x86
VM and give the order of magnitude only; they gate nothing.

An op is one plan item (a 16-item batch is 16 ops).  Every op is checked
against ``reference.json`` (see ``record_reference.py``), and every run
checks the property its workload exists for (``Workload.violations``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: the Fig. 5 models
MODELS = ("alexnet", "vgg11", "vgg13", "vgg16", "vgg19",
          "resnet18", "resnet34", "resnet50")

#: the Fig. 8 sweep: 2^k TPU-v2 plus 2^k TPU-v3 boards, k = 1..6
SWEEP = tuple(f"tpu-v2:{2 ** k},tpu-v3:{2 ** k}" for k in range(1, 7))

REFERENCE = Path(__file__).resolve().with_name("reference.json")

#: an op whose root cost differs from the reference by more than this
#: (relative) counts as failed
REL_TOL = 1e-9


def spec(model: str, array: str, batch: int) -> Dict:
    return {"model": model, "array": array, "batch": batch}


def key(doc: Dict) -> str:
    """The reference-answer key of a plan request."""
    return f"{doc['model']}|{doc['array']}|{doc['batch']}"


# ----------------------------------------------------------------------
# cold-plan
# ----------------------------------------------------------------------
# Why: every op is a distinct (model, array, batch), so every op runs the
# search and writes a new disk entry.  The planner (pairing tree, stage
# decomposition, cost model, ratio solver, DP) and the disk-tier write path
# (plan_to_dict, checksum, json.dumps, atomic write) do nearly all the
# work; no fleet layer runs and the cache never hits.
# Expected: ~12 ops/s; per-array medians from 8 ms (4 boards) to ~130 ms
# (hetero, 256 boards).  A plan on 256 boards serializes to a few MB, so
# the write path costs about twice the search there.

COLD_ARRAYS = ("hetero", "homo") + SWEEP
COLD_BATCHES = (32,) + tuple(range(64, 1025, 64))
#: off the batch grid, so set-up never plans a timed spec
COLD_WARMUP_BATCH = 16


def cold_specs() -> List[Dict]:
    return [spec(m, a, b) for m in MODELS for a in COLD_ARRAYS
            for b in COLD_BATCHES]


def mixed(docs: List[Dict]) -> List[Dict]:
    """A fixed interleaving of a catalogue.  Set-up never depends on the
    seed, so set-up time and memory peak do not either."""
    return random.Random(0).sample(docs, len(docs))


def cold_warmup() -> List[Dict]:
    """One throwaway plan per array, so the process-wide pairing-tree cache
    is warm, as it is in a long-running server."""
    return [spec("alexnet", array, COLD_WARMUP_BATCH) for array in COLD_ARRAYS]


def balanced(rng: random.Random, arrays: Tuple[str, ...],
             batches: Tuple[int, ...]) -> Iterator[Dict]:
    """Distinct specs, drawn without replacement, in a balanced order.

    The arrays take turns, each cycle in a seeded order, and each array
    goes through the models in rounds, at a batch that (model, array) pair
    has not had yet.  So however early a run stops, every array has had
    the same number of requests and every model the same share of them,
    give or take one: the per-spec cost spans 20x, and an unbalanced mix
    would show as run-to-run spread.  The seed moves only the order and
    the batch sizes.
    """
    def per_array(array: str) -> Iterator[Dict]:
        order = {model: rng.sample(batches, len(batches)) for model in MODELS}
        for round_index in range(len(batches)):
            for model in rng.sample(MODELS, len(MODELS)):
                yield spec(model, array, order[model][round_index])

    streams = [per_array(array) for array in arrays]
    for _ in range(len(MODELS) * len(batches)):
        for stream in rng.sample(streams, len(streams)):
            yield next(stream)


def cold_stream(rng: random.Random) -> Iterator[Dict]:
    return balanced(rng, COLD_ARRAYS, COLD_BATCHES)


# ----------------------------------------------------------------------
# warm-fleet
# ----------------------------------------------------------------------
# Why: every item is a memory hit, so the planner does nothing.  The time
# goes to the wire codec, frontend admission, the EDF queue and dispatch,
# shard handling, and two fingerprints per item (frontend and shard).  Half
# of the specs are on 256-board arrays, where fingerprints are expensive.
# Bypasses the planner and both disk-tier paths.
# Expected: ~245 items/s, batch p50 ~130 ms.

WARM_ARRAYS = ("hetero", "homo", "tpu-v2:2,tpu-v3:2", "tpu-v2:8,tpu-v3:8")
WARM_BATCHES = (64, 128, 256, 512)
#: items per plan_batch; two connections keep at most 32 items queued,
#: well below the admission controller's degrade depth of 64
WARM_BATCH_ITEMS = 16
WARM_CONNECTIONS = 2


def warm_specs() -> List[Dict]:
    return [spec(m, a, b) for m in MODELS for a in WARM_ARRAYS
            for b in WARM_BATCHES]


def warm_warmup() -> List[Dict]:
    """The whole catalogue, planned one item at a time."""
    return mixed(warm_specs())


def warm_stream(rng: random.Random) -> Iterator[List[Dict]]:
    """Batches of distinct catalogue specs, the same number on each array.

    A 256-board item costs several times a 4-board one, so a uniform draw
    would make batch latency swing with how many large arrays it picked.
    """
    per_array = WARM_BATCH_ITEMS // len(WARM_ARRAYS)
    by_array = [[spec(m, a, b) for m in MODELS for b in WARM_BATCHES]
                for a in WARM_ARRAYS]
    while True:
        batch = [doc for specs in by_array
                 for doc in rng.sample(specs, per_array)]
        rng.shuffle(batch)
        yield batch


# ----------------------------------------------------------------------
# disk-churn
# ----------------------------------------------------------------------
# Why: set-up fills the disk tier with a catalogue about 3x the 128-plan
# memory tier, so most ops are disk hits (file read, checksum,
# plan_from_dict), with planner runs, disk writes and LRU evictions beside
# them.  A change to the plan format or the cache that speeds up the
# cold-plan write path but slows reads shows up here.  No fleet layer runs.
# Arrays stop at 32 boards, which thins the heaviest plans out of set-up.
# Expected: 62 % disk, 25 % memory, 13 % planned; ~50 ops/s (prototype,
# with arrays up to 64 boards).

CHURN_ARRAYS = SWEEP[:4]
CHURN_BATCHES = tuple(range(64, 769, 64))
#: batches of the specs never seen before: off the catalogue grid
CHURN_NEW_BATCHES = tuple(range(32, 2048, 64))
#: one op in this many is a spec never seen before
CHURN_NEW_EVERY = 8
#: allowed share of each reply source; outside it the workload no longer
#: exercises what it exists for
CHURN_BANDS = {"memory": (0.15, 0.40), "disk": (0.45, 0.75),
               "miss": (0.10, 0.15)}


def churn_catalogue() -> List[Dict]:
    return [spec(m, a, b) for m in MODELS for a in CHURN_ARRAYS
            for b in CHURN_BATCHES]


def churn_new_specs() -> List[Dict]:
    return [spec(m, a, b) for m in MODELS for a in CHURN_ARRAYS
            for b in CHURN_NEW_BATCHES]


def churn_warmup() -> List[Dict]:
    """The whole catalogue; the last 128 planned stay in memory."""
    return mixed(churn_catalogue())


def churn_stream(rng: random.Random) -> Iterator[Dict]:
    """7 of 8 ops draw uniformly from the catalogue; every 8th is new.

    The new specs come in the :func:`balanced` order, like ``cold-plan``:
    they set the latency tail, and a seed that drew more large models
    would read as a slower run.
    """
    catalogue = churn_catalogue()
    fresh = balanced(rng, CHURN_ARRAYS, CHURN_NEW_BATCHES)
    index = 0
    while True:
        index += 1
        if index % CHURN_NEW_EVERY:
            yield rng.choice(catalogue)
        else:
            new = next(fresh, None)
            if new is None:
                return
            yield new


# ----------------------------------------------------------------------
# property checks
# ----------------------------------------------------------------------

def cold_violations(observed: Dict) -> List[str]:
    out = []
    if observed["repeated_fingerprints"]:
        out.append(f"{observed['repeated_fingerprints']} fingerprint(s) "
                   "repeated")
    if observed["miss"] != 1.0:
        out.append(f"miss ratio {observed['miss']} is not 1.0")
    return out


def warm_violations(observed: Dict) -> List[str]:
    out = []
    if observed["memory"] != 1.0:
        out.append(f"memory hit ratio {observed['memory']} is not 1.0")
    if observed["degraded_pressure"]:
        out.append(f"{observed['degraded_pressure']} item(s) degraded "
                   "under queue pressure")
    return out


def churn_violations(observed: Dict) -> List[str]:
    return [f"{tier} share {observed[tier]:.3f} outside [{low}, {high}]"
            for tier, (low, high) in CHURN_BANDS.items()
            if not low <= observed[tier] <= high]


@dataclass(frozen=True)
class Workload:
    """One traffic mix against ``repro serve``."""

    name: str
    #: True: TCP fleet frontend; False: stdin of the single-process server
    fleet: bool
    #: serve arguments besides ``--cache-dir``
    serve_args: Tuple[str, ...]
    #: set-ups per untraced run; setup_s is their median
    setup_repeats: int
    #: the requests set-up sends
    warmup: Callable[[], List[Dict]]
    #: the timed requests (stdin) or batches (fleet), one stream per client
    stream: Callable[[random.Random], Iterator]
    #: every spec the timed phase can send, for the reference answers
    specs: Callable[[], List[Dict]]
    violations: Callable[[Dict], List[str]]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cold-plan",
        fleet=False, serve_args=(), setup_repeats=5,
        warmup=cold_warmup, stream=cold_stream, specs=cold_specs,
        violations=cold_violations),
    Workload(
        name="warm-fleet",
        fleet=True, serve_args=("--shards", "2", "--port", "0"),
        setup_repeats=1,
        warmup=warm_warmup, stream=warm_stream, specs=warm_specs,
        violations=warm_violations),
    Workload(
        name="disk-churn",
        fleet=False, serve_args=(), setup_repeats=1,
        warmup=churn_warmup, stream=churn_stream,
        specs=lambda: churn_catalogue() + churn_new_specs(),
        violations=churn_violations),
)}


def load_reference() -> Dict[str, Dict]:
    return json.loads(REFERENCE.read_text())["answers"]


def matches(item: Dict, expected: Optional[Dict]) -> bool:
    """True when a reply item is ok, exact and equal to its reference."""
    if expected is None or not item.get("ok") or item.get("degraded"):
        return False
    if any(item.get(field) != expected[field]
           for field in ("model", "batch", "levels")):
        return False
    cost = item.get("root_cost")
    return isinstance(cost, float) and \
        abs(cost - expected["root_cost"]) <= REL_TOL * abs(expected["root_cost"])
