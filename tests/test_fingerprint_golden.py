"""Request fingerprints against keys recorded before any digest was cached.

``tests/fixtures/fingerprint_golden.json`` was written by :func:`record_all`
on the build that re-hashed every member spec and rebuilt and re-hashed the
network on each :meth:`PlanRequest.fingerprint` call; its ``trident/...``
rows were written again when that network took its registry key as its
name.  Fingerprints name disk-cache entries, so every key here must stay
byte-equal.

The other tests pin what the digest caches must keep: a re-registered model
gets a fresh key, and a repeat request neither builds nor hashes its
network.  A plan's depth, which replies now read off the pairing tree, is
that tree's depth.

Regenerate (only when ``REQUEST_SCHEMA_VERSION`` is bumped, or when a
model's definition changes, which moves only that model's rows) with::

    PYTHONPATH=src python tests/test_fingerprint_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core.planner import AccParPlanner
from repro.core.serialize import plan_from_dict, plan_to_json
from repro.graph import Input, Linear, Network
from repro.hardware.presets import parse_array
from repro.models import build_model, register_model
from repro.models.registry import _BUILDERS
from repro.service import fingerprint as fingerprint_module
from repro.service.server import request_from_doc

FIXTURE = Path(__file__).parent / "fixtures" / "fingerprint_golden.json"

MODELS = ("alexnet", "lenet", "vgg19", "resnet18", "resnet50", "trident")
ARRAYS = ("tpu-v3:1", "tpu-v2:1,tpu-v3:3", "tpu-v2:2,tpu-v3:2", "hetero",
          "homo", "tpu-v2:64,tpu-v3:64")
#: the default request, then one knob changed at a time
KNOBS = {
    "default": {},
    "backend": {"backend": "greedy"},
    "space": {"space": ["I", "II"]},
    "ratio_mode": {"ratio_mode": "equal"},
    "levels": {"levels": 1},
    "scheme": {"scheme": "hypar"},
    "dtype_bytes": {"dtype_bytes": 4},
}
BATCHES = (64, 512)


def config_ids():
    return [f"{m}/{a}/{k}/{b}" for m in MODELS for a in ARRAYS
            for k in KNOBS for b in BATCHES]


def request_doc(config_id):
    model, array, knob, batch = config_id.split("/")
    return {"model": model, "array": array, "batch": int(batch),
            **KNOBS[knob]}


def record_all():
    return {config_id: request_from_doc(request_doc(config_id)).fingerprint()
            for config_id in config_ids()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(config_ids())
    assert len(set(golden.values())) == len(golden)


@pytest.mark.parametrize("model", MODELS)
def test_fingerprints_match_golden(golden, model):
    for config_id in config_ids():
        if config_id.split("/")[0] == model:
            # twice: the first call may fill the digest caches, the second
            # reads them
            for _ in range(2):
                key = request_from_doc(request_doc(config_id)).fingerprint()
                assert key == golden[config_id], config_id


def _tiny(width):
    def build():
        net = Network("fingerprint-probe", Input("in", channels=8))
        net.add(Linear("fc", 8, width))
        return net

    return build


def test_reregistered_model_gets_a_fresh_key():
    first, other = _tiny(16), _tiny(32)
    doc = {"model": "fingerprint-probe", "array": "tpu-v2:1,tpu-v3:1"}
    register_model("fingerprint-probe", first)
    try:
        original = request_from_doc(doc).fingerprint()
        register_model("fingerprint-probe", other, overwrite=True)
        changed = request_from_doc(doc).fingerprint()
        register_model("fingerprint-probe", first, overwrite=True)
        restored = request_from_doc(doc).fingerprint()
    finally:
        _BUILDERS.pop("fingerprint-probe", None)
    assert changed != original
    assert restored == original


def test_repeat_requests_build_and_hash_the_network_once(monkeypatch):
    calls = {"build_model": 0, "builder": 0, "hash": 0}
    build, registered = fingerprint_module.build_model, _BUILDERS["resnet50"]
    network_fingerprint = Network.fingerprint

    def counted_build(name):
        calls["build_model"] += 1
        return build(name)

    def counted_builder():
        calls["builder"] += 1
        return registered()

    def counted_hash(self, batch=1):
        calls["hash"] += 1
        return network_fingerprint(self, batch)

    monkeypatch.setattr(fingerprint_module, "build_model", counted_build)
    # a fresh registration also starts from a cold digest cache
    monkeypatch.setitem(_BUILDERS, "resnet50", counted_builder)
    monkeypatch.setattr(Network, "fingerprint", counted_hash)
    doc = {"model": "resnet50", "array": "hetero"}
    keys = {request_from_doc(doc).fingerprint() for _ in range(100)}
    assert len(keys) == 1
    assert calls["build_model"] <= 1
    assert calls["builder"] == 1
    assert calls["hash"] == 1


@pytest.mark.parametrize("model,array", [
    ("alexnet", "hetero"),
    ("resnet18", "tpu-v2:1,tpu-v3:3"),
    ("vgg19", "tpu-v2:3,tpu-v3:2"),
    ("lenet", "tpu-v3:1"),
])
def test_plan_depth_is_the_tree_depth(model, array):
    planned = AccParPlanner(parse_array(array)).plan(build_model(model), 64)
    loaded = plan_from_dict(json.loads(plan_to_json(planned)))
    assert planned.plan.depth() == planned.tree.depth()
    assert loaded.plan.depth() == planned.tree.depth()
    assert planned.hierarchy_levels() == loaded.hierarchy_levels()


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
