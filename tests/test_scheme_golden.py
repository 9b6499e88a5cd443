"""Every named scheme against plans recorded before the schemes were one record.

``tests/fixtures/scheme_golden.json`` was recorded on the build where AccPar,
its greedy fallback and the DP, OWT and HyPar baselines were six classes
built by two factories.  For each config it holds the SHA-256 of the
canonical JSON of the plan's ``nodes`` and ``plan`` (``plan_to_dict``): the
decisions, ratios, costs and shared structure, without the head fields.
Every config must still plan to the same digest.

Regenerate (only when a plan is meant to change) with::

    PYTHONPATH=src python tests/test_scheme_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import SCHEMES, get_scheme
from repro.core.planner import Planner
from repro.core.serialize import plan_to_dict
from repro.hardware.presets import parse_array
from repro.hardware.profile import load_profile
from repro.models import build_model

FIXTURE = Path(__file__).parent / "fixtures" / "scheme_golden.json"
PROFILE = Path(__file__).parent.parent / "examples" / "profiles" / "effective-tpu.json"

MODELS = ("lenet", "alexnet", "vgg11", "resnet18", "trident")
ARRAYS = ("tpu-v2:2,tpu-v3:2", "tpu-v3:3", "tpu-v2:1,tpu-v3:3",
          "tpu-v2:4,tpu-v3:4")
#: ``default`` keeps the scheme's own backend; brute force runs on lenet only
BACKENDS = ("default", "greedy", "fixed-type")
BATCH = 64


def config_ids():
    ids = []
    for model in MODELS:
        backends = BACKENDS + (("brute-force",) if model == "lenet" else ())
        ids += [f"{model}/{a}/{s}/{b}" for a in ARRAYS for s in SCHEMES
                for b in backends]
    # the accpar configs once more, priced by a calibrated profile
    ids += [f"{c}/effective-tpu" for c in list(ids)
            if c.split("/")[2] == "accpar"]
    return ids


def digest(config_id):
    model, array, scheme, backend, *variant = config_id.split("/")
    profile = load_profile(PROFILE) if variant else None
    scheme = get_scheme(scheme, profile=profile,
                        backend=None if backend == "default" else backend)
    planned = Planner(parse_array(array), scheme).plan(build_model(model), BATCH)
    doc = plan_to_dict(planned)
    text = json.dumps({"nodes": doc["nodes"], "plan": doc["plan"]},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_all():
    return {config_id: digest(config_id) for config_id in config_ids()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_golden_covers_the_grid(golden):
    assert len(config_ids()) == 384
    assert sorted(golden) == sorted(config_ids())


@pytest.mark.parametrize("model", MODELS)
def test_plans_match_golden(golden, model):
    for config_id in config_ids():
        if config_id.split("/")[0] == model:
            assert digest(config_id) == golden[config_id], config_id


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
