"""The simulator, verifier and quantizer against answers recorded before the
plan-tree walk was shared.

``tests/fixtures/walk_golden.json`` was written by :func:`record_all` on the
build whose planner, ``evaluate``, ``verify_planned`` and ``quantize_plan``
each carried their own recursion over the pairing tree.  Every config here
must still give the same totals, level records, energy, memory, verifier
issues and quantization reports.  Floats compare to 1e-12 relative, not bit
for bit, because CI runs several Python versions.

Regenerate (only when an answer is meant to change) with::

    PYTHONPATH=src python tests/test_walk_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from repro.baselines import get_scheme
from repro.cli import parse_array
from repro.core.planner import AccParPlanner, Planner
from repro.core.quantize import quantize_plan
from repro.core.verify import verify_planned
from repro.hardware import AcceleratorSpec, make_group
from repro.hardware.profile import load_profile
from repro.models import build_model
from repro.sim.executor import evaluate

FIXTURE = Path(__file__).parent / "fixtures" / "walk_golden.json"
PROFILE = Path(__file__).parent.parent / "examples" / "profiles" / "effective-tpu.json"

MODELS = ("alexnet", "vgg19", "resnet18", "resnet50", "trident")
ARRAYS = ("hetero", "homo", "tpu-v3:3", "tpu-v2:3,tpu-v3:2", "tpu-v2:1,tpu-v3:3")
SCHEMES = ("accpar", "owt", "hypar", "dp")
PROFILED_ARRAYS = ("tpu-v2:3,tpu-v3:2", "tpu-v2:4,tpu-v3:4")
BATCH = 512
REL_TOL = 1e-12


def _report_record(report):
    memory = report.memory_worst
    return {
        "total": report.total_time,
        "leaf": report.leaf_time,
        "comm": report.comm_time,
        "levels": [[r.level, r.comm_time, r.net_bytes_left, r.net_bytes_right]
                   for r in report.levels],
        "energy": [report.energy.compute_j, report.energy.hbm_j,
                   report.energy.network_j],
        "memory_utilization": None if memory is None else memory.utilization,
    }


def _record(planned, profile=None):
    quantized, quant = quantize_plan(planned)
    return {
        "evaluate": _report_record(evaluate(planned, profile=profile)),
        "verify": verify_planned(planned),
        "quantize": {
            "max_ratio_shift": quant.max_ratio_shift,
            "n_ratios": quant.n_ratios,
            "levels_quantized": quant.levels_quantized,
            "unrealizable": quant.unrealizable,
            "total": evaluate(quantized, profile=profile).total_time,
        },
    }


def _tiny_planned():
    """A two-board array whose HBM cannot hold alexnet: verify must flag it."""
    tiny = AcceleratorSpec("tiny", flops=1e12, memory_bytes=1e6,
                           memory_bandwidth=1e9, network_bandwidth=1e9)
    return AccParPlanner(make_group(tiny, 2)).plan(build_model("alexnet"),
                                                   batch=64)


def config_ids():
    ids = [f"{m}/{a}/{s}" for m in MODELS for a in ARRAYS for s in SCHEMES]
    ids += [f"resnet50/{a}/accpar/effective-tpu" for a in PROFILED_ARRAYS]
    ids.append("alexnet/tiny:2/accpar/overflow")
    return ids


def record(config_id):
    """The recorded answers for one config id of :func:`config_ids`."""
    model, array, scheme, *variant = config_id.split("/")
    if variant == ["overflow"]:
        return _record(_tiny_planned())
    profile = load_profile(PROFILE) if variant == ["effective-tpu"] else None
    planner = Planner(parse_array(array), get_scheme(scheme, profile=profile))
    return _record(planner.plan(build_model(model), BATCH), profile)


def record_all():
    return {config_id: record(config_id) for config_id in config_ids()}


def _assert_close(actual, expected, where):
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{index}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, where


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(config_ids())
    # the grid exercises every branch the walk folds: a verifier issue and
    # an unbalanced pairing tree
    assert golden["alexnet/tiny:2/accpar/overflow"]["verify"]
    assert any(len(golden[f"vgg19/tpu-v3:3/{s}"]["evaluate"]["levels"]) == 2
               for s in SCHEMES)


@pytest.mark.parametrize("model", MODELS)
def test_walk_matches_golden(golden, model):
    for config_id in config_ids():
        if config_id.split("/")[0] == model:
            _assert_close(record(config_id), golden[config_id], config_id)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
