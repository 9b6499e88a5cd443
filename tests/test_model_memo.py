"""Each registered model is decomposed once per process; a plan request fills
in only its batch (:func:`repro.core.stages.model_stages`).

Every IR layer passes its input's batch through unchanged, so the stage
structure and every shape past dimension 0 are the same at every batch.
These tests check that the memo's root sub-problem is the one a fresh
decomposition gives, that a later request for a model builds and decomposes
nothing, that the memo follows the registry, and that a plan does not
depend on which thread built the entry.  Imports nothing beyond the library,
numpy and pytest, so the CI plan-equivalence job can run it.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.baselines import get_scheme
from repro.core.planner import Planner
from repro.core.serialize import plan_to_json
from repro.core.stages import model_stages, to_sharded_stages
from repro.graph import Add, Conv2d, Flatten, Input, Linear, Network
from repro.graph.network import GraphError
from repro.hardware.presets import parse_array
from repro.models import available_models, build_model, register_model
from repro.models.registry import _BUILDERS
from repro.service import PlanCache, PlanRequest, PlanService

from tests.build_counts import NO_BUILD, ONE_BUILD, count_builds

SMALL = "tpu-v2:1,tpu-v3:1"


def _plan(model, batch, array=SMALL, scheme="accpar"):
    return Planner(parse_array(array), get_scheme(scheme)).plan(model, batch)


@pytest.mark.parametrize("model", available_models())
@pytest.mark.parametrize("batch", [1, 7, 64, 1024])
def test_memo_root_is_a_fresh_decomposition(model, batch):
    memo = model_stages(model).root(batch)
    fresh = to_sharded_stages(build_model(model).stages(batch))
    assert memo == fresh
    assert memo.workloads() == fresh.workloads()
    assert memo.skeleton.names == fresh.skeleton.names
    assert memo.skeleton.forks == fresh.skeleton.forks
    assert np.array_equal(memo.skeleton.dims, fresh.skeleton.dims)
    assert np.array_equal(memo.skeleton.is_conv, fresh.skeleton.is_conv)


@pytest.mark.parametrize("model", available_models())
@pytest.mark.parametrize("batch", [1, 7, 1024])
def test_with_batch_copy_is_the_constructors_workload(model, batch):
    # the batch fill copies each layer without the frozen constructor
    for layer in model_stages(model).skeleton.layers:
        copy = layer.with_batch(batch)
        built = dataclasses.replace(layer, batch=batch)
        assert type(copy) is type(built)
        assert copy == built
        assert hash(copy) == hash(built)
        assert dataclasses.astuple(copy) == dataclasses.astuple(built)
        assert vars(copy) == vars(built)
        # the copy is new; the layer it came from keeps its batch
        assert copy is not layer and layer.batch == 1


@pytest.mark.parametrize("batch", [0, -1])
def test_with_batch_refuses_a_non_positive_batch(batch):
    layer = model_stages("alexnet").skeleton.layers[0]
    with pytest.raises(ValueError, match="batch must be positive"):
        layer.with_batch(batch)


def test_a_plan_at_a_new_batch_builds_nothing(monkeypatch):
    for model in available_models():
        _plan(model, 16)
    builds = count_builds(monkeypatch)
    for model in available_models():
        planned = _plan(model, 24)
        assert planned.stages.skeleton.dims[0, 0] == 24
    assert builds == NO_BUILD


def test_named_and_built_plans_are_byte_equal():
    for model in ("alexnet", "resnet18", "trident"):
        for scheme in ("accpar", "owt", "greedy"):
            planner = Planner(parse_array(SMALL), get_scheme(scheme))
            by_name = planner.plan(model, 32)
            built = planner.plan(build_model(model), 32)
            assert plan_to_json(by_name) == plan_to_json(built), (model, scheme)
            assert by_name.stages == built.stages


def _tiny(width):
    def build():
        net = Network("memo-probe", Input("in", channels=8))
        net.add(Linear("fc", 8, width))
        return net
    return build


def test_reregistration_plans_the_new_architecture():
    first, other = _tiny(16), _tiny(32)
    request = PlanRequest(model="memo-probe", array=parse_array(SMALL))
    register_model("memo-probe", first)
    try:
        entry, key = model_stages("memo-probe"), request.fingerprint()
        assert _plan("memo-probe", 8).stages.skeleton.dims[2, 0] == 16
        register_model("memo-probe", other, overwrite=True)
        assert _plan("memo-probe", 8).stages.skeleton.dims[2, 0] == 32
        assert request.fingerprint() != key
        register_model("memo-probe", first, overwrite=True)
        assert model_stages("memo-probe") is entry
        assert request.fingerprint() == key
        assert _plan("memo-probe", 8).stages.skeleton.dims[2, 0] == 16
    finally:
        _BUILDERS.pop("memo-probe", None)


def test_a_decomposition_error_is_raised_every_time():
    calls = []

    def overlapping_forks():
        # two forks from c1 with different joins: not series-parallel
        calls.append(1)
        net = Network("memo-broken", Input("in", channels=4, height=4, width=4))
        c1 = net.add(Conv2d("c1", 4, 8, kernel=3, padding=1))
        c2 = net.add(Conv2d("c2", 8, 8, kernel=3, padding=1), inputs=[c1])
        add1 = net.add(Add("add1"), inputs=[c2, c1])
        c4 = net.add(Conv2d("c4", 8, 8, kernel=3, padding=1), inputs=[add1])
        add2 = net.add(Add("add2"), inputs=[c4, c1])
        net.add(Flatten("f"), inputs=[add2])
        net.add(Linear("fc", 8 * 4 * 4, 10))
        return net

    register_model("memo-broken", overlapping_forks)
    request = PlanRequest(model="memo-broken", array=parse_array(SMALL))
    try:
        for attempt in (1, 2):
            with pytest.raises(GraphError, match="not series-parallel"):
                request.fingerprint()
            assert len(calls) == attempt
    finally:
        _BUILDERS.pop("memo-broken", None)


def test_first_requests_on_eight_threads_plan_alike(monkeypatch):
    # resnet18 under a function no earlier test registered: all eight
    # threads race to build its entry, switching every 10 µs
    builds = count_builds(monkeypatch, "resnet18")
    barrier = threading.Barrier(8, timeout=60)
    texts = [None] * 8

    def first_request(index):
        barrier.wait()
        texts[index] = plan_to_json(_plan("resnet18", 8, "tpu-v2:2,tpu-v3:2"))

    threads = [threading.Thread(target=first_request, args=(index,))
               for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert 1 <= builds["builder"] <= 8
    assert len(set(texts)) == 1
    assert texts[0] == plan_to_json(Planner(
        parse_array("tpu-v2:2,tpu-v3:2"), get_scheme("accpar")).plan(
            build_model("resnet18"), 8))


def test_an_answered_disk_hit_builds_nothing(tmp_path, monkeypatch):
    request = PlanRequest(model="vgg11", array=parse_array(SMALL), batch=40)
    builds = count_builds(monkeypatch, "vgg11")
    with PlanService(cache=PlanCache(disk_dir=tmp_path)) as first:
        assert first.plan(request).source == "planned"
    assert builds == ONE_BUILD
    with PlanService(cache=PlanCache(disk_dir=tmp_path)) as second:
        hits = [second.plan(request), second.plan(
            dataclasses.replace(request, scheme="owt"))]
        hits.append(second.plan(request))
    assert [hit.source for hit in hits] == ["disk", "planned", "memory"]
    assert hits[0].planned.__dict__["_stages"] is None
    assert builds == ONE_BUILD
