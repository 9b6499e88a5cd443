"""Plan document format 3: each distinct subtree stored, read and built once.

The fixtures in ``tests/fixtures/plans_v2/`` were written by the last
build that wrote format 2 (nested nodes, one spec per member), one per
``ZOO`` config of ``tests/plan_zoo.py`` at batch 64.  They are
frozen: this build can no longer write them, and the reader must keep
loading them.  The oracle is that a v2 document and its v3 re-encoding
decode to equal plans, and that v3 text round-trips byte-equal.

A malformed v3 document must be refused three ways: by
:func:`plan_from_dict`, by the disk tier (a ``disk_errors`` miss, then a
replan over it) and by a shard's ``cache_put`` (an error reply, and the
shard serves on).
"""

import dataclasses
import hashlib
import json
import math
import socket
import time
from pathlib import Path

import pytest

from repro.core.serialize import (
    FORMAT_VERSION,
    PlanFormatError,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
)
from repro.fleet import ShardServer
from repro.fleet.wire import recv_frame, send_frame
from repro.hardware import heterogeneous_array
from repro.hardware.cluster import TREE_CACHE_SIZE, _tree
from repro.hardware.presets import parse_array
from repro.models import build_model
from repro.plan import LayerAssignment, plan_diff
from repro.service import PlanCache, PlanRequest, PlanService
from repro.service.server import describe_cache_dir, handle_doc
from tests.plan_zoo import ZOO, ZOO_IDS, canonical, count_nodes, plan

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "plans_v2"


def fixture_path(model, array, scheme, backend):
    stem = "_".join(filter(None, (
        model, array.replace(":", "x").replace(",", "_"), scheme, backend)))
    return FIXTURES / f"{stem}.json"


def build_any(name):
    """Registry lookup that also resolves the frozen trident fixture, whose
    network was still named ``trident2`` when it was written."""
    return build_model("trident" if name == "trident2" else name)


def load(document):
    return plan_from_dict(document, network_builder=build_any)


def entries_and_costs(root):
    """Every node's (path, entries, cost), pre-order."""
    return [(path, node.level_plan.entries, node.level_plan.cost)
            for path, node in root.splits()]


def same_head(a, b):
    assert plan_diff(a.plan, b.plan) == []
    assert (a.network_name, a.batch, a.scheme, a.dtype_bytes) == \
        (b.network_name, b.batch, b.scheme, b.dtype_bytes)
    assert a.tree.group.members == b.tree.group.members


def assert_same_plan(a, b):
    same_head(a, b)
    assert entries_and_costs(a.plan) == entries_and_costs(b.plan)


def symmetric_splits(planned):
    """The paths of the splits between two groups of one signature."""
    paths = set()

    def visit(node, plan, path):
        if plan is None or plan.level_plan is None:
            return
        if node.left.group.signature() == node.right.group.signature():
            paths.add(path)
        visit(node.left, plan.left, path + "L")
        visit(node.right, plan.right, path + "R")

    visit(planned.tree, planned.plan, "root")
    return paths


def assert_frozen_plan_is_todays(today, frozen):
    """``frozen`` was written before a split between identical groups was
    solved by symmetry: ``today`` makes the same decisions, stores α
    exactly 0.5 on every layer of those splits, with a cost within 1e-12
    relative, and keeps every other entry and cost bit for bit."""
    same_head(today, frozen)
    symmetric = symmetric_splits(today)
    nodes, frozen_nodes = (entries_and_costs(today.plan),
                           entries_and_costs(frozen.plan))
    assert len(nodes) == len(frozen_nodes)
    for (path, entries, cost), (frozen_path, frozen_entries, frozen_cost) \
            in zip(nodes, frozen_nodes):
        assert path == frozen_path
        if path not in symmetric:
            assert (entries, cost) == (frozen_entries, frozen_cost), path
            continue
        layers = [e for e in entries if isinstance(e, LayerAssignment)]
        assert layers and all(e.alpha == 0.5 for e in layers), path
        assert entries == tuple(
            dataclasses.replace(e, alpha=0.5)
            if isinstance(e, LayerAssignment) else e
            for e in frozen_entries), path
        assert math.isclose(cost, frozen_cost, rel_tol=1e-12,
                            abs_tol=0.0), (path, cost, frozen_cost)


class TestV2Fixtures:
    def test_one_fixture_per_zoo_config(self):
        assert sorted(fixture_path(*case) for case in ZOO) == \
            sorted(FIXTURES.glob("*.json"))

    @pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
    def test_fixture_is_version_two(self, case):
        document = json.loads(fixture_path(*case).read_text())
        assert document["format_version"] == 2
        assert isinstance(document["plan"], dict)

    @pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
    def test_v2_and_its_v3_reencoding_decode_alike(self, case):
        from_v2 = load(json.loads(fixture_path(*case).read_text()))
        text = plan_to_json(from_v2)
        assert json.loads(text)["format_version"] == FORMAT_VERSION == 3
        from_v3 = load(json.loads(text))
        assert_same_plan(from_v2, from_v3)
        assert plan_to_json(from_v3) == text

    @pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
    def test_v2_fixture_decodes_to_todays_plan(self, case):
        """The frozen v2 plan is the plan this build makes: a v3 document
        of a fresh plan and the v2 fixture decode alike."""
        planned = plan(*case)
        from_v3 = load(json.loads(plan_to_json(planned)))
        from_v2 = load(json.loads(fixture_path(*case).read_text()))
        # the v2 trident fixture was written while that network still
        # called itself "trident2"; its plan is today's all the same
        if from_v2.network_name == "trident2":
            from_v2.network_name = "trident"
        assert_frozen_plan_is_todays(from_v3, from_v2)

    def test_extra_keys_on_a_v2_loaded_plan(self):
        path = fixture_path("alexnet", "hetero", "accpar", None)
        planned = load(json.loads(path.read_text()))
        extra = {"fingerprint": "cd" * 32}
        assert plan_to_json(planned, **extra) == \
            canonical({**plan_to_dict(planned), **extra})


class TestV3Document:
    @pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
    def test_text_round_trips_byte_equal(self, case):
        text = plan_to_json(plan(*case))
        assert plan_to_json(load(json.loads(text))) == text

    @pytest.mark.parametrize("case", ZOO, ids=ZOO_IDS)
    def test_nodes_are_distinct_subtrees_in_post_order(self, case):
        planned = plan(*case)
        document = plan_to_dict(planned)
        nodes = document["nodes"]
        for position, node in enumerate(nodes):
            for child in (node["left"], node["right"]):
                assert child is None or 0 <= child < position
        assert document["plan"] == len(nodes) - 1
        assert len(nodes) == count_nodes(planned.plan)[1]

    def test_array_is_runs_of_equal_specs(self):
        document = plan_to_dict(plan("alexnet", "hetero"))
        assert [(spec["name"], count) for spec, count in document["array"]] \
            == [("tpu-v3", 128), ("tpu-v2", 128)]
        assert set(document) == {
            "format_version", "network", "batch", "scheme", "dtype_bytes",
            "levels", "array", "nodes", "plan"}

    def test_one_board_array_has_no_nodes(self):
        document = plan_to_dict(plan("lenet", "tpu-v3:1"))
        assert (document["nodes"], document["plan"]) == ([], None)
        loaded = load(document)
        assert loaded.plan.level_plan is None and loaded.tree.is_leaf

    def test_disk_hit_shares_subtrees_like_the_planner(self, tmp_path):
        """alexnet on hetero, read back from a disk entry: 255 nodes, 15
        distinct node objects, as the planner made them."""
        req = PlanRequest(model="alexnet", array=heterogeneous_array(),
                          batch=64)
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as svc:
            planned = svc.plan(req).planned
        loaded, tier = PlanCache(disk_dir=tmp_path).get_with_tier(
            req.fingerprint())
        assert tier == "disk"
        assert count_nodes(loaded.plan) == count_nodes(planned.plan) == \
            (255, 15)
        assert_same_plan(planned, loaded)

    def test_each_distinct_node_is_built_once(self, monkeypatch):
        import repro.core.serialize as serialize

        text = plan_to_json(plan("alexnet", "hetero"))
        built = []
        level_from_dict = serialize._level_from_dict
        monkeypatch.setattr(serialize, "_level_from_dict",
                            lambda *a: built.append(1) or level_from_dict(*a))
        plan_from_dict(json.loads(text))
        assert len(built) == len(json.loads(text)["nodes"]) == 15


# --- malformed v3 documents -------------------------------------------

MODEL, ARRAY = "lenet", "tpu-v2:2,tpu-v3:2"


@pytest.fixture(scope="module")
def good_document():
    return plan_to_dict(plan(MODEL, ARRAY))


def with_run_count(count):
    def edit(document):
        document["array"][0][1] = count
    return edit


def with_runs(*counts):
    def edit(document):
        spec = document["array"][0][0]
        document["array"] = [[dict(spec), count] for count in counts]
    return edit


def with_child(offset):
    """Point the first node with a child at itself (0) or later (1)."""
    def edit(document):
        position = next(i for i, node in enumerate(document["nodes"])
                        if node["left"] is not None)
        document["nodes"][position]["left"] = position + offset
    return edit


def root_past_the_list(document):
    document["plan"] = len(document["nodes"])


def chain(length):
    def edit(document):
        document["nodes"] = [
            {"cost": 0.0, "entries": [], "scheme": "accpar",
             "left": None if i == 0 else i - 1, "right": None}
            for i in range(length)]
        document["plan"] = length - 1
    return edit


MALFORMED = {
    "run-count-0": with_run_count(0),
    "run-count-negative": with_run_count(-1),
    "run-count-fraction": with_run_count(1.5),
    "run-count-string": with_run_count("2"),
    "runs-past-4096": with_runs(2048, 2049),
    "run-of-a-billion": with_runs(1_000_000_000),
    "child-is-itself": with_child(0),
    "child-is-later": with_child(1),
    "root-past-the-list": root_past_the_list,
    "chain-of-5000": chain(5000),
}


def malformed(good_document, case):
    document = json.loads(json.dumps(good_document))
    MALFORMED[case](document)
    return document


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_reader_refuses(good_document, case, monkeypatch):
    import repro.core.serialize as serialize
    import repro.hardware.presets as presets

    specs, groups, nodes = [], [], []
    spec_from_dict = serialize._spec_from_dict
    level_from_dict = serialize._level_from_dict
    group = presets.AcceleratorGroup
    monkeypatch.setattr(serialize, "_spec_from_dict",
                        lambda *a: specs.append(1) or spec_from_dict(*a))
    monkeypatch.setattr(serialize, "_level_from_dict",
                        lambda *a: nodes.append(1) or level_from_dict(*a))
    monkeypatch.setattr(presets, "AcceleratorGroup",
                        lambda *a: groups.append(1) or group(*a))
    document = malformed(good_document, case)
    start = time.perf_counter()
    with pytest.raises(PlanFormatError):
        plan_from_dict(document)
    assert time.perf_counter() - start < 1.0
    assert nodes == []  # refused before any node is built
    if case.startswith("run"):
        # ... and before any member is built: one spec is read per run
        assert (len(specs), groups) == (len(document["array"]), [])


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_disk_tier_misses_and_replans(good_document, case, tmp_path):
    req = PlanRequest(model=MODEL, array=parse_array(ARRAY), batch=64)
    key = req.fingerprint()
    document = {**malformed(good_document, case), "fingerprint": key}
    text = canonical(document)
    checksum = hashlib.sha256(text.encode()).hexdigest()
    path = tmp_path / f"{key}.json"
    path.write_text(f'{{"checksum":"{checksum}",{text[1:]}')
    with PlanService(cache=PlanCache(disk_dir=tmp_path)) as svc:
        response = svc.plan(req)
        stats = svc.cache.stats
    assert response.source == "planned"
    assert (stats.disk_errors, stats.corrupt_total) == (1, 0)
    # the replan overwrote the entry with a readable one
    reloaded, tier = PlanCache(disk_dir=tmp_path).get_with_tier(key)
    assert tier == "disk"
    assert plan_diff(reloaded.plan, response.planned.plan) == []


@pytest.fixture(scope="module")
def shard():
    server = ShardServer("v3")
    server.start_background()
    yield server
    server.stop()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cache_put_is_refused_and_the_shard_serves_on(good_document, case,
                                                      shard):
    with socket.create_connection((shard.host, shard.port), 30) as sock:
        sock.settimeout(30.0)
        send_frame(sock, {"op": "cache_put", "fingerprint": "ab" * 8,
                          "plan": malformed(good_document, case)})
        reply = recv_frame(sock)
        assert reply["ok"] is False, reply
        send_frame(sock, {"op": "ping"})
        assert recv_frame(sock)["ok"]
    assert "ab" * 8 not in shard.service.cache


def test_cache_put_of_a_good_document_is_stored(good_document, shard):
    with socket.create_connection((shard.host, shard.port), 30) as sock:
        sock.settimeout(30.0)
        send_frame(sock, {"op": "cache_put", "fingerprint": "cd" * 8,
                          "plan": good_document})
        assert recv_frame(sock)["stored"] is True
    assert "cd" * 8 in shard.service.cache


def test_refused_cache_puts_keep_the_tree_cache_bounded(good_document):
    # each document's pairing tree is built before its depth is refused
    _tree.cache_clear()
    spec = good_document["array"][0][0]
    with PlanService() as svc:
        for count in range(8, 16 + TREE_CACHE_SIZE):
            document = dict(good_document, array=[[spec, count]], levels=12)
            reply = handle_doc(svc, {"op": "cache_put", "fingerprint": "ef" * 8,
                                     "plan": document})
            assert "does not match the rebuilt pairing tree" in reply["error"]
    assert _tree.cache_info().currsize == TREE_CACHE_SIZE


# --- nesting deeper than a reader recurses -----------------------------

def nested(version, depth):
    node = None
    for _ in range(depth):
        node = ({"assignments": {}} if version == 1 else {"entries": []}) | {
            "cost": 0.0, "scheme": "accpar", "left": node, "right": None}
    return node


@pytest.mark.parametrize("version", [1, 2])
def test_deeply_nested_old_document_is_a_format_error(good_document,
                                                      version):
    spec, count = good_document["array"][0]
    document = {**good_document, "format_version": version,
                "array": [spec] * 4, "plan": nested(version, 5000)}
    del document["nodes"]
    with pytest.raises(PlanFormatError, match="deeper"):
        plan_from_dict(document)


NESTED = "[" * 100_000 + "]" * 100_000


def test_nested_plan_file_is_a_format_error(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(NESTED)
    with pytest.raises(PlanFormatError, match="not a JSON document"):
        load_plan(path)


def test_service_stats_reads_past_a_nested_entry(tmp_path):
    (tmp_path / "0123456789abcdef.json").write_text(NESTED)
    assert "1x (unreadable)" in describe_cache_dir(tmp_path)


def test_nested_disk_entry_is_quarantined_and_replanned(tmp_path):
    req = PlanRequest(model=MODEL, array=parse_array(ARRAY), batch=64)
    path = tmp_path / f"{req.fingerprint()}.json"
    path.write_text(NESTED)
    with PlanService(cache=PlanCache(disk_dir=tmp_path)) as svc:
        response = svc.plan(req)
        stats = svc.cache.stats
    assert response.source == "planned"
    assert stats.corrupt_total == 1
    assert path.with_name(path.name + ".corrupt").exists()
    assert json.loads(path.read_text())["format_version"] == 3
