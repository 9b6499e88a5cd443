"""``plan_batch`` on every server, and one frame per owning shard.

Single-process ``repro serve`` and a bare shard answer ``plan_batch`` from
the one op table, each item as the ``plan`` op would answer it alone.  A
fleet frontend sends the items of one client request that one shard owns
to that shard as one ``plan_batch`` frame, and fails the items of a lost
frame over one by one.
"""

import io
import json
import socket
import time
from functools import partial

import pytest

from repro.cli import main
from repro.fleet import (
    FleetClient,
    FleetFrontend,
    HashRing,
    RetryPolicy,
    ShardServer,
    ShardSupervisor,
)
from repro.fleet.wire import (
    FRAME_HEADER_BYTES,
    MAX_REQUEST_FRAME_BYTES,
    FrameError,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.service import PlanService
from repro.service.server import (
    KNOWN_OPS,
    MAX_BATCH_ITEMS,
    handle_doc,
    handle_line,
    request_from_doc,
)

#: a small array keeps cold planning fast enough for tight test loops
ARRAY = "tpu-v2:2,tpu-v3:2"

#: the fields of a plan reply that do not depend on when it was served
STABLE = ("ok", "fingerprint", "model", "scheme", "batch", "levels",
          "root_cost")


def spec(model="lenet", batch=32, **extra):
    return {"model": model, "array": ARRAY, "batch": batch, **extra}


def counters(client):
    return client.stats()["frontend"]["metrics"]["counters"]


def shard_requests(client):
    return {name: snap["metrics"]["counters"].get("requests", 0)
            for name, snap in client.stats()["shards"].items()}


@pytest.fixture(params=["stdin", "shard"])
def server(request, tmp_path):
    """``(ask, shard label)``: one document in, its reply out, from the
    stdin op table of ``repro serve`` or from a bare shard's port."""
    if request.param == "stdin":
        with PlanService(workers=2) as service:
            handle = partial(handle_doc, service)
            yield (lambda doc: handle_line(handle, json.dumps(doc))), None
        return
    shard = ShardServer("7", cache_dir=tmp_path)
    shard.start_background()
    try:
        with socket.create_connection((shard.host, shard.port), 30) as sock:
            sock.settimeout(30.0)

            def ask(doc):
                send_frame(sock, doc)
                return recv_frame(sock)

            yield ask, "7"
    finally:
        shard.stop()


class TestPlanBatchOp:
    def test_items_are_answered_alone_and_in_order(self, server):
        ask, label = server
        reply = ask({"op": "plan_batch", "items": [
            spec(id="a"),
            {"model": "no-such-model", "array": ARRAY, "id": "b"},
            7,
            spec(op="shutdown", id="c"),
            spec(op="plan_batch", items=[spec()]),
            spec(batch=64, id="d"),
        ]})
        assert reply["ok"] and reply["count"] == 6
        assert reply["succeeded"] == 2
        assert reply["latency_ms"] >= 0
        items = reply["items"]
        assert [item["ok"] for item in items] == \
            [True, False, False, False, False, True]
        assert [items[0]["batch"], items[5]["batch"]] == [32, 64]
        assert "no-such-model" in items[1]["error"]
        assert items[2]["error"] == "batch items must be JSON objects"
        # a control op or a nested batch never runs from inside a batch
        assert items[3]["error"].startswith("unknown op 'shutdown'")
        assert items[4]["error"].startswith("unknown op 'plan_batch'")
        assert [item.get("id") for item in items] == \
            ["a", "b", None, "c", None, "d"]
        if label is not None:
            assert {item["shard"] for item in items} == {label}
        assert ask({"op": "ping"})["ok"]  # the shutdown item did not run

    def test_an_item_gets_the_plan_reply(self, server):
        ask, _ = server
        alone = ask(spec(include_plan=True))
        (item,) = ask({"op": "plan_batch",
                       "items": [spec(include_plan=True)]})["items"]
        assert set(item) == set(alone)
        assert [item[k] for k in STABLE] == [alone[k] for k in STABLE]
        assert item["plan"] == alone["plan"]
        assert item["source"] == "memory"

    def test_the_batch_deadline_is_inherited(self, server):
        ask, _ = server
        reply = ask({"op": "plan_batch", "deadline_ms": 0, "items": [
            spec(model="alexnet", batch=48),
            spec(model="alexnet", batch=40, deadline_ms=None),
        ]})
        inherited, own = reply["items"]
        # a zero deadline on a miss is the fallback, at once
        assert inherited["ok"] and inherited["degraded"]
        assert own["ok"] and own["source"] == "planned"

    @pytest.mark.parametrize("items, error", [
        ([], "plan_batch needs a non-empty 'items' list"),
        ("items", "plan_batch needs a non-empty 'items' list"),
        (None, "plan_batch needs a non-empty 'items' list"),
        ([spec()] * (MAX_BATCH_ITEMS + 1), "batch too large"),
    ])
    def test_a_bad_items_list_is_refused(self, server, items, error):
        ask, _ = server
        doc = {"op": "plan_batch", "id": 3}
        if items is not None:
            doc["items"] = items
        reply = ask(doc)
        assert not reply["ok"] and reply["error"] == error
        assert reply["id"] == 3
        if error == "batch too large":
            assert reply["limit_items"] == MAX_BATCH_ITEMS
            assert reply["got_items"] == MAX_BATCH_ITEMS + 1

    def test_known_ops_list_it(self, server):
        ask, _ = server
        assert "plan_batch" in ask({"op": "explode"})["known_ops"]
        assert "plan_batch" in KNOWN_OPS

    def test_serve_command(self, tmp_path, monkeypatch, capsys):
        line = json.dumps({"op": "plan_batch",
                           "items": [spec(id=1), spec(batch=64, id=2)]})
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["serve", "--cache-dir", str(tmp_path)]) == 0
        (reply,) = [json.loads(out) for out in
                    capsys.readouterr().out.splitlines()]
        assert reply["succeeded"] == 2
        assert [item["id"] for item in reply["items"]] == [1, 2]


def sleepy_planner(monkeypatch, seconds, batches=None):
    """Make every exact plan (of a batch size in ``batches``, if given)
    take at least ``seconds``."""
    original = PlanService._plan_exact

    def slow(self, request):
        if batches is None or request.batch in batches:
            time.sleep(seconds)
        return original(self, request)

    monkeypatch.setattr(PlanService, "_plan_exact", slow)


def recorded(service, monkeypatch):
    """The records ``service`` hands its recorder from now on, in order."""
    records = []
    observe = service.recorder.observe

    def keep(record):
        records.append(record)
        observe(record)

    monkeypatch.setattr(service.recorder, "observe", keep)
    return records


class TestPlanMany:
    SLEEP_S = 0.3

    def test_misses_plan_side_by_side(self, monkeypatch):
        sleepy_planner(monkeypatch, self.SLEEP_S)
        docs = [spec(batch=8 * (i + 1)) for i in range(4)]
        with PlanService(workers=4) as service:
            t0 = time.perf_counter()
            reply = handle_doc(service, {"op": "plan_batch", "items": docs})
            elapsed = time.perf_counter() - t0
        assert [item["source"] for item in reply["items"]] == ["planned"] * 4
        # four sleeps one after another would take 1.2 s
        assert elapsed < 2 * self.SLEEP_S, elapsed

    def test_each_deadline_counts_from_the_start(self, monkeypatch):
        sleepy_planner(monkeypatch, 0.6)
        requests = [(request_from_doc(spec(batch=8 * (i + 1))), 0.1, None)
                    for i in range(4)]
        with PlanService(workers=4) as service:
            t0 = time.perf_counter()
            responses = service.plan_many(requests)
            elapsed = time.perf_counter() - t0
            service.drain()
        assert all(r.degraded for r in responses)
        # one deadline, then the fallbacks: not four deadlines in a row
        assert elapsed < 0.3, elapsed

    def test_a_hit_is_not_timed_across_a_miss_ahead_of_it(self,
                                                          monkeypatch):
        """A hit behind a slow miss in one frame is answered and recorded
        as it would be alone: in well under its deadline."""
        sleepy_planner(monkeypatch, self.SLEEP_S)
        with PlanService(workers=2) as service:
            handle_doc(service, spec(batch=64))
            records = recorded(service, monkeypatch)
            reply = handle_doc(service, {"op": "plan_batch", "items": [
                spec(batch=8, deadline_ms=400),
                spec(batch=64, deadline_ms=50),
            ]})
        miss, hit = reply["items"]
        assert miss["source"] == "planned"
        assert hit["cache_hit"] and hit["latency_ms"] < 50, hit
        assert [r.fingerprint for r in records] == \
            [hit["fingerprint"], miss["fingerprint"]]
        assert records[0].deadline_met and records[0].latency_s < 0.05
        assert records[1].deadline_met

    def test_a_fast_miss_is_not_timed_across_a_slow_one(self, monkeypatch):
        """Misses finish as their plans land, not in frame order."""
        sleepy_planner(monkeypatch, 2 * self.SLEEP_S, batches=(8,))
        with PlanService(workers=2) as service:
            records = recorded(service, monkeypatch)
            reply = handle_doc(service, {"op": "plan_batch", "items": [
                spec(batch=8),
                spec(batch=16, deadline_ms=1000 * self.SLEEP_S),
            ]})
        slow, fast = reply["items"]
        assert slow["source"] == fast["source"] == "planned"
        assert fast["latency_ms"] < 1000 * self.SLEEP_S, fast
        assert slow["latency_ms"] >= 2000 * self.SLEEP_S
        assert [r.fingerprint for r in records] == \
            [fast["fingerprint"], slow["fingerprint"]]
        assert records[0].deadline_met

    def test_each_request_keeps_its_own_spans(self):
        """Started together, finished later: each request's spans still
        nest under its own ``service.request`` and carry its trace id."""
        requests = [(request_from_doc(spec(batch=b)), None, f"t{b}")
                    for b in (8, 16)]
        with PlanService(workers=2) as service:
            service.participant.tracer.enable()
            service.plan_many(requests)
            service.drain()
        spans = service.participant.tracer.drain()
        roots = {span.trace_id: span for span in spans
                 if span.name == "service.request"}
        assert set(roots) == {"t8", "t16"}
        for span in spans:
            if span.name in ("service.fingerprint", "service.cache_lookup",
                             "service.singleflight_wait"):
                assert span.parent_id == roots[span.trace_id].span_id

    def test_a_failed_request_comes_back_with_its_error(self, monkeypatch):
        original = PlanService._plan_exact

        def picky(self, request):
            if request.batch == 16:
                raise RuntimeError("no plan for you")
            return original(self, request)

        monkeypatch.setattr(PlanService, "_plan_exact", picky)
        requests = [(request_from_doc(spec(batch=b)), None, f"t{b}")
                    for b in (8, 16, 24)]
        with PlanService(workers=2) as service:
            responses = service.plan_many(requests)
            snapshot = service.snapshot()
        assert [r.error for r in responses] == [None, "no plan for you",
                                                None]
        assert responses[1].planned is None
        assert [r.trace_id for r in responses] == ["t8", "t16", "t24"]
        assert snapshot["metrics"]["counters"]["errors"] == 1
        assert snapshot["metrics"]["counters"]["requests"] == 3


@pytest.fixture
def fleet(tmp_path):
    with ShardSupervisor(2, cache_dir=tmp_path) as sup:
        with FleetFrontend(sup.handles) as frontend:
            with FleetClient(port=frontend.port) as client:
                yield sup, frontend, client


class TestOneFramePerShard:
    def test_a_batch_sends_one_frame_per_owning_shard(self, fleet):
        _, _, client = fleet
        docs = [spec(batch=8 * (i + 1)) for i in range(16)]
        for _ in range(2):  # cold, then warm
            before = counters(client).get("shard_frames", 0)
            reply = client.plan_batch([dict(d) for d in docs])
            assert reply["succeeded"] == 16
            owners = {item["shard"] for item in reply["items"]}
            assert owners == {"0", "1"}
            assert counters(client)["shard_frames"] - before == len(owners)

        owned = {name: 0 for name in owners}
        for item in reply["items"]:
            owned[item["shard"]] += 1
        # each item is still one request on the shard that owns it
        assert shard_requests(client) == {k: 2 * v for k, v in owned.items()}

        # a plan op is a batch of one
        before = counters(client)["shard_frames"]
        assert client.plan(spec())["ok"]
        after = counters(client)
        assert after["shard_frames"] - before == 1
        assert after["routed"] == 33

    def test_a_cold_frame_meets_its_batch_deadline(self, tmp_path,
                                                   monkeypatch):
        """Each shard starts its frame's misses together, so the frame is
        answered within the deadline plus a fallback, not one miss after
        another (which would pass the dispatch timeout)."""
        sleepy_planner(monkeypatch, 0.3)
        with ShardSupervisor(2, cache_dir=tmp_path, workers=4) as sup:
            with FleetFrontend(sup.handles) as frontend, \
                    FleetClient(port=frontend.port) as client:
                reply = client.plan_batch(
                    [spec(batch=8 * (i + 1)) for i in range(8)],
                    deadline_ms=400)
                assert reply["succeeded"] == 8, reply["items"]
                assert {item["source"] for item in reply["items"]} <= \
                    {"planned", "degraded"}
                assert counters(client).get("dispatch_timeouts", 0) == 0

    def test_a_cold_item_does_not_slow_its_frames_hits(self, tmp_path,
                                                       monkeypatch):
        """Admission learns each item's own service time: a frame that
        carries one slow miss beside several hits leaves the cache-hit
        estimate where it was, so a warm item with a tight deadline is
        still served, not shed as below the cache-hit service time."""
        sleepy_planner(monkeypatch, 0.3)
        with ShardSupervisor(2, cache_dir=tmp_path, workers=4) as sup:
            with FleetFrontend(sup.handles) as frontend, \
                    FleetClient(port=frontend.port) as client:

                def owner(doc):
                    return frontend.ring.owner(
                        request_from_doc(doc).fingerprint())

                docs = [spec(batch=8 * (i + 1)) for i in range(12)]
                assert client.plan_batch([dict(d) for d in docs])[
                    "succeeded"] == 12
                owners = [owner(doc) for doc in docs]
                shard = max(set(owners), key=owners.count)
                warm = [doc for doc, o in zip(docs, owners) if o == shard]
                cold = next(doc for doc in (spec(batch=200 + i)
                                            for i in range(64))
                            if owner(doc) == shard)
                assert client.plan_batch([dict(d) for d in warm])[
                    "succeeded"] == len(warm)
                before = client.stats()["frontend"]["admission"]
                reply = client.plan_batch([dict(cold)]
                                          + [dict(d) for d in warm])
                after = client.stats()["frontend"]["admission"]
                assert reply["items"][0]["source"] == "planned"
                assert all(item["cache_hit"] for item in reply["items"][1:])
                served = client.plan(dict(warm[0]), deadline_ms=40)
        # one 300 ms frame timed as each hit's cost would read >= 100 ms
        assert after["est_hit_ms"] < before["est_hit_ms"] + 20, \
            (before, after)
        assert served["ok"] and served["cache_hit"], served

    def test_a_hit_is_timed_to_its_own_answer_not_its_frames(
            self, tmp_path, monkeypatch):
        """A hit that shares a frame with a slow miss is recorded as the
        shard answered it: the frame's send time, its hop and the hit's
        own time on the shard.  The client's reply still waits for the
        miss."""
        sleepy_planner(monkeypatch, 0.3)
        with ShardSupervisor(1, cache_dir=tmp_path) as sup:
            frontend = FleetFrontend(sup.handles, heartbeat_interval_s=0.0)
            frontend.tracer.enable()
            with frontend, FleetClient(port=frontend.port) as client:
                assert client.plan(spec(batch=64))["ok"]
                records = recorded(frontend, monkeypatch)
                t0 = time.perf_counter()
                reply = client.plan_batch([spec(batch=8, deadline_ms=400),
                                           spec(batch=64, deadline_ms=50)])
                elapsed = time.perf_counter() - t0
                spans = {span.trace_id: span
                         for span in frontend.tracer.drain()}
        miss, hit = reply["items"]
        assert miss["source"] == "planned" and hit["cache_hit"], reply
        assert elapsed >= 0.3
        by_fingerprint = {record.fingerprint: record for record in records}
        hit_record = by_fingerprint[hit["fingerprint"]]
        miss_record = by_fingerprint[miss["fingerprint"]]
        assert hit_record.latency_s < 0.05 and hit_record.deadline_met, \
            hit_record
        assert miss_record.latency_s >= 0.3 and miss_record.deadline_met
        assert spans[hit_record.trace_id].duration_ns < 50e6
        assert spans[miss_record.trace_id].duration_ns >= 300e6
        slo = frontend.recorder.slo.snapshot()
        assert (slo["deadline_total"], slo["deadline_met_total"]) == (2, 2)

    def test_an_item_without_a_deadline_does_not_hold_one_with(
            self, tmp_path):
        """Items with and without deadlines travel in separate frames, so
        a frozen shard still sheds the ones with a deadline on time."""
        with ShardSupervisor(1, cache_dir=tmp_path, chaos="seed=2") as sup:
            frontend = FleetFrontend(sup.handles, heartbeat_interval_s=0.0)
            with frontend, FleetClient(port=frontend.port) as client:
                docs = [spec(batch=8), spec(batch=16)]
                assert client.plan_batch([dict(d) for d in docs])[
                    "succeeded"] == 2
                before = counters(client)  # stats would wait out a freeze
                handle = sup.handles[0]
                with socket.create_connection(
                        (handle.host, handle.port), 5) as sock:
                    send_frame(sock, {"op": "chaos_freeze", "seconds": 1.5})
                    assert recv_frame(sock)["ok"]
                reply = client.plan_batch([dict(docs[0], deadline_ms=200),
                                           dict(docs[1])])
                after = counters(client)
        timed, untimed = reply["items"]
        assert timed.get("error") == "shed", reply
        assert "during dispatch" in timed["reason"]
        assert untimed["ok"] and untimed["cache_hit"]
        assert after["shard_frames"] - before["shard_frames"] == 2
        assert after["dispatch_timeouts"] - \
            before.get("dispatch_timeouts", 0) == 1

    def test_a_batch_just_under_the_request_limit(self, tmp_path):
        """The frontend adds ``op`` and ``trace_id`` to every item, so one
        shard's unit of a batch just under the limit outgrows it: the
        frontend splits the unit into frames that fit."""
        docs = [spec(batch=8 * (i + 1), note="") for i in range(8)]
        doc = {"op": "plan_batch", "items": docs}
        room = MAX_REQUEST_FRAME_BYTES - 16 - (
            len(encode_frame(doc)) - FRAME_HEADER_BYTES)
        for index, item in enumerate(docs):
            item["note"] = "x" * (room // len(docs)
                                  + (room % len(docs) if index == 0 else 0))
        assert MAX_REQUEST_FRAME_BYTES - 16 == \
            len(encode_frame(doc)) - FRAME_HEADER_BYTES
        with ShardSupervisor(1, cache_dir=tmp_path) as sup:
            with FleetFrontend(sup.handles) as frontend, \
                    FleetClient(port=frontend.port) as client:
                reply = client.request(doc)
                assert reply["ok"] and reply["succeeded"] == 8, reply
                assert counters(client)["shard_frames"] >= 2


class TestBatchAdmission:
    def test_a_batch_is_not_its_own_queue(self, fleet):
        """Every item of a request is admitted against the depth queued
        before it, so one batch past the degrade and queue-full depths
        on an idle fleet is answered whole, at full fidelity."""
        _, frontend, client = fleet
        assert client.plan(spec())["ok"]
        items = 300
        assert items > frontend.admission.max_queue_depth
        reply = client.plan_batch([spec() for _ in range(items)])
        assert reply["succeeded"] == items, reply["items"][-1]
        assert all(item["cache_hit"] and not item.get("degraded")
                   for item in reply["items"])
        after = counters(client)
        assert after.get("shed_queue_full", 0) == 0
        assert after.get("degraded_pressure", 0) == 0
        assert after["admitted"] == items + 1


class TestFailoverPerItem:
    def test_each_item_of_a_lost_frame_takes_its_own_next_shard(
            self, tmp_path):
        with ShardSupervisor(3, cache_dir=tmp_path, chaos="seed=1") as sup:
            frontend = FleetFrontend(
                sup.handles,
                heartbeat_interval_s=0.0,  # the ring keeps the dead shard
                failure_threshold=10,
                retry=RetryPolicy(max_attempts=2, base_delay_s=0.01,
                                  max_delay_s=0.02, seed=0),
            )
            with frontend, FleetClient(port=frontend.port) as client:
                docs = [spec(batch=8 * (i + 1)) for i in range(12)]
                first = client.plan_batch([dict(d) for d in docs])
                assert first["succeeded"] == 12
                ring = HashRing([h.name for h in sup.handles])
                owners = [item["shard"] for item in first["items"]]
                victim = max(set(owners), key=owners.count)
                handle = sup.handles[int(victim)]
                with socket.create_connection(
                        (handle.host, handle.port), 5) as sock:
                    sock.settimeout(5.0)
                    send_frame(sock, {"op": "chaos_kill"})
                    # the shard answers with silence once it is dead; a
                    # batch sent before that could still reach it
                    try:
                        assert recv_frame(sock) is None
                    except (FrameError, OSError):
                        pass
                before = counters(client)

                second = client.plan_batch([dict(d) for d in docs])
                after = counters(client)

        assert second["succeeded"] == 12, second["items"]
        landed = []
        for owner, item in zip(owners, second["items"]):
            if owner != victim:
                assert item["shard"] == owner
                assert "failover_from" not in item
                continue
            expected = [s for s in ring.successors(item["fingerprint"])
                        if s != victim][0]
            assert item["shard"] == expected
            assert item["failover_from"] == victim
            landed.append(item["shard"])
        moved = len(landed)
        assert moved == owners.count(victim)
        # the lost frame's items went on to both survivors, not as a unit
        assert len(set(landed)) == 2

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        # failovers count items; route errors count the one lost frame
        assert delta("failover_total") == moved
        assert delta("failover_transport") == moved
        assert delta("route_errors") == 1
        assert delta("routed") == 12

    def test_a_known_down_owner_is_rerouted_before_dialing(
            self, fleet, monkeypatch):
        """An owner marked down after its items were routed (still on
        the ring) is never dialed: each item goes to the head of its own
        failover order, without ``failover_from``."""
        _, frontend, client = fleet
        docs = [spec(batch=8 * (i + 1)) for i in range(8)]
        first = client.plan_batch([dict(d) for d in docs])
        victim = first["items"][0]["shard"]
        monkeypatch.setattr(frontend.health, "is_up",
                            lambda name: name != victim)
        before = counters(client)
        second = client.plan_batch([dict(d) for d in docs])
        after = counters(client)
        moved = sum(1 for item in first["items"] if item["shard"] == victim)
        assert second["succeeded"] == 8
        assert {item["shard"] for item in second["items"]} == \
            {"0", "1"} - {victim}
        assert not any("failover_from" in item for item in second["items"])
        assert after["failover_shard_down"] - \
            before.get("failover_shard_down", 0) == moved
        assert after.get("route_errors", 0) == before.get("route_errors", 0)
