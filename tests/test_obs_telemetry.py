"""Durable telemetry store: writer, rotation, quarantine, producers."""

import json
import os
import threading

import pytest

from repro.hardware.presets import heterogeneous_array, homogeneous_array
from repro.models.registry import build_model
from repro.core.cost_model import PairCostModel
from repro.core.planner import PartitionScheme, Planner
from repro.obs.telemetry import (
    CALIBRATION_SCHEMA,
    ReadReport,
    TelemetryError,
    TelemetryWriter,
    calibration_export,
    iter_events,
    read_events,
    scrub,
    segment_paths,
    summarize,
)
from repro.sim.executor import evaluate


class TestWriter:
    def test_round_trip(self, tmp_path):
        with TelemetryWriter(tmp_path) as writer:
            writer.record({"type": "request", "outcome": "ok"})
            writer.record({"type": "search", "elapsed_ms": 12.5})
        events = read_events(tmp_path)
        assert [e["type"] for e in events] == ["request", "search"]
        # every event is stamped
        assert all("ts" in e for e in events)

    def test_type_filter(self, tmp_path):
        with TelemetryWriter(tmp_path) as writer:
            writer.record({"type": "request"})
            writer.record({"type": "chaos"})
        assert [e["type"] for e in read_events(tmp_path, types=("chaos",))] \
            == ["chaos"]

    def test_rotation_by_size(self, tmp_path):
        with TelemetryWriter(tmp_path, max_segment_bytes=120) as writer:
            for index in range(10):
                writer.record({"type": "request", "i": index})
        assert len(segment_paths(tmp_path)) > 1
        assert writer.segments_rotated > 1
        # nothing lost across the rotation boundary
        assert [e["i"] for e in read_events(tmp_path)] == list(range(10))

    def test_retention_deletes_oldest(self, tmp_path):
        with TelemetryWriter(tmp_path, max_segment_bytes=80,
                             max_segments=2) as writer:
            for index in range(20):
                writer.record({"type": "request", "i": index})
        segments = segment_paths(tmp_path)
        assert len(segments) <= 2
        assert writer.segments_deleted > 0
        # survivors are the newest events
        survivors = [e["i"] for e in read_events(tmp_path)]
        assert survivors == sorted(survivors)
        assert survivors[-1] == 19

    def test_restart_opens_new_segment(self, tmp_path):
        with TelemetryWriter(tmp_path) as writer:
            writer.record({"type": "request", "run": 1})
            first = writer.segment_path
        # simulate a crash mid-line: torn tail on the first segment
        with open(first, "ab") as handle:
            handle.write(b'{"type": "requ')
        with TelemetryWriter(tmp_path) as writer:
            writer.record({"type": "request", "run": 2})
            second = writer.segment_path
        assert first != second
        report = ReadReport()
        events = list(iter_events(tmp_path, report=report))
        assert [e["run"] for e in events] == [1, 2]
        assert report.corrupt_lines == 1

    def test_disabled_writer_is_a_no_op(self, tmp_path):
        writer = TelemetryWriter(tmp_path, enabled=False)
        writer.record({"type": "request"})
        assert writer.events_written == 0
        assert segment_paths(tmp_path) == []

    def test_bad_configuration(self, tmp_path):
        with pytest.raises(TelemetryError):
            TelemetryWriter(tmp_path, max_segment_bytes=0)
        with pytest.raises(TelemetryError):
            TelemetryWriter(tmp_path, max_segments=0)

    def test_snapshot_counters(self, tmp_path):
        with TelemetryWriter(tmp_path) as writer:
            writer.record({"type": "request"})
            snap = writer.snapshot()
        assert snap["events_written"] == 1
        assert snap["events_dropped"] == 0
        assert snap["bytes_written"] > 0
        assert snap["segment_seq"] == 1
        assert snap["enabled"] is True


#: a line nested past the JSON parser's recursion limit
NESTED_LINE = "[" * 100000 + "]" * 100000


class TestQuarantine:
    def _store_with_corruption(self, tmp_path, bad_line="{not json at all"):
        with TelemetryWriter(tmp_path) as writer:
            writer.record({"type": "request", "i": 0})
            writer.record({"type": "request", "i": 1})
            path = writer.segment_path
        lines = path.read_text().splitlines()
        lines.insert(1, bad_line)
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def test_iter_skips_and_counts(self, tmp_path):
        self._store_with_corruption(tmp_path)
        report = ReadReport()
        events = list(iter_events(tmp_path, report=report))
        assert [e["i"] for e in events] == [0, 1]
        assert report.corrupt_lines == 1

    def test_scrub_quarantines_never_deletes(self, tmp_path):
        path = self._store_with_corruption(tmp_path)
        report = scrub(tmp_path)
        assert report.corrupt_lines == 1
        sidecar = path.with_name(path.name + ".corrupt")
        assert sidecar.exists()
        assert "not json" in sidecar.read_text()
        # the segment itself is clean now
        clean = ReadReport()
        list(iter_events(tmp_path, report=clean))
        assert clean.corrupt_lines == 0
        assert clean.events == 2

    def test_nested_line_is_one_corrupt_line(self, tmp_path):
        path = self._store_with_corruption(tmp_path, NESTED_LINE)
        report = ReadReport()
        events = list(iter_events(tmp_path, report=report))
        assert [e["i"] for e in events] == [0, 1]
        assert report.corrupt_lines == 1
        assert scrub(tmp_path).corrupt_lines == 1
        sidecar = path.with_name(path.name + ".corrupt")
        assert sidecar.read_text() == NESTED_LINE + "\n"
        assert len(read_events(tmp_path)) == 2


def _plan(telemetry=None, model="lenet", array=None):
    planner = Planner(array or heterogeneous_array(), PartitionScheme(),
                      telemetry=telemetry)
    return planner.plan(build_model(model), batch=32)


class TestProducers:
    def test_planner_records_search_event(self, tmp_path):
        with TelemetryWriter(tmp_path) as writer:
            _plan(writer)
        events = read_events(tmp_path, types=("search",))
        assert len(events) == 1
        event = events[0]
        assert event["model"] == "lenet"
        assert event["scheme"] == "accpar"
        assert event["backend"] == "dp"
        assert event["elapsed_ms"] >= 0
        # the counter delta carries real search work
        assert sum(event["counters"].values()) > 0

    def test_concurrent_plans_count_only_their_own_work(self, tmp_path,
                                                         monkeypatch):
        plans = {"lenet": heterogeneous_array(),
                 "alexnet": homogeneous_array(8)}

        def plan(model, writer):
            _plan(writer, model, plans[model])

        def searches(directory):
            return {e["model"]: e["counters"]["vec_searches"]
                    for e in read_events(directory, types=("search",))}

        with TelemetryWriter(tmp_path / "alone") as writer:
            for model in plans:
                plan(model, writer)
        alone = searches(tmp_path / "alone")
        assert alone["lenet"] != alone["alexnet"]

        # lenet pauses inside its first level search while alexnet plans
        paused, resume = threading.Event(), threading.Event()
        pack = PairCostModel.pack_step_tensors

        def pausing_pack(model, workloads):
            if threading.current_thread() is first and not paused.is_set():
                paused.set()
                assert resume.wait(30)
            return pack(model, workloads)

        monkeypatch.setattr(PairCostModel, "pack_step_tensors", pausing_pack)
        together = TelemetryWriter(tmp_path / "together")
        first = threading.Thread(target=plan, args=("lenet", together))
        first.start()
        try:
            assert paused.wait(30)
            plan("alexnet", together)
        finally:
            resume.set()
            first.join(30)
            together.close()
        assert not first.is_alive()
        assert searches(tmp_path / "together") == alone

    def test_sim_records_op_timings_per_spec(self, tmp_path):
        with TelemetryWriter(tmp_path) as writer:
            evaluate(_plan(), telemetry=writer)
        events = read_events(tmp_path, types=("op_timing",))
        assert events, "sim run must produce op_timing events"
        hardware = {e["hardware"] for e in events}
        # the hetero array has both specs at its leaves
        assert {"tpu-v2", "tpu-v3"} <= hardware
        compute = [e for e in events if e["kind"] != "net"]
        network = [e for e in events if e["kind"] == "net"]
        assert compute, "sim run must time compute ops"
        for event in compute:
            assert event["phase"] in ("forward", "backward", "gradient")
            assert event["kind"] in ("conv", "fc")
            assert event["time_s"] >= 0
            assert event["flops"] >= 0
        # per-level exchanges land as net/comm series with a transfer count
        assert network, "sim run must time level exchanges"
        for event in network:
            assert event["phase"] == "comm"
            assert event["transfers"] >= 1
            assert event["flops"] == 0.0
            assert event["time_s"] >= 0

    def test_calibration_export_schema(self, tmp_path):
        with TelemetryWriter(tmp_path) as writer:
            evaluate(_plan(), telemetry=writer)
        document = calibration_export(tmp_path)
        assert document["schema"] == CALIBRATION_SCHEMA
        assert {"tpu-v2", "tpu-v3"} <= set(document["hardware"])
        for spec, series in document["hardware"].items():
            assert series, spec
            for key, stats in series.items():
                kind, _, phase = key.partition("/")
                assert kind in ("conv", "fc", "net")
                if kind == "net":
                    assert phase == "comm"
                else:
                    assert phase in ("forward", "backward", "gradient")
                assert stats["count"] == len(stats["samples"]) or \
                    stats["count"] > len(stats["samples"])
                assert stats["count"] >= 1
                assert stats["min_s"] <= stats["max_s"]
                for sample in stats["samples"]:
                    assert sample["seconds"] >= 0

    def test_disabled_hot_path_builds_nothing(self, tmp_path, monkeypatch):
        """With telemetry disabled no event dict is ever built: producers
        must gate before allocation, so a poisoned record() never fires —
        for a plan, a simulation, a service hit, miss and error, and a
        thread-fleet item, each handed the disabled writer."""
        from repro.fleet import FleetFrontend, ShardSupervisor
        from repro.obs import request as request_module
        from repro.service import PlanCache, PlanRequest, PlanService

        writer = TelemetryWriter(tmp_path, enabled=False)

        calls = {"record": 0}

        def poisoned(*args):  # pragma: no cover - must not run
            calls["record"] += 1
            raise AssertionError("event built on the disabled path")

        monkeypatch.setattr(TelemetryWriter, "record", poisoned)
        monkeypatch.setattr(request_module, "request_event", poisoned)
        planned = _plan(writer)
        evaluate(planned, telemetry=writer)
        with PlanService(cache=PlanCache(capacity=4),
                         telemetry=writer) as service:
            request = PlanRequest(model="lenet", array=heterogeneous_array(),
                                  batch=32)
            assert service.plan(request).source == "planned"
            assert service.plan(request).source == "memory"
            with pytest.raises(KeyError, match="unknown model"):
                service.plan(PlanRequest(model="no-such-model",
                                         array=heterogeneous_array()))
            assert service.recorder.slo.snapshot()["total"] == 3
        with ShardSupervisor(1, mode="thread") as supervisor:
            with FleetFrontend(supervisor.handles,
                               telemetry=writer) as frontend:
                reply = frontend.handle_doc(
                    {"model": "lenet", "array": "tpu-v3:2", "batch": 32})
                assert reply["ok"], reply
                assert frontend.recorder.slo.snapshot()["total"] == 1
        assert calls["record"] == 0
        assert writer.events_written == 0
        assert segment_paths(tmp_path) == []

    def test_service_records_request_events(self, tmp_path):
        from repro.service import PlanCache, PlanRequest, PlanService

        writer = TelemetryWriter(tmp_path)
        service = PlanService(cache=PlanCache(capacity=4), telemetry=writer,
                              telemetry_labels={"shard": "t0"})
        try:
            request = PlanRequest(model="lenet",
                                  array=heterogeneous_array(), batch=32)
            service.plan(request)
            service.plan(request)  # cache hit
        finally:
            service.close()
        writer.close()
        events = read_events(tmp_path, types=("request",))
        assert len(events) == 2
        for event in events:
            assert event["component"] == "service"
            assert event["model"] == "lenet"
            assert event["outcome"] == "ok"
            assert event["latency_ms"] >= 0
            assert event["shard"] == "t0"
        sources = [e["source"] for e in events]
        assert "memory" in sources[1]

    def test_service_hands_its_writer_to_its_planners(self, tmp_path):
        """The exact job and the deadline fallback both record their
        search into the service's own writer."""
        from repro.service import PlanCache, PlanRequest, PlanService

        with TelemetryWriter(tmp_path) as writer:
            with PlanService(cache=PlanCache(capacity=4),
                             telemetry=writer) as service:
                request = PlanRequest(model="lenet",
                                      array=heterogeneous_array(), batch=32)
                assert service.plan(request, deadline_s=0).degraded
                service.drain()
        searches = read_events(tmp_path, types=("search",))
        assert sorted(e["backend"] for e in searches) == ["dp", "greedy"]
        assert {e["model"] for e in searches} == {"lenet"}

    def test_library_reads_no_environment(self, tmp_path, monkeypatch):
        """``REPRO_TELEMETRY_DIR`` is only a CLI default: a planner, an
        evaluation and a service given no writer record nothing."""
        from repro.service import PlanCache, PlanRequest, PlanService

        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        evaluate(_plan())
        with PlanService(cache=PlanCache(capacity=4)) as service:
            service.plan(PlanRequest(model="lenet",
                                     array=heterogeneous_array(), batch=32))
            assert "telemetry" not in service.snapshot()
        assert segment_paths(tmp_path) == []


class TestSummarize:
    def test_chaos_attribution_by_trace_id(self, tmp_path):
        with TelemetryWriter(tmp_path) as writer:
            writer.record({"type": "chaos", "faults": ["delay"],
                           "trace_id": "t-1"})
            writer.record({"type": "request", "outcome": "ok",
                           "latency_ms": 50.0, "trace_id": "t-1",
                           "shard": "0"})
            writer.record({"type": "request", "outcome": "ok",
                           "latency_ms": 5.0, "trace_id": "t-2",
                           "shard": "1", "deadline_ms": 100.0,
                           "deadline_met": True})
            writer.record({"type": "request", "outcome": "error",
                           "latency_ms": 1.0, "trace_id": "t-3",
                           "failover_from": "0"})
        summary = summarize(tmp_path)
        assert summary["events"] == 4
        assert summary["by_type"] == {"chaos": 1, "request": 3}
        assert summary["chaos_faults"] == {"delay": 1}
        requests = summary["requests"]
        assert requests["outcomes"] == {"error": 1, "ok": 2}
        assert requests["by_shard"] == {"0": 1, "1": 1}
        assert requests["failovers"] == 1
        assert requests["deadline_total"] == 1
        assert requests["deadline_attainment"] == 1.0
        # the chaos-touched request is split out of the organic percentiles
        assert requests["chaos_injected"]["count"] == 1
        assert requests["chaos_injected"]["p50_ms"] == 50.0
        assert requests["organic"]["count"] == 2
        assert requests["organic"]["p50_ms"] in (1.0, 5.0)

    def test_a_faulted_batch_frame_attributes_every_item(self, tmp_path):
        """A fault on a ``plan_batch`` reply frame touches each of its
        items: the chaos event names their trace ids."""
        from repro.fleet.chaos import ChaosController, ChaosSpec
        from repro.fleet.wire import send_frame

        class Sink:
            def sendall(self, data):
                pass

        chaos = ChaosController(ChaosSpec(seed=1, delay=1.0, delay_ms=0))
        reply = {"ok": True, "items": [{"ok": True, "trace_id": "t-1"},
                                       {"ok": True, "trace_id": "t-2"}]}
        with TelemetryWriter(tmp_path) as writer:
            send_frame(Sink(), reply, chaos=chaos, telemetry=writer)
            for trace_id in ("t-1", "t-2", "t-3"):
                writer.record({"type": "request", "outcome": "ok",
                               "latency_ms": 1.0, "trace_id": trace_id})
        requests = summarize(tmp_path)["requests"]
        assert requests["chaos_injected"]["count"] == 2
        assert requests["organic"]["count"] == 1

    def test_empty_store(self, tmp_path):
        summary = summarize(tmp_path)
        assert summary["events"] == 0
        assert summary["requests"]["organic"]["count"] == 0


class TestFleetDurability:
    def test_thread_fleet_writes_durable_segments(self, tmp_path):
        from repro.fleet import FleetClient, FleetFrontend, ShardSupervisor

        store = tmp_path / "telemetry"
        supervisor = ShardSupervisor(
            2, cache_dir=None, mode="thread",
            chaos="seed=42,delay=1.0,delay_ms=1",
            telemetry_dir=str(store),
            slo="latency_ms=100,objective=0.9")
        with supervisor:
            frontend = FleetFrontend(
                supervisor.handles, port=0,
                slo="latency_ms=100,objective=0.9",
                telemetry=TelemetryWriter(store / "frontend"))
            with frontend:
                with FleetClient(frontend.host, frontend.port) as client:
                    reply = client.plan(
                        {"model": "lenet", "array": "tpu-v3:2", "batch": 32},
                        deadline_ms=30000)
                    assert reply.get("ok")
                    stats = client.stats()
            frontend.recorder.telemetry.close()
        slo = stats["frontend"]["slo"]
        assert slo["good_total"] + slo["bad_total"] == 1
        # frontend and the serving shard both wrote durable stores
        frontend_summary = summarize(store / "frontend")
        assert frontend_summary["requests"]["outcomes"].get("ok") == 1
        shard_dirs = [p for p in store.iterdir() if p.name.startswith("shard-")]
        assert len(shard_dirs) == 2
        total_events = sum(summarize(p)["events"] for p in shard_dirs)
        assert total_events >= 1
        # the chaos controller delayed every frame; the fault is on disk
        faults = {}
        for p in shard_dirs:
            for name, count in summarize(p)["chaos_faults"].items():
                faults[name] = faults.get(name, 0) + count
        assert faults.get("delay", 0) >= 1
