"""One serving path: every JSON-lines ingress shares one decoder and loop.

Single-process ``repro serve``, a fleet's stdin loop and a fleet's TCP
port must answer the same malformed lines the same way, one reply per
line; ``repro serve`` and every shard answer from one op table.
"""

import io
import json
import os
import socket
import struct
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.fleet import (FleetClient, FleetFrontend, ShardServer,
                         ShardSupervisor)
from repro.fleet.wire import recv_frame, send_frame
from repro.hardware.presets import MAX_BOARDS
from repro.obs.request import REQUEST_EVENT_KEYS
from repro.obs.telemetry import read_events, segment_paths, summarize
from repro.service import PlanCache, PlanService
from repro.service.server import (
    KNOWN_OPS,
    MAX_REQUEST_BYTES,
    STATS_SNAPSHOT_JSON_NAME,
    STATS_SNAPSHOT_NAME,
    decode_line,
    handle_doc,
    handle_line,
    load_stats_snapshot,
    serve_loop,
)

SRC = str(Path(repro.__file__).resolve().parents[1])

PLAN = json.dumps({"model": "lenet", "array": "tpu-v2:2,tpu-v3:2",
                   "batch": 32})

#: two-byte characters: under the cap counted in characters, over it in
#: UTF-8 bytes
OVERSIZED = json.dumps({"model": "é" * (MAX_REQUEST_BYTES // 2 + 8)},
                       ensure_ascii=False)

#: a valid plan, then every kind of line the decoder refuses
TRANSCRIPT = [PLAN, "", "   \t ", "not json", "[]", OVERSIZED]

#: a plan twice, then a plan request each server refuses: an unknown model
#: (refused when fingerprinted) and an unknown backend (when decoded)
RECORDED = [PLAN, PLAN,
            json.dumps({"model": "no-such-model", "array": "tpu-v3:2"}),
            json.dumps({"model": "lenet", "array": "tpu-v3:2",
                        "backend": "quantum"})]

#: two models planned, then both again from memory
SEARCHED = [json.dumps({"model": model, "array": "tpu-v2:2,tpu-v3:2",
                        "batch": 32}) for model in ("lenet", "alexnet")] * 2

#: plan requests whose own scheme or knob is bad, in name or in type: each
#: is refused when the request is built, before a fingerprint, the cache or
#: a planner worker, and the refusal names the field
BAD_KNOBS = [json.dumps({"model": "lenet", "array": "tpu-v2:1,tpu-v3:1",
                         **knob})
             for knob in ({"scheme": "bogus"}, {"ratio_mode": "bogus"},
                          {"scheme": "dp", "space": ["I"]},
                          {"space": "III"}, {"levels": "x"}, {"levels": -1},
                          {"levels": True}, {"model": 5}, {"scheme": 5},
                          {"backend": 5}, {"ratio_mode": 5},
                          {"batch": 1.7}, {"batch": True}, {"batch": "64"},
                          {"batch": 0}, {"dtype_bytes": 2.5},
                          {"dtype_bytes": True}, {"array": 5},
                          {"space": ["IV"]}, {"space": [5]},
                          {"space": [["I"]]}, {"deadline_ms": "x"},
                          {"deadline_ms": float("inf")},
                          {"deadline_ms": float("nan")},
                          {"deadline_ms": True}, {"deadline_ms": -5})]
BAD_KNOB_ERRORS = [
    "unknown scheme 'bogus'; expected one of: dp, owt, hypar, accpar, greedy",
    "unknown ratio_mode 'bogus'; expected one of: balanced, proportional, "
    "equal, comm-volume",
    "scheme 'dp' does not accept space/ratio_mode knobs",
    "space must be a list of partition types, not 'III'",
    "levels must be null or an integer >= 0, not 'x'",
    "levels must be null or an integer >= 0, not -1",
    "levels must be null or an integer >= 0, not True",
    "model must be a string, not 5",
    "scheme must be a string, not 5",
    "backend must be a string, not 5",
    "ratio_mode must be a string, not 5",
    "batch must be a positive integer, not 1.7",
    "batch must be a positive integer, not True",
    "batch must be a positive integer, not '64'",
    "batch must be a positive integer, not 0",
    "dtype_bytes must be a positive integer, not 2.5",
    "dtype_bytes must be a positive integer, not True",
    "array must be an accelerator array, not 5",
    "space holds 'IV', not one of: I, II, III",
    "space holds 5, not one of: I, II, III",
    "space holds ['I'], not one of: I, II, III",
    "deadline_ms must be null or a finite number >= 0, not 'x'",
    "deadline_ms must be null or a finite number >= 0, not inf",
    "deadline_ms must be null or a finite number >= 0, not nan",
    "deadline_ms must be null or a finite number >= 0, not True",
    "deadline_ms must be null or a finite number >= 0, not -5",
]
STATS = json.dumps({"op": "stats"})


def profiled(tpu_v2):
    """A lenet request whose inline profile gives ``tpu-v2`` ``tpu_v2``."""
    specs = {"tpu-v2": {"compute_rates": {"default": 45e12}, **tpu_v2},
             "tpu-v3": {"compute_rates": {"default": 123e12}}}
    return json.dumps({"model": "lenet", "array": "tpu-v2:1,tpu-v3:1",
                       "profile": {"schema": "repro.hardware.profile/v1",
                                   "kind": "calibrated", "name": "bad",
                                   "specs": specs}})


#: inline profiles with one infinite or NaN value, and the field each
#: refusal names
NON_FINITE_PROFILES = [
    (profiled({"transfer_latency_s": float("inf")}), "transfer_latency_s"),
    (profiled({"transfer_latency_s": float("nan")}), "transfer_latency_s"),
    (profiled({"compute_rates": {"default": float("inf")}}), "compute rate"),
    (profiled({"memory_bandwidth_scale": float("nan")}),
     "memory_bandwidth_scale"),
    (profiled({"bandwidth_efficiency": [[float("inf"), 0.5]]}),
     "bandwidth efficiency"),
]


def outcome(reply):
    return reply["ok"], reply.get("error")


def run_cli_serve(argv, lines, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "".join(line + "\n" for line in lines)))
    code = main(["serve", *argv])
    out, err = capsys.readouterr()
    return code, [json.loads(line) for line in out.splitlines()], err


def store_types(root):
    """``{store: {event type: count}}`` for ``root`` and its subdirectories."""
    return {str(path.relative_to(root)): summarize(path)["by_type"]
            for path in (root, *root.iterdir()) if segment_paths(path)}


def tcp_lines(port, lines):
    """Send raw JSON lines to a fleet port; one reply line per line."""
    with socket.create_connection(("127.0.0.1", port), 30.0) as sock:
        sock.settimeout(30.0)
        sock.sendall("".join(line + "\n" for line in lines).encode())
        stream = sock.makefile("r", encoding="utf-8")
        return [json.loads(stream.readline()) for _ in lines]


@pytest.fixture
def fleet(tmp_path):
    with ShardSupervisor(2, cache_dir=tmp_path / "fleet") as sup:
        with FleetFrontend(sup.handles) as frontend:
            yield sup, frontend


class TestDecodeLine:
    def test_refusals(self):
        assert decode_line("")[1]["error"] == "empty request line"
        assert decode_line(" \t\r\n")[1]["error"] == "empty request line"
        assert decode_line("nope")[1]["error"].startswith("bad JSON")
        assert decode_line("[]")[1]["error"] == \
            "request must be a JSON object"
        # bytes that are not UTF-8 are bad JSON, not a crash
        assert decode_line(b"{\xff}")[1]["error"].startswith("bad JSON")

    def test_document(self):
        doc, error = decode_line(b'  {"op": "ping"}\r\n')
        assert doc == {"op": "ping"} and error is None

    def test_cap_counts_utf8_bytes(self):
        assert len(OVERSIZED) <= MAX_REQUEST_BYTES
        size = len(OVERSIZED.encode("utf-8"))
        assert size > MAX_REQUEST_BYTES
        for line in (OVERSIZED, OVERSIZED.encode("utf-8")):
            doc, error = decode_line(line)
            assert doc is None
            assert error == {"ok": False, "error": "request too large",
                             "limit_bytes": MAX_REQUEST_BYTES,
                             "got_bytes": size}


class TestIngressParity:
    def test_three_ingresses_answer_alike(self, tmp_path, fleet,
                                          monkeypatch, capsys):
        code, single, _ = run_cli_serve(
            ["--cache-dir", str(tmp_path / "single")], TRANSCRIPT,
            monkeypatch, capsys)
        assert code == 0
        _, frontend = fleet
        over_tcp = tcp_lines(frontend.port, TRANSCRIPT)
        out = io.StringIO()
        assert serve_loop(frontend.handle_doc, TRANSCRIPT, out) == \
            len(TRANSCRIPT)
        fleet_stdin = [json.loads(line)
                       for line in out.getvalue().splitlines()]

        for replies in (single, fleet_stdin, over_tcp):
            assert len(replies) == len(TRANSCRIPT)
            assert replies[0]["ok"], replies[0]
        assert "shard" not in single[0]
        assert "shard" in fleet_stdin[0] and "shard" in over_tcp[0]
        expected = [outcome(reply) for reply in single[1:]]
        assert [outcome(r) for r in fleet_stdin[1:]] == expected
        assert [outcome(r) for r in over_tcp[1:]] == expected
        assert [error for _, error in expected] == [
            "empty request line", "empty request line",
            "bad JSON: Expecting value: line 1 column 1 (char 0)",
            "request must be a JSON object", "request too large"]

    def test_oversized_array_is_refused_and_serving_goes_on(
            self, tmp_path, fleet, monkeypatch, capsys):
        lines = [json.dumps({"model": "lenet", "array": "tpu-v2:1000000"}),
                 PLAN]
        _, single, _ = run_cli_serve(
            ["--cache-dir", str(tmp_path / "single")], lines,
            monkeypatch, capsys)
        _, frontend = fleet
        over_tcp = tcp_lines(frontend.port, lines)
        for refused, served in (single, over_tcp):
            assert not refused["ok"]
            assert str(MAX_BOARDS) in refused["error"]
            assert served["ok"], served

    def test_tcp_line_past_the_stream_buffer_keeps_the_stream(self, fleet):
        _, frontend = fleet
        huge = json.dumps({"model": "x" * (2 * MAX_REQUEST_BYTES)})
        replies = tcp_lines(frontend.port,
                            [huge, json.dumps({"op": "ping"})])
        assert replies[0]["error"] == "request too large"
        assert replies[0]["got_bytes"] > MAX_REQUEST_BYTES
        assert replies[1]["ok"] and replies[1]["server"] == "frontend"

    def test_tcp_blank_first_line_is_answered(self, fleet):
        _, frontend = fleet
        replies = tcp_lines(frontend.port, ["", json.dumps({"op": "ping"})])
        assert outcome(replies[0]) == (False, "empty request line")
        assert replies[1]["ok"]


#: 200,000 bytes, under the cap, nested past the JSON parser's recursion
#: limit
NESTED = "[" * 100_000 + "]" * 100_000


class TestNestedJson:
    """A line or frame nested deeper than the parser recurses is bad JSON:
    it gets one refusal, and the server answers the next request."""

    PING = json.dumps({"op": "ping"})

    def test_serve_stdin(self, tmp_path, monkeypatch, capsys):
        code, replies, _ = run_cli_serve(
            ["--cache-dir", str(tmp_path)], [NESTED, self.PING],
            monkeypatch, capsys)
        assert code == 0
        assert replies[0]["ok"] is False
        assert replies[0]["error"].startswith("bad JSON")
        assert replies[1] == {"ok": True}

    def test_fleet_tcp_line(self, fleet):
        _, frontend = fleet
        # a JSON-lines connection is sniffed off its first byte, "{"
        replies = tcp_lines(frontend.port, [self.PING, NESTED, self.PING])
        assert replies[1]["error"].startswith("bad JSON")
        assert replies[2]["ok"]

    @pytest.mark.parametrize("port_of", ["frontend", "shard"])
    def test_frame(self, fleet, port_of):
        sup, frontend = fleet
        port = frontend.port if port_of == "frontend" else sup.handles[0].port
        body = NESTED.encode()
        with socket.create_connection(("127.0.0.1", port), 30.0) as sock:
            sock.settimeout(30.0)
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["error"].startswith("bad frame payload")
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"]


class TestRequestRecords:
    """Every plan request is recorded once, alike on every server."""

    def test_serve_records_refused_requests(self, tmp_path, monkeypatch,
                                            capsys):
        store, cache = tmp_path / "tel", tmp_path / "cache"
        code, replies, _ = run_cli_serve(
            ["--cache-dir", str(cache), "--telemetry-dir", str(store)],
            RECORDED, monkeypatch, capsys)
        assert code == 0
        assert [reply["ok"] for reply in replies] == [True, True, False,
                                                       False]
        events = read_events(store, types=("request",))
        assert [e["outcome"] for e in events] == ["ok", "ok", "error",
                                                  "error"]
        assert load_stats_snapshot(cache)["slo"]["bad_total"] == 2

    def test_single_process_and_fleet_record_alike(self, tmp_path,
                                                   monkeypatch, capsys):
        single, fleet = tmp_path / "tel1", tmp_path / "tel2"
        run_cli_serve(["--cache-dir", "", "--telemetry-dir", str(single)],
                      RECORDED, monkeypatch, capsys)
        run_cli_serve(["--shards", "2", "--cache-dir", "",
                       "--telemetry-dir", str(fleet)],
                      RECORDED, monkeypatch, capsys)
        stores = {"single": single, **{p.name: p for p in fleet.iterdir()}}
        assert sorted(stores) == ["frontend", "shard-0", "shard-1", "single"]
        events = {name: read_events(path, types=("request",))
                  for name, path in stores.items()}
        keys = set(REQUEST_EVENT_KEYS) | {"ts"}
        for name, found in events.items():
            for event in found:
                assert set(event) == keys, (name, event)
        for name in ("single", "frontend"):
            assert sorted(e["outcome"] for e in events[name]) == [
                "error", "error", "ok", "ok"]
        shard_events = events["shard-0"] + events["shard-1"]
        assert len(shard_events) == 2
        served = [e for found in events.values() for e in found
                  if e["outcome"] == "ok"]
        assert {(e["component"], e["scheme"]) for e in served} == {
            ("service", "accpar"), ("frontend", "accpar")}
        frontend = {e["trace_id"]: e for e in events["frontend"]}
        for event in shard_events:
            assert frontend[event["trace_id"]]["outcome"] == \
                event["outcome"]

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_every_shard_records_the_searches_it_runs(
            self, mode, tmp_path, monkeypatch, capsys):
        store = tmp_path / "tel"
        code, replies, _ = run_cli_serve(
            ["--shards", "2", "--shard-mode", mode, "--cache-dir", "",
             "--telemetry-dir", str(store)],
            SEARCHED, monkeypatch, capsys)
        assert code == 0
        assert [r["source"] for r in replies] == ["planned"] * 2 + \
            ["memory"] * 2
        planned = {"0": [], "1": []}
        for reply in replies[:2]:
            planned[reply["shard"]].append(reply["model"])
        for shard, models in planned.items():
            searches = read_events(store / f"shard-{shard}",
                                   types=("search",))
            assert sorted(e["model"] for e in searches) == sorted(models)
        assert read_events(store / "frontend", types=("search",)) == []

    @pytest.mark.parametrize("fleet", [[], ["--shards", "2"]])
    def test_env_var_writes_the_stores_the_flag_does(
            self, fleet, tmp_path, monkeypatch, capsys):
        flag, env = tmp_path / "flag", tmp_path / "env"
        run_cli_serve([*fleet, "--cache-dir", "",
                       "--telemetry-dir", str(flag)],
                      SEARCHED, monkeypatch, capsys)
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(env))
        run_cli_serve([*fleet, "--cache-dir", ""], SEARCHED, monkeypatch,
                      capsys)
        stores = store_types(flag)
        assert sum(types.get("search", 0) for types in stores.values()) == 2
        assert store_types(env) == stores


class TestBadSchemeKnobs:
    """A bad scheme name or knob is refused before any server counts it."""

    def test_serve_refuses_before_the_service(self, tmp_path, monkeypatch,
                                              capsys):
        store = tmp_path / "tel"
        code, replies, _ = run_cli_serve(
            ["--cache-dir", str(tmp_path / "cache"),
             "--telemetry-dir", str(store)],
            BAD_KNOBS + [STATS], monkeypatch, capsys)
        assert code == 0
        *refused, stats = replies
        assert [outcome(r) for r in refused] == \
            [(False, error) for error in BAD_KNOB_ERRORS]
        counters = stats["stats"]["metrics"]["counters"]
        for name in ("requests", "misses", "planner_runs", "errors"):
            assert counters.get(name, 0) == 0, name
        events = read_events(store, types=("request",))
        assert [e["outcome"] for e in events] == ["error"] * len(BAD_KNOBS)

    def test_fleet_refuses_before_routing(self, tmp_path, monkeypatch,
                                          capsys):
        store = tmp_path / "tel"
        code, replies, _ = run_cli_serve(
            ["--shards", "2", "--cache-dir", "",
             "--telemetry-dir", str(store)],
            BAD_KNOBS + [STATS], monkeypatch, capsys)
        assert code == 0
        *refused, stats = replies
        assert [outcome(r) for r in refused] == \
            [(False, error) for error in BAD_KNOB_ERRORS]
        assert not any("shard" in reply for reply in refused)
        assert sorted(stats["shards"]) == ["0", "1"]
        for name, shard in stats["shards"].items():
            assert shard["metrics"]["counters"] == {}, name
        events = read_events(store / "frontend", types=("request",))
        assert [e["outcome"] for e in events] == ["error"] * len(BAD_KNOBS)
        for shard in ("shard-0", "shard-1"):
            assert read_events(store / shard, types=("request",)) == []


class TestNonFiniteProfiles:
    """An inline profile with an infinite or NaN value is refused naming
    the field, and nothing is planned or cached for it."""

    @pytest.mark.parametrize("fleet", [[], ["--shards", "2"]])
    def test_refused_and_never_cached(self, fleet, monkeypatch, capsys):
        code, replies, _ = run_cli_serve(
            [*fleet, "--cache-dir", ""],
            [line for line, _ in NON_FINITE_PROFILES] + [STATS],
            monkeypatch, capsys)
        assert code == 0
        *refused, stats = replies
        for reply, (_, field) in zip(refused, NON_FINITE_PROFILES):
            assert reply["ok"] is False, reply
            assert field in reply["error"] and "finite" in reply["error"]
        caches = ([shard["cache"] for shard in stats["shards"].values()]
                  if fleet else [stats["stats"]["cache"]])
        assert [cache["puts"] for cache in caches] == [0] * len(caches)


class TestEndOfInput:
    def test_eof_drains_and_snapshots_without_an_ack(self, tmp_path):
        out = io.StringIO()
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as svc:
            assert serve_loop(partial(handle_doc, svc), [PLAN], out) == 1
        assert len(out.getvalue().splitlines()) == 1
        assert (tmp_path / STATS_SNAPSHOT_NAME).exists()
        assert (tmp_path / STATS_SNAPSHOT_JSON_NAME).exists()

    def test_fleet_shutdown_writes_every_shard_snapshot(
            self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache"
        code, replies, _ = run_cli_serve(
            ["--shards", "2", "--cache-dir", str(cache)], [PLAN],
            monkeypatch, capsys)
        assert code == 0 and replies[0]["ok"]
        for shard in ("shard-0", "shard-1"):
            assert (cache / shard / STATS_SNAPSHOT_NAME).exists()
            assert (cache / shard / STATS_SNAPSHOT_JSON_NAME).exists()
        assert main(["service-stats", "--cache-dir",
                     str(cache / "shard-0")]) == 0
        assert "last session:" in capsys.readouterr().out


def answered(reply):
    return not str(reply.get("error", "")).startswith("unknown op")


def by_known_ops(ask):
    """Ask for an unknown op, then send every op its reply names."""
    known = ask({"op": "explode"})["known_ops"]
    ops = sorted(known, key=lambda op: op == "shutdown")  # shutdown last
    return known, {op: ask({"op": op}) for op in ops}


class TestKnownOps:
    def test_stdin(self):
        with PlanService() as svc:
            handle = partial(handle_doc, svc)
            known = handle_line(handle, '{"op": "explode"}')["known_ops"]
            assert known == list(KNOWN_OPS)
            lines = [json.dumps({"op": op}) for op in
                     sorted(known, key=lambda op: op == "shutdown")]
            out = io.StringIO()
            assert serve_loop(handle, lines, out) == len(lines)
        for line in out.getvalue().splitlines():
            assert answered(json.loads(line)), line

    def test_shard(self, tmp_path):
        shard = ShardServer("0", cache_dir=tmp_path)
        shard.start_background()
        try:
            with socket.create_connection((shard.host, shard.port), 30) as s:
                s.settimeout(30.0)

                def ask(doc):
                    send_frame(s, doc)
                    return recv_frame(s)

                known, replies = by_known_ops(ask)
        finally:
            shard.stop()
        assert "cache_put" in known
        for op, reply in replies.items():
            assert answered(reply), (op, reply)
            assert reply["shard"] == "0"
        assert (tmp_path / STATS_SNAPSHOT_JSON_NAME).exists()

    def test_frontend(self, fleet):
        _, frontend = fleet
        with FleetClient(port=frontend.port) as client:
            known, replies = by_known_ops(client.request)
        assert "cache_put" not in known
        assert {"plan_batch", "warm"} <= set(known)
        for op, reply in replies.items():
            assert answered(reply), (op, reply)


class TestServeCommand:
    @pytest.mark.parametrize("flag", [
        ["--port", "0"], ["--host", "0.0.0.0"], ["--shard-mode", "process"],
        ["--restart"], ["--chaos", "seed=1"], ["--heartbeat-interval", "0.5"],
        ["--failure-threshold", "2"], ["--retry", "attempts=1"],
    ])
    def test_fleet_only_flag_needs_shards(self, flag, capsys):
        assert main(["serve", "--cache-dir", "", *flag]) == 2
        assert flag[0] in capsys.readouterr().err

    def test_every_flag_is_named(self, capsys):
        assert main(["serve", "--port", "7071", "--chaos", "seed=1",
                     "--trace"]) == 2
        err = capsys.readouterr().err
        assert "--port" in err and "--chaos" in err

    def test_trace_without_shards(self, monkeypatch, capsys):
        code, replies, _ = run_cli_serve(
            ["--cache-dir", "", "--trace"],
            [PLAN, json.dumps({"op": "trace"})], monkeypatch, capsys)
        assert code == 0 and replies[0]["ok"]
        names = {span["name"] for span in replies[1]["spans"]}
        assert "service.request" in names

    def test_single_process_imports_no_fleet(self):
        script = (
            "import io, sys\n"
            "sys.stdin = io.StringIO('{\"op\": \"ping\"}\\n')\n"
            "from repro.cli import main\n"
            "assert main(['serve', '--cache-dir', '']) == 0\n"
            "print(sorted(m for m in ('asyncio', 'repro.fleet')"
            " if m in sys.modules))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert result.stdout.splitlines()[-1] == "[]"

    def test_request_from_doc_does_not_import_the_cli(self):
        script = (
            "import sys\n"
            "from repro.service.server import request_from_doc\n"
            "request = request_from_doc("
            "{'model': 'lenet', 'array': 'tpu-v3:2'})\n"
            "assert request.array.size == 2\n"
            "print('repro.cli' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert result.stdout.strip() == "False"
