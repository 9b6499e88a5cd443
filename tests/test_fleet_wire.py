"""Wire protocol v2: framing, negotiation, size caps, v1 sniffing, and
the frontend's buffered asyncio streams."""

import asyncio
import json
import socket
import threading

import pytest

from repro.fleet import frontend as frontend_module
from repro.fleet.frontend import FleetFrontend
from repro.fleet.shard import ShardSupervisor
from repro.fleet.wire import (
    FrameError,
    FrameTooLarge,
    PROTOCOL_VERSION,
    READ_BUFFER_BYTES,
    decode_body,
    encode_frame,
    hello_doc,
    looks_like_v1,
    negotiate,
    open_connection,
    read_frame,
    recv_frame,
    send_frame,
    start_server,
    write_frame,
)
from repro.service.server import MAX_REQUEST_BYTES


def socket_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestFraming:
    def test_roundtrip(self):
        a, b = socket_pair()
        doc = {"op": "plan", "model": "alexnet", "nested": {"x": [1, 2]}}
        send_frame(a, doc)
        assert recv_frame(b) == doc
        a.close(), b.close()

    def test_multiple_frames_on_one_stream(self):
        a, b = socket_pair()
        for i in range(5):
            send_frame(a, {"i": i})
        got = [recv_frame(b) for _ in range(5)]
        assert [d["i"] for d in got] == list(range(5))
        a.close(), b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket_pair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_mid_frame_eof_is_an_error(self):
        a, b = socket_pair()
        frame = encode_frame({"op": "plan"})
        a.sendall(frame[: len(frame) - 3])  # truncated body
        a.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_binary_safe_payload(self):
        # embedded newlines would break the v1 line protocol; frames don't care
        a, b = socket_pair()
        doc = {"text": "line one\nline two\r\n{\"nested\": true}"}
        send_frame(a, doc)
        assert recv_frame(b) == doc
        a.close(), b.close()

    def test_non_object_payload_rejected(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_body(b"[1, 2, 3]")
        with pytest.raises(FrameError, match="bad frame payload"):
            decode_body(b"{not json")


class TestSizeCap:
    def test_oversized_frame_rejected_before_body_read(self):
        a, b = socket_pair()
        big = encode_frame({"pad": "x" * 5000})
        a.sendall(big)
        with pytest.raises(FrameTooLarge) as info:
            recv_frame(b, max_bytes=1024)
        assert info.value.limit == 1024
        assert info.value.declared > 5000
        a.close(), b.close()

    def test_prefix_bytes_count_toward_the_header(self):
        a, b = socket_pair()
        frame = encode_frame({"op": "ping"})
        a.sendall(frame)
        first = b.recv(1)
        assert not looks_like_v1(first)
        assert recv_frame(b, prefix=first) == {"op": "ping"}
        a.close(), b.close()


class TestNegotiation:
    def test_hello_doc_carries_protocol(self):
        assert hello_doc()["proto"] == PROTOCOL_VERSION

    def test_matching_version_accepted(self):
        reply = negotiate(hello_doc(role="frontend"), role="shard", server="0")
        assert reply["ok"] and reply["proto"] == PROTOCOL_VERSION
        assert reply["role"] == "shard" and reply["server"] == "0"

    def test_future_version_refused_with_downgrade_info(self):
        reply = negotiate({"op": "hello", "proto": 3}, role="shard", server="0")
        assert not reply["ok"]
        assert reply["error"] == "unsupported protocol"
        assert reply["requested"] == 3 and reply["proto"] == PROTOCOL_VERSION

    def test_missing_proto_refused(self):
        assert not negotiate({"op": "hello"}, role="shard", server="0")["ok"]


class TestV1Sniff:
    def test_v1_first_bytes(self):
        # raw JSON text (and leading whitespace) marks a v1 line client
        for byte in (b"{", b" ", b"\t", b"\n", b"\r"):
            assert looks_like_v1(byte)

    def test_v2_length_prefix_never_looks_like_v1(self):
        # a v2 frame under the caps starts 0x00 0x0?…: the first byte of a
        # <16 MiB length prefix is 0x00, never 0x7B ('{')
        frame = encode_frame({"op": "plan", "model": "alexnet"})
        assert frame[0:1] == b"\x00"
        assert not looks_like_v1(frame[0:1])


class TestAsyncCodec:
    """The asyncio twin must fail the same way on the same byte streams."""

    @staticmethod
    def _read(*chunks, eof=True, **kwargs):
        async def run():
            reader = asyncio.StreamReader()
            for chunk in chunks:
                reader.feed_data(chunk)
            if eof:
                reader.feed_eof()
            return await read_frame(reader, **kwargs)

        return asyncio.run(run())

    def test_roundtrip(self):
        doc = {"op": "plan", "model": "alexnet", "nested": {"x": [1, 2]}}
        assert self._read(encode_frame(doc)) == doc

    def test_clean_eof_returns_none(self):
        assert self._read() is None

    def test_truncated_header_is_an_error(self):
        with pytest.raises(FrameError, match="mid-frame"):
            self._read(b"\x00\x00")

    def test_disconnect_mid_body_is_an_error(self):
        frame = encode_frame({"op": "plan", "model": "alexnet"})
        with pytest.raises(FrameError, match="mid-frame"):
            self._read(frame[: len(frame) - 3])

    def test_oversized_frame_rejected_before_body_read(self):
        big = encode_frame({"pad": "x" * 5000})
        # only the header is fed: the cap must trip without the body
        with pytest.raises(FrameTooLarge) as info:
            self._read(big[:4], eof=False, max_bytes=1024)
        assert info.value.limit == 1024 and info.value.declared > 5000

    def test_prefix_bytes_count_toward_the_header(self):
        frame = encode_frame({"op": "ping"})
        assert self._read(frame[1:], prefix=frame[:1]) == {"op": "ping"}

    def test_prefix_then_eof_mid_header_is_an_error(self):
        with pytest.raises(FrameError, match="mid-frame"):
            self._read(prefix=b"\x00")


class TestGarbageBeforeHello:
    """A connection that opens with garbage must get a clean refusal."""

    @pytest.fixture
    def shard(self):
        from repro.fleet.shard import ShardServer

        server = ShardServer("g")
        server.start_background()
        yield server
        server.stop()

    def _open(self, shard):
        sock = socket.create_connection((shard.host, shard.port),
                                        timeout=5.0)
        sock.settimeout(5.0)
        return sock

    def test_huge_bogus_length_prefix_refused(self, shard):
        # 0xFF... as a length prefix declares a ~4 GiB frame
        with self._open(shard) as sock:
            sock.sendall(b"\xff\xff\xff\xff" + b"junk")
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["error"] == "request too large"
            assert recv_frame(sock) is None  # then the stream closes

    def test_http_request_line_refused(self, shard):
        # 'G' (0x47) as the first length byte also declares >1 GiB:
        # a stray HTTP client cannot wedge a shard
        with self._open(shard) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["error"] == "request too large"

    def test_valid_length_prefix_with_garbage_body_gets_a_reply(self, shard):
        with self._open(shard) as sock:
            sock.sendall(b"\x00\x00\x00\x09not json!")
            # the whole frame was read, so the stream is still at a frame
            # boundary: the shard refuses the body and reads on
            reply = recv_frame(sock)
            assert reply["ok"] is False
            assert reply["error"].startswith("bad frame payload")
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"]

    def test_server_survives_garbage_and_keeps_serving(self, shard):
        with self._open(shard) as sock:
            sock.sendall(b"\xde\xad\xbe\xef")
            recv_frame(sock)
        with self._open(shard) as sock:
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"]


def test_request_reply_pingpong_across_threads():
    """A server thread answering frame-for-frame stays in lockstep."""
    a, b = socket_pair()

    def server():
        while True:
            doc = recv_frame(b)
            if doc is None:
                return
            send_frame(b, {"echo": doc["i"]})

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    for i in range(50):
        send_frame(a, {"i": i})
        assert recv_frame(a) == {"echo": i}
    a.close()
    thread.join(5.0)
    b.close()


class TestBufferedStreams:
    """``open_connection``/``start_server`` read each socket into one
    reused buffer; frames cross a real loopback socket unchanged."""

    @staticmethod
    def _exchange(send, receive):
        """Run ``send(reader, writer)`` on an ``open_connection`` client
        against a ``start_server`` whose handler runs ``receive(reader,
        writer)``; return what ``receive`` returned, or raise what it
        raised."""

        async def run():
            done = asyncio.get_running_loop().create_future()

            async def handler(reader, writer):
                try:
                    done.set_result(await receive(reader, writer))
                except Exception as exc:
                    done.set_exception(exc)
                finally:
                    writer.close()

            server = await start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await open_connection(host, port)
            try:
                await send(reader, writer)
                return await asyncio.wait_for(done, 10.0)
            finally:
                writer.close()
                server.close()
                await server.wait_closed()

        return asyncio.run(run())

    def test_a_frame_16x_the_buffer_arrives_whole_both_ways(self):
        doc = {"pad": "x" * (16 * READ_BUFFER_BYTES)}
        echoed = {}

        async def send(reader, writer):
            await write_frame(writer, doc)
            echoed["doc"] = await read_frame(reader)

        async def receive(reader, writer):
            got = await read_frame(reader, max_bytes=32 * READ_BUFFER_BYTES)
            await write_frame(writer, got)
            return got

        assert self._exchange(send, receive) == doc
        assert echoed["doc"] == doc

    def test_three_frames_in_one_write_read_as_three(self):
        frames = [{"i": i, "pad": "y" * (i * 1000)} for i in range(3)]

        async def send(reader, writer):
            writer.write(b"".join(encode_frame(doc) for doc in frames))
            await writer.drain()
            writer.write_eof()

        async def receive(reader, writer):
            got = []
            while (doc := await read_frame(reader)) is not None:
                got.append(doc)
            return got

        assert self._exchange(send, receive) == frames

    def test_eof_mid_frame_is_an_error(self):
        frame = encode_frame({"op": "plan", "pad": "z" * 5000})

        async def send(reader, writer):
            writer.write(frame[:len(frame) - 3])
            await writer.drain()
            writer.write_eof()

        async def receive(reader, writer):
            return await read_frame(reader)

        with pytest.raises(FrameError, match="mid-frame"):
            self._exchange(send, receive)


class TestFrontendStreams:
    """Every socket of a live frontend reads through the reused buffer."""

    @pytest.fixture
    def frontend(self, tmp_path, monkeypatch):
        """A 2-shard thread fleet; records the protocol under each client
        connection and each shard link as the frontend opens it."""
        protocols = {"client": [], "link": []}
        handle_connection = FleetFrontend._handle_connection
        link_init = frontend_module._ShardLink.__init__

        async def spy_connection(self, reader, writer):
            protocols["client"].append(writer.transport.get_protocol())
            await handle_connection(self, reader, writer)

        def spy_link(self, reader, writer):
            protocols["link"].append(writer.transport.get_protocol())
            link_init(self, reader, writer)

        monkeypatch.setattr(FleetFrontend, "_handle_connection",
                            spy_connection)
        monkeypatch.setattr(frontend_module._ShardLink, "__init__", spy_link)
        with ShardSupervisor(2, cache_dir=tmp_path) as sup:
            with FleetFrontend(sup.handles) as frontend:
                yield frontend, protocols

    @staticmethod
    def _lines(port, lines):
        with socket.create_connection(("127.0.0.1", port), 30.0) as sock:
            sock.settimeout(30.0)
            stream = sock.makefile("rwb")
            replies = []
            for line in lines:
                stream.write(line + b"\n")
                stream.flush()
                replies.append(json.loads(stream.readline()))
            return replies

    def test_client_connections_and_shard_links_are_buffered(self, frontend):
        frontend, protocols = frontend
        ping, stats = self._lines(frontend.port, [
            json.dumps({"op": "ping"}).encode(),
            json.dumps({"op": "stats"}).encode()])
        assert ping["ok"] and stats["ok"]
        assert protocols["client"] and protocols["link"]
        for protocol in protocols["client"] + protocols["link"]:
            assert isinstance(protocol, asyncio.BufferedProtocol), protocol

    def test_v1_line_and_over_limit_lines_get_their_replies(self, frontend):
        frontend, _ = frontend
        plan = json.dumps({"model": "lenet", "array": "tpu-v2:2,tpu-v3:2",
                           "batch": 32, "id": "v1"}).encode()
        # over the request cap, then past the stream's own limit too
        over = json.dumps({"model": "x" * (MAX_REQUEST_BYTES + 1)}).encode()
        huge = json.dumps({"model": "x" * (2 * MAX_REQUEST_BYTES)}).encode()
        first, refused, dropped, served = self._lines(
            frontend.port, [plan, over, huge, plan])
        assert first["ok"] and first["id"] == "v1" and "shard" in first
        assert refused["error"] == dropped["error"] == "request too large"
        assert refused["got_bytes"] == len(over)
        assert dropped["got_bytes"] >= len(huge)
        assert served["ok"] and served["fingerprint"] == first["fingerprint"]
