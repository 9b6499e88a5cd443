"""The fleet frontend: one asyncio process that routes for all shards.

Request path for one client request (a ``plan`` op is a batch of one)::

    for each item: quick shed? ─▶ parse + fingerprint ─▶ admission ─▶
        owning shard (consistent hash)
    one unit per owning shard ─▶ EDF queue ─▶ dispatcher ─▶
        one plan_batch frame to the shard ─▶ per-item replies, in order

* **Batched plan API** — ``{"op": "plan_batch", "items": [...]}`` admits
  every item in one pass on the event loop, with no task per item.  The
  admitted items that one shard owns form a *unit*, and each unit crosses
  to its shard as one ``plan_batch`` frame (split only past the shard's
  request limit), so a 16-item batch over two shards costs two request
  frames and two replies.  Items keep their own status, and the batch
  response lists them in order.  Units never mix client requests: one
  client's cold item must not hold up another client's hits.
* **Deadline-aware queueing** — units wait in an earliest-deadline-first
  priority queue (a unit's priority is its earliest item deadline)
  drained by a fixed set of dispatcher tasks (one per shard link, so the
  queue only holds what the shards cannot absorb).  Items are checked
  against their deadline twice: at admission (:mod:`repro.fleet.admission`
  — the fast shed) and again at dequeue (late shed, item by item), so a
  queue stampede cannot make the fleet burn planner time on requests
  that already expired.  Admission's queue depth counts queued items,
  not units.
* **Degradation under pressure** — past the admission controller's
  degrade threshold an item is forwarded with a zero deadline: the owning
  shard answers from cache if it can, otherwise with its fallback backend
  (``degraded=True``), and the exact plan still lands in the shard's cache
  in the background.
* **Warm replication** — ``{"op": "warm", ...}`` plans each item on its
  owning shard *with the serialized plan in the response*, then pushes
  ``cache_put`` frames to every peer shard, so one ``repro warm --port``
  run leaves the whole fleet hot (a shard join re-routes ~1/N of the
  keyspace; replicated entries mean those keys stay warm).
* **Cross-shard observability** — the frontend stamps every item with a
  trace id that the owning shard adopts (``PlanService.plan(...,
  trace_id=...)``), aggregates per-shard stats under shard-labelled
  Prometheus series, and merges shard span dumps with its own into one
  Chrome trace (``{"op": "trace"}``).
* **Fault tolerance** — a heartbeat loop pings every shard on a dedicated
  connection and feeds :class:`~repro.fleet.health.HealthMonitor`: after
  K consecutive failures a shard leaves the consistent-hash ring (its
  keys reroute to survivors) and rejoins on the first success.  Shard
  links retry transient transport errors with the shared
  :class:`~repro.fleet.retry.RetryPolicy` (exponential backoff + jitter,
  never past the unit's deadline), and when a unit's owner stays
  unreachable each of its items fails over along its own ring successor
  order — plans are deterministic, so a failover replan is bit-identical
  to the owner's answer.  See docs/serving.md ("Fault tolerance").

The frontend runs its event loop in a dedicated thread so the blocking
CLI (and tests) can drive it.  JSON-lines clients reach it two ways, both
through the one request decoder (:func:`repro.service.server.decode_line`):
on stdin, where ``serve_loop`` hands each decoded line to
:meth:`FleetFrontend.handle_doc`, and over TCP (first-byte sniff, see
:mod:`repro.fleet.wire`).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.logging import get_logger
from ..obs.registry import MetricsRegistry
from ..obs.request import RequestRecord, RequestRecorder
from ..obs.tracing import Tracer, new_trace_id
from ..service.server import (
    batch_items,
    batch_reply,
    decode_line,
    doc_record,
    is_shutdown_ack,
    not_an_object,
    request_from_doc,
    too_large,
)
from .admission import ADMIT, DEGRADE, AdmissionController, Decision
from .health import HealthMonitor
from .retry import (
    DEFAULT_RETRY,
    TRANSIENT_EXCEPTIONS,
    RetryPolicy,
    classify,
)
from .ring import HashRing
from .wire import (
    BadPayload,
    FRAME_HEADER_BYTES,
    FrameError,
    FrameTooLarge,
    MAX_REQUEST_FRAME_BYTES,
    MAX_RESPONSE_FRAME_BYTES,
    encode_frame,
    looks_like_v1,
    negotiate,
    open_connection,
    read_frame,
    start_server,
    write_frame,
)

log = get_logger("repro.fleet.frontend")

#: ops the frontend answers, on v2 frames and JSON lines alike
FRONTEND_OPS = ("hello", "ping", "plan", "plan_batch", "warm", "stats",
                "fleet_stats", "trace", "shutdown")

#: every fixed-name counter the frontend increments; enumerated for docs
#: and tests (the per-reason ``retries_<reason>`` / ``failover_<reason>``
#: counters appear dynamically, suffixed by :func:`repro.fleet.retry.classify`).
#: ``routed`` and the ``failover_*`` counters count items; ``shard_frames``
#: (plan frames sent to shards), ``route_errors``, ``retries_total`` and
#: ``dispatch_timeouts`` count frames
FLEET_COUNTER_NAMES = (
    "items",
    "batches",
    "admitted",
    "degraded_pressure",
    "shed_deadline",
    "shed_queue_full",
    "shed_late",
    "routed",
    "shard_frames",
    "route_errors",
    "warm_items",
    "replicated_puts",
    "v1_lines",
    "retries_total",
    "failover_total",
    "dispatch_timeouts",
    "heartbeats",
    "heartbeat_failures",
    "shard_marked_down",
    "shard_marked_up",
    "slow_requests",
)

#: extra headroom past a unit's latest item deadline before its frame is
#: abandoned: the owning shard enforces each deadline itself (fallback
#: plans), so the frontend only cuts genuinely wedged shards loose
DISPATCH_GRACE_S = 0.25


class ShardUnavailable(RuntimeError):
    """The owning shard could not be reached (even after a reconnect)."""


class _ShardLink:
    """One persistent v2 connection to a shard."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def request(self, frame: bytes) -> Dict:
        """Send one encoded frame; return the shard's reply."""
        self.writer.write(frame)
        await self.writer.drain()
        reply = await read_frame(self.reader, MAX_RESPONSE_FRAME_BYTES)
        if reply is None:
            raise FrameError("shard closed the connection")
        return reply

    def close(self) -> None:
        try:
            self.writer.close()
        except RuntimeError:  # loop already closing
            pass


class _ShardPool:
    """A small checkout pool of links to one shard, retrying per policy.

    Transport failures (reset, refused dial, frame desync, stalled read)
    tear the link down and retry on a *fresh* connection with the shared
    backoff policy — never past the caller's ``deadline_abs``.  Anything
    still failing after the policy's budget surfaces as
    :class:`ShardUnavailable`, which is the dispatcher's cue to fail the
    item over to the next shard on the ring.
    """

    def __init__(self, name: str, host: str, port: int, size: int = 2,
                 retry: RetryPolicy = DEFAULT_RETRY,
                 metrics: Optional[MetricsRegistry] = None):
        self.name = name
        self.host = host
        self.port = port
        self.size = size
        self.retry = retry
        self.metrics = metrics
        self._slots: "asyncio.Queue[Optional[_ShardLink]]" = asyncio.Queue()
        for _ in range(size):
            self._slots.put_nowait(None)  # links are dialed lazily

    async def _connect(self) -> _ShardLink:
        reader, writer = await open_connection(self.host, self.port)
        link = _ShardLink(reader, writer)
        hello = await link.request(encode_frame(
            {"op": "hello", "proto": 2, "role": "frontend"}))
        if not hello.get("ok"):
            link.close()
            raise ShardUnavailable(
                f"shard {self.name}: handshake refused: {hello.get('error')}")
        return link

    def _count_retry(self, exc: Optional[BaseException]) -> None:
        if self.metrics is None:
            return
        self.metrics.counter("retries_total").inc()
        if exc is not None:
            self.metrics.counter(f"retries_{classify(exc)}").inc()

    async def request(self, doc: Dict) -> Dict:
        return await self.send(encode_frame(doc))

    async def send(self, frame: bytes, *,
                   deadline_abs: Optional[float] = None) -> Dict:
        """Send one encoded frame and return the reply, retrying per
        policy; a retry re-sends the same bytes."""
        policy = self.retry
        loop = asyncio.get_running_loop()
        slot = await self._slots.get()
        link: Optional[_ShardLink] = slot
        last_exc: Optional[BaseException] = None
        try:
            for attempt in range(policy.max_attempts):
                if attempt:
                    delay = policy.delay(attempt)
                    if deadline_abs is not None and \
                            loop.time() + delay > deadline_abs:
                        break  # a retry would overrun the deadline
                    self._count_retry(last_exc)
                    await asyncio.sleep(delay)
                try:
                    if link is None:
                        link = await self._connect()
                    return await link.request(frame)
                except TRANSIENT_EXCEPTIONS as exc:
                    if link is not None:
                        link.close()
                        link = None
                    last_exc = exc
            raise ShardUnavailable(
                f"shard {self.name}: {last_exc}") from last_exc
        except asyncio.CancelledError:
            # cancelled mid-conversation: the link may be desynchronized,
            # so never return it to the pool
            if link is not None:
                link.close()
                link = None
            raise
        finally:
            self._slots.put_nowait(link)

    async def close(self) -> None:
        for _ in range(self.size):
            try:
                link = self._slots.get_nowait()
            except asyncio.QueueEmpty:
                break
            if link is not None:
                link.close()


class _WorkItem:
    """One admitted plan item: what the shard gets, and what it answered."""

    __slots__ = ("doc", "owner", "deadline_abs", "fingerprint", "record",
                 "start_ns", "action", "tried", "reply", "end_ns")

    def __init__(self, doc: Dict, owner: str, deadline_abs: Optional[float],
                 fingerprint: str, record: RequestRecord, start_ns: int,
                 action: str):
        self.doc = doc
        #: the shard the ring routed the item to
        self.owner = owner
        self.deadline_abs = deadline_abs
        self.fingerprint = fingerprint
        self.record = record
        self.start_ns = start_ns
        self.action = action
        #: shards a frame carrying the item was sent to, in order
        self.tried: List[str] = []
        self.reply: Optional[Dict] = None
        #: when a shard answered the item, 0 until then
        self.end_ns = 0


class _Unit:
    """The admitted items of one client request that one shard owns: one
    queue entry, sent as one ``plan_batch`` frame."""

    __slots__ = ("shard", "items", "future")

    def __init__(self, shard: str, items: List[_WorkItem],
                 future: "asyncio.Future[int]"):
        self.shard = shard
        self.items = items
        #: resolved, to its ``perf_counter_ns``, once every item has its
        #: reply
        self.future = future


class FleetFrontend:
    """Asyncio fan-out frontend over a set of running shards."""

    def __init__(
        self,
        shards: Sequence,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        admission: Optional[AdmissionController] = None,
        links_per_shard: int = 2,
        ring: Optional[HashRing] = None,
        name: str = "frontend",
        retry: Optional[RetryPolicy] = None,
        heartbeat_interval_s: float = 1.0,
        heartbeat_timeout_s: float = 1.0,
        failure_threshold: int = 3,
        slo=None,
        telemetry=None,
    ):
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        self.name = name
        self._shard_addrs = [(str(s.name), s.host, s.port) for s in shards]
        self.ring = ring or HashRing([addr[0] for addr in self._shard_addrs])
        self.metrics = metrics or MetricsRegistry()
        self.admission = admission or AdmissionController()
        #: the frontend's own spans (``fleet.item``); its shards keep theirs
        self.tracer = Tracer()
        #: SLO, telemetry, ``item_latency_s`` and the slow-request log
        self.recorder = RequestRecorder(
            "frontend", self.metrics, "item_latency_s", log,
            tracer=self.tracer, slo=slo, telemetry=telemetry)
        self.links_per_shard = links_per_shard
        self.retry = retry or DEFAULT_RETRY
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.health = HealthMonitor(
            [addr[0] for addr in self._shard_addrs],
            ring=self.ring,
            metrics=self.metrics,
            failure_threshold=failure_threshold,
            on_down=lambda shard, reason: log.warning(
                "shard marked down", extra={
                    "event": "shard_down", "shard": shard, "reason": reason}),
            on_up=lambda shard: log.info(
                "shard recovered, rejoined the ring",
                extra={"event": "shard_up", "shard": shard}),
        )
        self._host = host
        self._requested_port = port
        self.host: Optional[str] = None
        self.port: Optional[int] = None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stopping = False
        self._seq = itertools.count()
        #: items in the queued units: the depth admission decides on
        self._queued_items = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetFrontend":
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="fleet-frontend", daemon=True)
        self._thread.start()
        self._started.wait(60.0)
        if self._startup_error is not None:
            raise RuntimeError("frontend failed to start") \
                from self._startup_error
        if self.port is None:
            raise RuntimeError("frontend did not come up within 60 s")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "FleetFrontend":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            self._startup_error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._queue: "asyncio.PriorityQueue[Tuple[float, int, _Unit]]" = (
            asyncio.PriorityQueue())
        self._pools = {
            name: _ShardPool(name, host, port, self.links_per_shard,
                             retry=self.retry, metrics=self.metrics)
            for name, host, port in self._shard_addrs
        }
        server = await start_server(
            self._handle_connection, self._host, self._requested_port,
            limit=MAX_REQUEST_FRAME_BYTES + 1024)
        self.host, self.port = server.sockets[0].getsockname()[:2]
        dispatchers = [
            asyncio.ensure_future(self._dispatcher())
            for _ in range(max(2, self.links_per_shard * len(self._pools)))
        ]
        if self.heartbeat_interval_s > 0:
            dispatchers.append(asyncio.ensure_future(self._heartbeat_loop()))
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in dispatchers:
                task.cancel()
            await asyncio.gather(*dispatchers, return_exceptions=True)
            for pool in self._pools.values():
                await pool.close()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.read(1)
            if not first:
                return
            if looks_like_v1(first):
                await self._serve_v1_connection(first, reader, writer)
            else:
                await self._serve_v2_connection(first, reader, writer)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            return  # loop teardown cancels idle connection handlers
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _serve_v2_connection(self, prefix: bytes,
                                   reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                doc = await read_frame(reader, MAX_REQUEST_FRAME_BYTES,
                                       prefix=prefix)
            except FrameTooLarge as exc:
                await write_frame(writer, too_large(exc.declared))
                return  # stream desynchronized past a refused frame
            except BadPayload as exc:  # still at a frame boundary
                prefix = b""
                await write_frame(writer, {"ok": False, "error": str(exc)})
                continue
            except FrameError:
                return
            prefix = b""
            if doc is None:
                return
            reply = await self._handle_op(doc)
            await write_frame(writer, reply)
            if is_shutdown_ack(reply):
                self._stop_event.set()
                return

    async def _serve_v1_connection(self, first: bytes,
                                   reader: asyncio.StreamReader,
                                   writer: asyncio.StreamWriter) -> None:
        """JSON lines over TCP: decoded as on stdin, one reply per line."""
        prefix = first
        while True:
            line = await _read_line(reader, prefix)
            prefix = b""
            if line == b"":
                return  # EOF
            if isinstance(line, int):  # the size of a dropped line
                doc, reply = None, too_large(line)
            else:
                doc, reply = decode_line(line)
            if doc is not None:
                self.metrics.counter("v1_lines").inc()
                reply = await self._handle_op(doc)
            writer.write((json.dumps(reply) + "\n").encode())
            await writer.drain()
            if is_shutdown_ack(reply):
                self._stop_event.set()
                return

    def handle_doc(self, doc: Dict) -> Dict:
        """Answer one request document from outside the event loop.

        The stdin entry of ``repro serve --shards N``: ``serve_loop`` runs
        on the caller's thread and hands each decoded line here.
        """
        if self._loop is None:
            raise RuntimeError("frontend not started")
        return asyncio.run_coroutine_threadsafe(
            self._handle_op(doc), self._loop).result()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _handle_op(self, doc: Dict) -> Dict:
        op = doc.get("op", "plan")
        request_id = doc.get("id")
        try:
            if op == "hello":
                reply = negotiate(doc, role="frontend", server=self.name)
            elif op == "ping":
                reply = {"ok": True, "server": self.name,
                         "shards": [n for n, _, _ in self._shard_addrs]}
            elif op == "plan":
                (reply,) = await self._serve_items([doc])
            elif op == "plan_batch":
                reply = await self._serve_batch(doc)
            elif op == "warm":
                reply = await self._serve_warm(doc)
            elif op in ("stats", "fleet_stats"):
                reply = await self._fleet_stats()
            elif op == "trace":
                reply = await self._fleet_trace()
            elif op == "shutdown":
                reply = await self._shutdown_shards()
            else:
                reply = {"ok": False, "error": f"unknown op {op!r}",
                         "known_ops": list(FRONTEND_OPS)}
        except Exception as exc:  # a bad request must not kill the frontend
            reply = {"ok": False, "error": str(exc)}
        if request_id is not None:
            reply.setdefault("id", request_id)
        return reply

    # -- plan items ----------------------------------------------------
    def _parse_item(self, doc: Dict) -> str:
        """Validate a plan document and return its fingerprint.

        Runs on the event loop: with the array digest and the model's
        entry (:func:`repro.core.stages.model_stages`) kept per process, a
        repeat request costs less here than a hop to a worker thread
        would.  A model or array the process has not seen blocks the loop
        once, while it is built, hashed and (the model) decomposed: up to
        ~13 ms for resnet152, ~1 ms for a 4,096-board array
        (docs/serving.md).
        """
        return request_from_doc(doc).fingerprint()

    def _shed_doc(self, decision: Decision, start_ns: int,
                  fingerprint: Optional[str] = None) -> Dict:
        latency_ms = (time.perf_counter_ns() - start_ns) / 1e6
        doc = {
            "ok": False,
            "error": "shed",
            "reason": decision.reason,
            "est_cost_ms": round(decision.est_cost_s * 1e3, 3),
            "latency_ms": round(latency_ms, 3),
        }
        if fingerprint:
            doc["fingerprint"] = fingerprint
        return doc

    def _account_item(self, record: RequestRecord, reply: Dict,
                      start_ns: int, action: str,
                      end_ns: Optional[int] = None) -> Dict:
        """Complete an item's record from its reply and record it: every
        item's exit (shed, invalid, dispatched) comes here."""
        end_ns = end_ns or time.perf_counter_ns()
        record.latency_s = (end_ns - start_ns) / 1e9
        record.action = action
        record.shard = reply.get("shard")
        record.source = reply.get("source")
        record.degraded = bool(reply.get("degraded"))
        record.coalesced = bool(reply.get("coalesced"))
        record.failover_from = reply.get("failover_from")
        record.reason = reply.get("reason")
        if not reply.get("ok"):
            record.error = str(reply.get("error"))
        self.recorder.observe(record)
        return reply

    async def _serve_items(self, docs: List[Optional[Dict]]) -> List[Dict]:
        """One client request's plan items: admitted in one pass, sent as
        one unit per owning shard, answered in order.  ``None`` stands for
        an item that is not a JSON object.

        Every item is admitted against the depth queued before the request
        arrived: its own items are not a queue (``MAX_BATCH_ITEMS`` bounds
        them)."""
        depth = self._queued_items
        slots: List[Union[Dict, _WorkItem]] = []
        owned: Dict[Tuple[str, bool], List[_WorkItem]] = {}
        for doc in docs:
            slot = not_an_object() if doc is None \
                else self._admit(doc, depth)
            if isinstance(slot, _WorkItem):
                # an item without a deadline would lift its frame's
                # timeout, so it never shares a frame with one that has
                key = (slot.owner, slot.deadline_abs is None)
                owned.setdefault(key, []).append(slot)
            slots.append(slot)
        units = [self._enqueue(owner, items)
                 for (owner, _), items in owned.items()]
        for unit in units:
            done_ns = await unit.future
            for item in unit.items:
                self._settle(item, item.end_ns or done_ns)
        return [slot.reply if isinstance(slot, _WorkItem) else slot
                for slot in slots]

    def _admit(self, doc: Dict, depth: int) -> Union[Dict, _WorkItem]:
        """An item up to its enqueue: quick shed, parse, admission, trace
        id, forwarded document, ring owner.  Returns the admitted item, or
        the reply of one that was shed or refused (already recorded)."""
        start_ns = time.perf_counter_ns()
        self.metrics.counter("items").inc()
        record = doc_record(doc)
        deadline_s = record.deadline_s

        # fast path: a deadline below any possible service time is shed
        # before the frontend spends a single model build on it
        quick = self.admission.quick_shed(deadline_s)
        if quick is not None:
            self.metrics.counter("shed_deadline").inc()
            return self._account_item(
                record, self._shed_doc(quick, start_ns), start_ns,
                "quick_shed")

        try:
            fingerprint = self._parse_item(doc)
        except Exception as exc:
            return self._account_item(
                record, {"ok": False, "error": str(exc)}, start_ns,
                "invalid")
        record.fingerprint = fingerprint

        decision = self.admission.decide(fingerprint, deadline_s, depth)
        if not decision.admitted:
            self.metrics.counter(
                "shed_queue_full" if "queue" in decision.reason
                else "shed_deadline").inc()
            return self._account_item(
                record, self._shed_doc(decision, start_ns, fingerprint),
                start_ns, decision.action)
        self.metrics.counter("admitted").inc()

        record.trace_id = record.trace_id or new_trace_id()
        forwarded = {k: v for k, v in doc.items() if k not in ("op", "id")}
        forwarded["op"] = "plan"
        forwarded["trace_id"] = record.trace_id
        if decision.action == DEGRADE:
            self.metrics.counter("degraded_pressure").inc()
            forwarded["deadline_ms"] = 0  # cache-now-or-fallback on the shard
        deadline_abs = (self._loop.time() + deadline_s
                        if deadline_s is not None else None)
        return _WorkItem(forwarded, self.ring.owner(fingerprint),
                         deadline_abs, fingerprint, record, start_ns,
                         decision.action)

    def _enqueue(self, owner: str, items: List[_WorkItem]) -> _Unit:
        unit = _Unit(owner, items, self._loop.create_future())
        deadlines = [item.deadline_abs for item in items
                     if item.deadline_abs is not None]
        priority = min(deadlines) if deadlines else float("inf")
        self._queued_items += len(items)
        self._queue.put_nowait((priority, next(self._seq), unit))
        return unit

    def _settle(self, item: _WorkItem, end_ns: int) -> None:
        """An item after its reply: the ``fleet.item`` span and its
        record, timed to when a shard answered it, else to when its unit
        was done."""
        item.reply.setdefault("shard", item.owner)
        self.tracer.record(
            "fleet.item", "fleet",
            start_ns=item.start_ns, end_ns=end_ns,
            trace_id=item.record.trace_id, shard=item.owner,
            model=item.doc.get("model"), action=item.action,
        )
        self._account_item(item.record, item.reply, item.start_ns,
                           item.action, end_ns)

    async def _dispatcher(self) -> None:
        """Drain the EDF queue: each unit to its shard, with failover."""
        while True:
            _, _, unit = await self._queue.get()
            self._queued_items -= len(unit.items)
            if unit.future.cancelled():
                continue
            now = self._loop.time()
            live = []
            for item in unit.items:
                if item.deadline_abs is not None and now > item.deadline_abs:
                    self.metrics.counter("shed_late").inc()
                    item.reply = {
                        "ok": False, "error": "shed",
                        "reason": "deadline expired while queued",
                        "fingerprint": item.fingerprint,
                    }
                else:
                    live.append(item)
            try:
                if live and self.health.is_up(unit.shard):
                    await self._send(unit.shard, live)
                elif live:
                    await self._fail_over(live, "shard_down",
                                          f"shard {unit.shard} is down")
            except Exception as exc:  # never strand the waiting request
                log.exception("dispatch failed", extra={
                    "event": "dispatch_error", "shard": unit.shard})
                for item in live:
                    if item.reply is None:
                        item.reply = {"ok": False, "error": str(exc),
                                      "fingerprint": item.fingerprint}
            if not unit.future.cancelled():
                unit.future.set_result(time.perf_counter_ns())

    def _failover_order(self, item: _WorkItem) -> List[str]:
        """Shards to try for one item: ring order, healthy ones first.

        The routed owner leads; the ring's clockwise successors follow, so
        failover lands on the shard that *would* own the fingerprint if
        the owner left — the same shard a post-failure ring would route
        to, which keeps failover traffic cache-friendly.  Known-down
        shards sink to the back rather than vanish: when every shard is
        down the item still gets one loud attempt instead of a silent
        drop.  Only consulted once the owner is down or has failed.
        """
        order = [item.owner] + [s for s in self.ring.successors(
            item.fingerprint) if s != item.owner]
        for name in self._pools:
            if name not in order:  # off-ring (marked down) shards, last
                order.append(name)
        healthy = [s for s in order if self.health.is_up(s)]
        down = [s for s in order if s not in healthy]
        return (healthy + down) if healthy else order

    async def _fail_over(self, items: List[_WorkItem], reason: str,
                         error: str) -> None:
        """Send each item to the next untried shard of its own failover
        order, regrouped by that shard: ``reason`` is ``shard_down`` when
        the owner is known down before dialing, ``transport`` when a frame
        to a shard failed."""
        groups: Dict[str, List[_WorkItem]] = {}
        for item in items:
            order = self._failover_order(item)
            shard = next((s for s in order if s not in item.tried), None)
            if shard is None or (item.deadline_abs is not None
                                 and item.deadline_abs <= self._loop.time()):
                item.reply = {
                    "ok": False,
                    "error": f"no healthy shard available: {error}",
                    "tried": order,
                    "fingerprint": item.fingerprint,
                }
                continue
            # a first try on the owner itself (every shard down) is no move
            if item.tried or shard != item.owner:
                self.metrics.counter("failover_total").inc()
                self.metrics.counter(f"failover_{reason}").inc()
            groups.setdefault(shard, []).append(item)
        await asyncio.gather(*[self._send(shard, group)
                               for shard, group in groups.items()])

    async def _send(self, shard: str, items: List[_WorkItem]) -> None:
        """Items to one shard as one ``plan_batch`` frame, halved until
        each frame fits the shard's request limit; set every item's reply.

        The frame may take as long as its latest item's deadline allows,
        plus :data:`DISPATCH_GRACE_S`; a frame of items without deadlines,
        as long as it takes (a unit never mixes the two).
        """
        frame = encode_frame(
            {"op": "plan_batch", "items": [item.doc for item in items]})
        body_bytes = len(frame) - FRAME_HEADER_BYTES
        if body_bytes > MAX_REQUEST_FRAME_BYTES:
            if len(items) == 1:
                (item,) = items
                item.reply = dict(too_large(body_bytes),
                                  fingerprint=item.fingerprint)
                return
            half = len(items) // 2
            await self._send(shard, items[:half])
            await self._send(shard, items[half:])
            return
        deadline_abs = timeout = None
        if all(item.deadline_abs is not None for item in items):
            deadline_abs = max(item.deadline_abs for item in items)
            timeout = (max(deadline_abs - self._loop.time(), 0.0)
                       + DISPATCH_GRACE_S)
        for item in items:
            item.tried.append(shard)
        self.metrics.counter("shard_frames").inc()
        sent_ns = time.perf_counter_ns()
        try:
            request = self._pools[shard].send(frame, deadline_abs=deadline_abs)
            reply = await (asyncio.wait_for(request, timeout)
                           if timeout is not None else request)
        except asyncio.TimeoutError:
            # the shard took the frame but never answered within the
            # deadline (frozen/stalled): the deadline is spent, so shed
            # rather than burn another shard on expired items
            self.metrics.counter("dispatch_timeouts").inc()
            self.health.record_failure(shard, "timeout")
            for item in items:
                item.reply = {
                    "ok": False, "error": "shed",
                    "reason": f"deadline expired during dispatch "
                              f"(shard {shard} unresponsive)",
                    "shard": shard, "fingerprint": item.fingerprint,
                }
            return
        except Exception as exc:
            self.metrics.counter("route_errors").inc()
            self.health.record_failure(shard, "request")
            await self._fail_over(items, "transport", str(exc))
            return
        # the frame's hop: its round trip less the shard's time on it
        hop_ns = time.perf_counter_ns() - sent_ns \
            - reply.get("latency_ms", 0) * 1e6
        self.metrics.counter("routed").inc(len(items))
        self.health.record_success(shard)
        replies = reply.get("items")
        if not isinstance(replies, list) or len(replies) != len(items):
            # a shard that could not read the frame says why, once
            replies = [{"ok": False, "error": reply.get("error")
                        or "shard reply carries no item replies"}
                       for _ in items]
        for item, item_reply in zip(items, replies):
            # what the item cost alone: the hop plus its own service
            # time, not its frame's slowest item's
            item_ns = hop_ns + item_reply.get("latency_ms", 0) * 1e6
            item.end_ns = sent_ns + int(item_ns)
            if item_reply.get("ok"):
                self.admission.observe(
                    item.fingerprint, item_ns / 1e9,
                    cache_hit=bool(item_reply.get("cache_hit")))
            item_reply.setdefault("shard", shard)
            if len(item.tried) > 1:
                item_reply.setdefault("failover_from", item.owner)
            item.reply = item_reply

    # -- heartbeats ----------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        """Ping every shard each interval; feed the health monitor."""
        while True:
            await asyncio.sleep(self.heartbeat_interval_s)
            await asyncio.gather(
                *[self._heartbeat_one(name, host, port)
                  for name, host, port in self._shard_addrs],
                return_exceptions=True)

    async def _heartbeat_one(self, name: str, host: str, port: int) -> None:
        """One ping on a dedicated connection (never a pooled link, so a
        pool saturated with long cold plans cannot fake a dead shard)."""
        self.metrics.counter("heartbeats").inc()

        async def ping() -> bool:
            reader, writer = await open_connection(host, port)
            try:
                await write_frame(writer, {"op": "ping"})
                reply = await read_frame(reader, MAX_RESPONSE_FRAME_BYTES)
                return bool(reply and reply.get("ok"))
            finally:
                try:
                    writer.close()
                except RuntimeError:
                    pass

        try:
            ok = await asyncio.wait_for(ping(), self.heartbeat_timeout_s)
        except Exception:
            ok = False
        if ok:
            self.health.record_success(name)
        else:
            self.metrics.counter("heartbeat_failures").inc()
            self.health.record_failure(name, "heartbeat")

    async def _serve_batch(self, doc: Dict) -> Dict:
        start_ns = time.perf_counter_ns()
        self.metrics.counter("batches").inc()
        items, error = batch_items(doc)
        if error is not None:
            return error
        replies = await self._serve_items(items)
        latency_s = (time.perf_counter_ns() - start_ns) / 1e9
        self.metrics.histogram("batch_latency_s").observe(latency_s)
        return batch_reply(replies, latency_s)

    # -- warm replication ----------------------------------------------
    async def _serve_warm(self, doc: Dict) -> Dict:
        items = doc.get("items")
        if not isinstance(items, list) or not items:
            return {"ok": False, "error": "warm needs a non-empty 'items' "
                                          "list"}
        results = await asyncio.gather(
            *[self._warm_item(item) for item in items])
        return {"ok": all(r.get("ok") for r in results),
                "items": list(results), "count": len(results)}

    async def _warm_item(self, doc: Dict) -> Dict:
        """Plan on the owner, then replicate the entry to every peer."""
        if not isinstance(doc, dict):
            return {"ok": False, "error": "warm items must be JSON objects"}
        self.metrics.counter("warm_items").inc()
        try:
            fingerprint = self._parse_item(doc)
        except Exception as exc:
            return {"ok": False, "error": str(exc)}
        owner = self.ring.owner(fingerprint)
        forwarded = {k: v for k, v in doc.items() if k not in ("op", "id")}
        forwarded.update(op="plan", include_plan=True,
                         trace_id=new_trace_id())
        try:
            reply = await self._pools[owner].request(forwarded)
        except Exception as exc:
            return {"ok": False, "shard": owner, "fingerprint": fingerprint,
                    "error": str(exc)}
        if not reply.get("ok"):
            reply.setdefault("shard", owner)
            return reply
        self.admission.note_warm(fingerprint)
        plan_doc = reply.get("plan")
        replicated = 0
        if plan_doc is not None:
            peers = [name for name in self._pools if name != owner]
            acks = await asyncio.gather(*[
                self._pools[peer].request({
                    "op": "cache_put", "fingerprint": fingerprint,
                    "plan": plan_doc})
                for peer in peers
            ], return_exceptions=True)
            replicated = sum(1 for ack in acks
                             if isinstance(ack, dict) and ack.get("ok"))
            self.metrics.counter("replicated_puts").inc(replicated)
        return {"ok": True, "fingerprint": fingerprint, "shard": owner,
                "source": reply.get("source"),
                "cache_hit": reply.get("cache_hit"),
                "replicated": replicated}

    # -- aggregation ---------------------------------------------------
    async def _shard_stats(self) -> Dict[str, Optional[Dict]]:
        async def one(name: str):
            try:
                reply = await self._pools[name].request({"op": "stats"})
                return name, reply.get("stats")
            except Exception:
                return name, None

        pairs = await asyncio.gather(*[one(name) for name in self._pools])
        return dict(pairs)

    def snapshot(self) -> Dict:
        """The frontend's own stats (metrics, admission, queue, ring, health)."""
        return {
            "metrics": self.metrics.snapshot(),
            "admission": self.admission.snapshot(),
            "queue_depth": self._queued_items,
            "ring": self.ring.describe(),
            "health": self.health.snapshot(),
            **self.recorder.snapshot(),
        }

    async def _fleet_stats(self) -> Dict:
        return {
            "ok": True,
            "frontend": self.snapshot(),
            "shards": await self._shard_stats(),
        }

    async def _fleet_trace(self) -> Dict:
        """Merge frontend spans with every shard's into one span-dict list."""
        local = [dict(span.as_dict(), process="frontend")
                 for span in self.tracer.drain()]

        async def one(name: str) -> List[Dict]:
            try:
                reply = await self._pools[name].request({"op": "trace"})
                return list(reply.get("spans") or [])
            except Exception:
                return []

        remote = await asyncio.gather(*[one(name) for name in self._pools])
        spans = local + [span for chunk in remote for span in chunk]
        return {"ok": True, "spans": spans, "count": len(spans)}

    async def _shutdown_shards(self) -> Dict:
        """Drain-and-stop every shard by protocol, then ack."""
        drained: Dict[str, object] = {}
        for name in self._pools:
            try:
                ack = await self._pools[name].request({"op": "shutdown"})
                drained[name] = ack.get("drained_jobs")
            except Exception as exc:
                drained[name] = f"error: {exc}"
        return {"ok": True, "op": "shutdown", "shards": drained}

    # ------------------------------------------------------------------
    # convenience for the CLI
    # ------------------------------------------------------------------
    def wait(self) -> None:
        """Block until the frontend stops (shutdown op or :meth:`stop`)."""
        if self._thread is not None:
            self._thread.join()


async def _read_line(reader: asyncio.StreamReader,
                     prefix: bytes = b"") -> Union[bytes, int]:
    """The next line after ``prefix``, newline included (b"" at EOF).

    A line longer than the stream buffer is read past and dropped, so the
    stream stays in step; its size in bytes comes back instead.
    """
    if prefix.endswith(b"\n"):
        return prefix
    try:
        return prefix + await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:  # EOF, maybe mid-line
        return prefix + exc.partial
    except asyncio.LimitOverrunError:
        pass
    size = len(prefix)
    while True:
        try:
            return size + len(await reader.readuntil(b"\n"))
        except asyncio.LimitOverrunError as exc:
            size += len(await reader.readexactly(exc.consumed))
        except asyncio.IncompleteReadError as exc:
            return size + len(exc.partial)
