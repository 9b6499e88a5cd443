"""The plan service's JSON-lines protocol (``python -m repro serve``).

One request per line on stdin, one JSON reply per line on stdout — the
simplest protocol that scripts, ``xargs`` and load generators can all drive.
A request looks like::

    {"model": "alexnet", "array": "hetero", "batch": 512, "deadline_ms": 50}

Optional fields: ``scheme`` (default ``accpar``), ``levels``, ``dtype_bytes``,
``space`` (partition-type values, e.g. ``["I", "II"]``), ``ratio_mode``,
``backend`` (search backend name, e.g. ``"greedy"``), ``profile``, ``id``
(echoed back).  Control operations use ``op``; see :data:`KNOWN_OPS`.
``{"op": "plan_batch", "items": [...]}`` answers many plan documents in one
reply, each item as the ``plan`` op would answer it alone.

Every JSON-lines ingress, stdin or TCP, single process or fleet, decodes
with :func:`decode_line` and gets exactly one reply per line, so a bad line
gets an ``{"ok": false, "error": ...}`` reply and serving goes on.
:func:`handle_doc` is the one op table over a :class:`PlanService`, for
``repro serve`` and every fleet shard; :func:`serve_loop` runs over it or
over the fleet frontend's, and treats EOF as a shutdown without the ack.
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, TextIO, Tuple,
                    Union)

from ..core.serialize import plan_from_dict, plan_to_dict
from ..hardware.presets import parse_array
from ..ioutil import atomic_write_text
from ..obs.request import RequestRecord
from .fingerprint import PlanRequest
from .service import PlanResponse, PlanService

#: the largest request in UTF-8 bytes, on every ingress: a JSON line or a
#: wire-v2 request frame (:mod:`repro.fleet.wire` reuses it).  Checked
#: before parsing, so a client cannot make a server parse unbounded input.
MAX_REQUEST_BYTES = 1 << 20

#: the most items one ``plan_batch`` request carries, on a service or a
#: fleet frontend
MAX_BATCH_ITEMS = 1024

#: the longest ``deadline_ms`` a plan waits for, in ms: the longest wait a
#: thread can make (a longer deadline raises from ``Future.result``)
_MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1e3

#: the ops :func:`handle_doc` answers; an unknown op's reply lists them
KNOWN_OPS = ("ping", "plan", "plan_batch", "cache_put", "stats", "trace",
             "shutdown")

#: one request document in, one reply out (:func:`handle_doc` on a service)
Handler = Callable[[Dict], Dict]

#: name of the stats snapshot dropped next to the disk cache tier; carries a
#: leading underscore and a .txt suffix so the ``*.json`` entry glob skips it
STATS_SNAPSHOT_NAME = "_last_session_stats.txt"

#: machine-readable twin of the text snapshot (leading underscore keeps it
#: out of the ``*.json`` plan-entry glob); ``repro service-stats --format
#: json/prometheus`` renders from this file offline
STATS_SNAPSHOT_JSON_NAME = "_last_session_stats.meta"


def too_large(got_bytes: int) -> Dict:
    """The reply to a request over :data:`MAX_REQUEST_BYTES`."""
    return {"ok": False, "error": "request too large",
            "limit_bytes": MAX_REQUEST_BYTES, "got_bytes": got_bytes}


def batch_items(doc: Dict) -> Tuple[Optional[List[Optional[Dict]]],
                                    Optional[Dict]]:
    """A ``plan_batch`` document's items as ``(items, None)`` or
    ``(None, error reply)``.

    ``items`` must be a non-empty list of at most :data:`MAX_BATCH_ITEMS`
    entries.  An object entry comes back as a copy that inherits the
    batch's ``deadline_ms`` unless it sets its own; any other entry comes
    back as ``None``, which its server refuses alone
    (:func:`not_an_object`).
    """
    items = doc.get("items")
    if not isinstance(items, list) or not items:
        return None, {"ok": False,
                      "error": "plan_batch needs a non-empty 'items' list"}
    if len(items) > MAX_BATCH_ITEMS:
        return None, {"ok": False, "error": "batch too large",
                      "limit_items": MAX_BATCH_ITEMS, "got_items": len(items)}
    deadline_ms = doc.get("deadline_ms")
    copies: List[Optional[Dict]] = []
    for item in items:
        if not isinstance(item, dict):
            copies.append(None)
            continue
        item = dict(item)
        if deadline_ms is not None:
            item.setdefault("deadline_ms", deadline_ms)
        copies.append(item)
    return copies, None


def not_an_object() -> Dict:
    """The reply to a ``plan_batch`` item that is not a JSON object."""
    return {"ok": False, "error": "batch items must be JSON objects"}


def batch_reply(replies: List[Dict], latency_s: float) -> Dict:
    """A ``plan_batch`` reply: the items' replies in order, and a tally."""
    return {
        "ok": True,
        "items": replies,
        "count": len(replies),
        "succeeded": sum(1 for reply in replies if reply.get("ok")),
        "latency_ms": round(latency_s * 1e3, 3),
    }


def decode_line(line: Union[str, bytes]) -> Tuple[Optional[Dict],
                                                  Optional[Dict]]:
    """One request line as ``(document, None)`` or ``(None, error reply)``.

    The cap counts the line's UTF-8 bytes without surrounding whitespace,
    so a line of multi-byte characters cannot slip under it.
    """
    data = line.encode("utf-8", "surrogatepass") \
        if isinstance(line, str) else line
    data = data.strip()
    if len(data) > MAX_REQUEST_BYTES:
        return None, too_large(len(data))
    if not data:
        return None, {"ok": False, "error": "empty request line"}
    try:
        doc = json.loads(data.decode("utf-8"))
    # bad JSON or UTF-8, or nested deeper than the parser recurses
    except (ValueError, RecursionError) as exc:
        return None, {"ok": False, "error": f"bad JSON: {exc}"}
    if not isinstance(doc, dict):
        return None, {"ok": False, "error": "request must be a JSON object"}
    return doc, None


def request_from_doc(doc: Dict) -> PlanRequest:
    """Build a canonical :class:`PlanRequest` from a JSON request document.

    Only ``op == "plan"`` documents (the default) describe a plan request;
    any other ``op`` is rejected here so a control operation (or a typo'd
    one) can never be silently misread as a planning job by callers that
    skip :func:`handle_doc` — the fleet frontend routes documents through
    this function directly.
    """
    op = doc.get("op", "plan")
    if op != "plan":
        raise ValueError(
            f"unknown op {op!r} for a plan request; known ops: "
            + ", ".join(KNOWN_OPS)
        )
    if "model" not in doc:
        raise ValueError("request needs a 'model' field")
    deadline_seconds(doc)  # refused here, with the other knobs
    array = doc.get("array", "hetero")
    if isinstance(array, str):
        array = parse_array(array)
    # an inline profile rides along as its v1 JSON document ("analytic" /
    # null keep the peak-rate default); resolved here so a malformed one is
    # rejected at the protocol boundary, not inside a worker thread
    profile = doc.get("profile")
    if profile is not None and profile != "analytic":
        from ..hardware.profile import profile_from_doc

        if not isinstance(profile, dict):
            raise ValueError(
                "'profile' must be a repro.hardware.profile/v1 object, "
                "\"analytic\" or null"
            )
        profile = profile_from_doc(profile)
        if getattr(profile, "is_analytic", False):
            profile = None
    else:
        profile = None
    # every knob goes to PlanRequest as sent, which checks its type
    return PlanRequest(
        model=doc["model"],
        array=array,
        batch=doc.get("batch", 512),
        scheme=doc.get("scheme", "accpar"),
        dtype_bytes=doc.get("dtype_bytes", 2),
        levels=doc.get("levels"),
        space=doc.get("space"),
        ratio_mode=doc.get("ratio_mode"),
        backend=doc.get("backend"),
        profile=profile,
    )


def deadline_seconds(doc: Dict) -> Optional[float]:
    """A plan document's ``deadline_ms`` in seconds, ``None`` for none.

    The deadline is null or a finite number >= 0 (not a bool); anything
    else raises ``ValueError`` naming the field.  A deadline longer than a
    thread can wait (:data:`threading.TIMEOUT_MAX`) waits that long.
    """
    deadline_ms = doc.get("deadline_ms")
    if deadline_ms is None:
        return None
    # ``not 0 <= x < inf`` also refuses NaN, which fails every comparison
    if type(deadline_ms) not in (int, float) \
            or not 0 <= deadline_ms < math.inf:
        raise ValueError(f"deadline_ms must be null or a finite number "
                         f">= 0, not {deadline_ms!r}")
    return min(deadline_ms, _MAX_DEADLINE_MS) / 1e3


def doc_record(doc: Dict, **fields) -> RequestRecord:
    """A plan document's request record, named as :func:`request_from_doc`
    names its request, so every server that refuses it records it alike."""
    try:
        deadline_s = deadline_seconds(doc)
    except ValueError:  # request_from_doc refuses the document
        deadline_s = None
    return RequestRecord(
        trace_id=doc.get("trace_id"), model=doc.get("model"),
        scheme=doc.get("scheme", "accpar"), backend=doc.get("backend"),
        deadline_s=deadline_s, **fields)


def response_to_doc(response: PlanResponse) -> Dict:
    planned = response.planned
    levels = planned.hierarchy_levels()
    root_cost = planned.root_level_plan.cost if levels > 0 else None
    return {
        "ok": True,
        "fingerprint": response.fingerprint,
        "trace_id": response.trace_id,
        "source": response.source,
        "cache_hit": response.cache_hit,
        "degraded": response.degraded,
        "coalesced": response.coalesced,
        "latency_ms": round(response.latency_s * 1e3, 3),
        "model": planned.network_name,
        "scheme": planned.scheme,
        "batch": planned.batch,
        "levels": levels,
        "root_cost": root_cost,
    }


def handle_doc(service: PlanService, doc: Dict) -> Dict:
    """Answer one request document: the op table of every plan service.

    ``plan`` adopts ``trace_id`` and, with ``include_plan``, carries the
    serialized plan (warm replication reads it); ``plan_batch`` answers
    each item so, and refuses an item whose ``op`` is not ``plan`` on its
    own; ``cache_put`` installs a peer-planned entry.  ``shutdown``
    **drains first, then acknowledges**: in-flight jobs (background
    refinements too) reach the disk tier and the stats snapshot is written
    before the ack, so a client that reads the ack knows its plans are
    durable.
    """
    op = doc.get("op", "plan")
    try:
        if op == "plan":
            reply = _plan_reply(service.plan(*_plan_args(service, doc)), doc)
        elif op == "plan_batch":
            reply = _serve_batch(service, doc)
        elif op == "ping":
            reply = {"ok": True}
        elif op == "cache_put":
            fingerprint, plan_doc = doc.get("fingerprint"), doc.get("plan")
            if not fingerprint or not isinstance(plan_doc, dict):
                raise ValueError("cache_put needs 'fingerprint' and 'plan'")
            service.cache.put(fingerprint, plan_from_dict(plan_doc))
            reply = {"ok": True, "stored": True, "fingerprint": fingerprint}
        elif op == "stats":
            reply = {"ok": True, "stats": service.snapshot()}
        elif op == "trace":
            reply = {"ok": True, "spans": [
                span.as_dict()
                for span in service.participant.tracer.drain()]}
        elif op == "shutdown":
            pending = service.pending_jobs()
            service.drain()
            write_stats_snapshot(service)
            reply = {"ok": True, "op": "shutdown", "drained_jobs": pending}
        else:
            reply = {"ok": False, "error": f"unknown op {op!r}",
                     "known_ops": list(KNOWN_OPS)}
    except Exception as exc:  # a bad request must not kill the server
        reply = {"ok": False, "error": str(exc)}
    if doc.get("id") is not None:
        reply["id"] = doc["id"]
    return reply


def _plan_args(service: PlanService, doc: Dict) -> Tuple[
        PlanRequest, Optional[float], Optional[str]]:
    """A plan document as :meth:`PlanService.plan`'s arguments; a refused
    document is recorded here, since the service never sees it."""
    start = time.perf_counter()
    try:
        request = request_from_doc(doc)
    except Exception as exc:
        service.recorder.observe(doc_record(
            doc, latency_s=time.perf_counter() - start, error=str(exc)))
        raise
    return request, deadline_seconds(doc), doc.get("trace_id")


def _plan_reply(response: PlanResponse, doc: Dict) -> Dict:
    """The ``plan`` op's reply; ``include_plan`` adds the serialized plan
    (warm replication reads it)."""
    reply = response_to_doc(response)
    if doc.get("include_plan"):
        reply["plan"] = plan_to_dict(response.planned)
    return reply


def _serve_batch(service: PlanService, doc: Dict) -> Dict:
    """``plan_batch``: every item answered as the ``plan`` op would answer
    it alone, arriving now (:meth:`PlanService.plan_many`)."""
    start = time.perf_counter()
    items, error = batch_items(doc)
    if error is not None:
        return error
    replies: List[Optional[Dict]] = [None] * len(items)
    planned: List[int] = []
    args = []
    for index, item in enumerate(items):
        if item is None:
            replies[index] = not_an_object()
            continue
        try:
            args.append(_plan_args(service, item))
        except Exception as exc:
            replies[index] = {"ok": False, "error": str(exc)}
            continue
        planned.append(index)
    for index, response in zip(planned, service.plan_many(args)):
        if response.error is not None:
            replies[index] = {"ok": False, "error": response.error}
            continue
        try:
            replies[index] = _plan_reply(response, items[index])
        except Exception as exc:  # one item's failure is its own
            replies[index] = {"ok": False, "error": str(exc)}
    for item, reply in zip(items, replies):
        if item is not None and item.get("id") is not None:
            reply["id"] = item["id"]
    return batch_reply(replies, time.perf_counter() - start)


def handle_line(handle: Handler, line: Union[str, bytes]) -> Dict:
    """One request line in, exactly one reply out."""
    doc, error = decode_line(line)
    return error or handle(doc)


def is_shutdown_ack(result: Dict) -> bool:
    """True for the response document that ends a serving loop."""
    return bool(result.get("ok")) and result.get("op") == "shutdown"


def serve_loop(handle: Handler, lines: Iterable[str], out: TextIO) -> int:
    """Answer lines until a shutdown ack or EOF; returns the reply count.

    ``handle`` is ``functools.partial(handle_doc, service)`` for one
    process, or a fleet frontend's ``handle_doc``.  EOF acts as a shutdown
    whose ack nobody reads, so in-flight jobs drain and the stats snapshot
    is written either way.
    """
    served = 0
    for line in lines:
        result = handle_line(handle, line)
        out.write(json.dumps(result) + "\n")
        out.flush()
        served += 1
        if is_shutdown_ack(result):
            return served
    ack = handle({"op": "shutdown"})
    if not ack.get("ok"):
        raise RuntimeError(f"shutdown at end of input: {ack.get('error')}")
    return served


def warm_cache(
    service: PlanService, requests: Iterable[PlanRequest]
) -> List[PlanResponse]:
    """Pre-populate the cache and persist a stats snapshot alongside it."""
    responses = service.warm(requests)
    service.drain()
    write_stats_snapshot(service)
    return responses


def write_stats_snapshot(service: PlanService) -> None:
    """Drop stats files next to the disk cache tier (if any).

    Two artifacts, written atomically: the human-readable text snapshot
    (``service-stats``'s default view) and its JSON twin, which the
    ``--format json`` / ``--format prometheus`` renderers consume without
    holding the service process open.
    """
    disk_dir = service.cache.disk_dir
    if disk_dir is None:
        return
    atomic_write_text(disk_dir / STATS_SNAPSHOT_NAME,
                      service.render_stats() + "\n")
    atomic_write_text(disk_dir / STATS_SNAPSHOT_JSON_NAME,
                      json.dumps(service.snapshot(), indent=2) + "\n")


def load_stats_snapshot(disk_dir) -> Optional[Dict]:
    """The last session's JSON stats snapshot, or None when absent/corrupt."""
    path = Path(disk_dir) / STATS_SNAPSHOT_JSON_NAME
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def describe_cache_dir(disk_dir) -> str:
    """Offline summary of a disk cache tier, for ``service-stats``."""
    disk_dir = Path(disk_dir)
    if not disk_dir.is_dir():
        return f"{disk_dir}: no cache directory"
    entries = sorted(disk_dir.glob("*.json"))
    lines = [f"disk cache {disk_dir}: {len(entries)} plan(s), "
             f"{sum(p.stat().st_size for p in entries)} bytes"]
    by_model: Dict[str, int] = {}
    for path in entries:
        try:
            doc = json.loads(path.read_text())
            label = f"{doc.get('network', '?')} / {doc.get('scheme', '?')} " \
                    f"/ batch {doc.get('batch', '?')}"
        except (ValueError, RecursionError, OSError):
            label = "(unreadable)"
        by_model[label] = by_model.get(label, 0) + 1
    for label in sorted(by_model):
        lines.append(f"  {by_model[label]}x {label}")
    snapshot = disk_dir / STATS_SNAPSHOT_NAME
    if snapshot.exists():
        lines += ["", "last session:", snapshot.read_text().rstrip()]
    return "\n".join(lines)
