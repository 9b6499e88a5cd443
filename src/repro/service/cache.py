"""Two-tier content-addressed plan cache: in-memory LRU over optional disk.

Tier 1 is a thread-safe LRU of :class:`~repro.core.planner.PlannedExecution`
objects keyed by request fingerprint.  Tier 2 (optional) is a directory of
JSON documents in the :mod:`repro.core.serialize` format, one file per
fingerprint — which makes the disk tier shareable between ``warm`` runs and
later ``serve`` processes, and even hand-inspectable with ``jq``.

Disk documents that fail to load are treated as misses, not errors: the
cache must never make a serveable request fail.  Two failure classes are
kept apart:

* **forward-compat misses** — a well-formed document this build cannot
  use (future schema version, unregistered model).  Counted in
  ``disk_errors`` and left in place: a newer build may read it fine.
* **corruption** — bytes that are not UTF-8, text that is not a JSON
  object, or a checksum mismatch (torn write, bit rot, hand edits).  An
  entry that fails is **quarantined** — renamed to
  ``<fingerprint>.json.corrupt`` rather than deleted, so operators can
  inspect what broke — and counted in ``corrupt_total`` (exposed as
  ``repro_cache_corrupt_total``).

Every entry is written with a SHA-256 ``checksum`` of its canonical JSON
(sorted keys, no whitespace, checksum field excluded: :func:`entry_checksum`).
The writer encodes the document once, as that canonical text, and lays
the entry out as ``{"checksum":"<hex>",`` followed by the rest of the
text, so the checksum covers exactly the bytes after it.  A reader checks
such an entry with one hash of its bytes; any other entry (the indented
layout earlier builds wrote, a hand edit, a byte mismatch) is checked by
:func:`entry_checksum` on the parsed document, the rule every build
applies, so entries move freely between builds sharing a directory.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from ..core.planner import PlannedExecution
from ..core.serialize import plan_from_dict, plan_to_json
from ..ioutil import atomic_write_text
from ..obs.logging import get_logger

log = get_logger("repro.service.cache")

#: suffix appended to a quarantined disk entry's filename
CORRUPT_SUFFIX = ".corrupt"


#: how a written entry starts: ``{"checksum":"``, 64 hex digits, ``",``
_HEAD = b'{"checksum":"'
_HEAD_LEN = len(_HEAD) + 64 + 2


def entry_checksum(document: dict) -> str:
    """SHA-256 over a disk entry's canonical JSON, checksum field excluded."""
    payload = {k: v for k, v in document.items() if k != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _checksum_matches(raw: bytes, document: dict) -> bool:
    """Whether a disk entry's stored checksum matches its content.

    An entry laid out as the writer lays it out passes when the SHA-256 of
    its bytes after the checksum (with the ``{`` the checksum displaced)
    equals the stored checksum; every other entry goes through
    :func:`entry_checksum`.
    """
    stored = document["checksum"]
    if raw.startswith(_HEAD) and raw[_HEAD_LEN - 2:_HEAD_LEN] == b'",':
        digest = hashlib.sha256(b"{")
        digest.update(memoryview(raw)[_HEAD_LEN:])
        if digest.hexdigest() == stored:
            return True
    return entry_checksum(document) == stored


@dataclass
class CacheStats:
    """Counters for every way a lookup or insert can go."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    disk_errors: int = 0
    corrupt_total: int = 0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict:
        return {
            "hits_memory": self.hits_memory,
            "hits_disk": self.hits_disk,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "disk_errors": self.disk_errors,
            "corrupt_total": self.corrupt_total,
        }


class PlanCache:
    """LRU plan cache with an optional persistent disk tier.

    ``capacity`` bounds the in-memory tier only; the disk tier grows without
    bound.  An entry holds each distinct subtree of the plan once, so its
    size grows with the array's distinct sub-problems: a 256-board
    resnet50 entry is about 90 KB, a 4-board alexnet entry a few KB.  A
    disk hit is promoted into memory so repeated lookups pay the JSON parse
    once.
    """

    def __init__(
        self,
        capacity: int = 128,
        disk_dir=None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._entries: "OrderedDict[str, PlannedExecution]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[PlannedExecution]:
        planned, _ = self.get_with_tier(key)
        return planned

    def peek(self, key: str) -> Optional[PlannedExecution]:
        """Memory-tier lookup that records no stats and touches no LRU order.

        For internal correctness re-checks (single-flight race closing) that
        must not distort the hit/miss counters.
        """
        with self._lock:
            return self._entries.get(key)

    def get_with_tier(self, key: str) -> Tuple[Optional[PlannedExecution], Optional[str]]:
        """Look up a fingerprint; returns ``(plan, "memory"|"disk"|None)``."""
        with self._lock:
            planned = self._entries.get(key)
            if planned is not None:
                self._entries.move_to_end(key)
                self.stats.hits_memory += 1
                return planned, "memory"

        planned = self._load_disk(key)
        if planned is not None:
            with self._lock:
                self.stats.hits_disk += 1
                self._insert(key, planned)
            return planned, "disk"

        with self._lock:
            self.stats.misses += 1
        return None, None

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def put(self, key: str, planned: PlannedExecution, persist: bool = True) -> None:
        with self._lock:
            self.stats.puts += 1
            self._insert(key, planned)
        if persist:
            self._store_disk(key, planned)

    def _insert(self, key: str, planned: PlannedExecution) -> None:
        # caller holds the lock
        self._entries[key] = planned
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.json"

    def _load_disk(self, key: str) -> Optional[PlannedExecution]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            raw = path.read_bytes()
        except OSError:
            with self._lock:
                self.stats.disk_errors += 1
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
        # bad UTF-8 or JSON, or nested deeper than the parser recurses
        except (ValueError, RecursionError) as exc:
            self._quarantine(path, f"unparseable entry: {exc}")
            return None
        if not isinstance(data, dict):
            self._quarantine(path, f"not a JSON object: "
                                   f"{type(data).__name__}")
            return None
        if "checksum" in data and not _checksum_matches(raw, data):
            self._quarantine(path, "checksum mismatch")
            return None
        try:
            return plan_from_dict(data)
        except (ValueError, KeyError, OSError):
            # a well-formed entry this build cannot use (future schema,
            # unknown model): degrade to a miss and leave the file — a
            # newer build may read it fine
            with self._lock:
                self.stats.disk_errors += 1
            return None

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (never delete: evidence, not trash)."""
        target = path.with_name(path.name + CORRUPT_SUFFIX)
        try:
            path.rename(target)
        except OSError:
            target = None  # a concurrent reader may have beaten us to it
        with self._lock:
            self.stats.disk_errors += 1
            self.stats.corrupt_total += 1
        log.warning("quarantined corrupt cache entry", extra={
            "event": "cache_quarantine", "path": str(path),
            "quarantined_to": str(target) if target else None,
            "reason": reason})

    def _store_disk(self, key: str, planned: PlannedExecution) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        text = plan_to_json(planned, fingerprint=key)
        checksum = hashlib.sha256(text.encode("utf-8")).hexdigest()
        # the checksum goes first, so the bytes after it are the canonical
        # text it hashes.  Unique temp name + os.replace: atomic against
        # concurrent readers AND concurrent writers of the same fingerprint
        atomic_write_text(path, f'{{"checksum":"{checksum}",{text[1:]}')

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def disk_keys(self):
        if self.disk_dir is None:
            return []
        return sorted(p.stem for p in self.disk_dir.glob("*.json"))

    def clear(self, disk: bool = False) -> None:
        with self._lock:
            self._entries.clear()
        if disk and self.disk_dir is not None:
            for path in self.disk_dir.glob("*.json"):
                path.unlink()
