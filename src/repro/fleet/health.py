"""Shard health tracking: K-consecutive-failure marking and ring membership.

The frontend feeds this monitor from two places — the periodic heartbeat
loop and every failed dispatch — and the monitor owns the *membership*
consequences:

* after ``failure_threshold`` **consecutive** failures a shard is marked
  **down**: it leaves the consistent-hash ring (so new fingerprints route
  to survivors, moving only ~1/N of the keyspace), its ``shard_up`` gauge
  drops to 0, and ``shard_marked_down`` counts the transition;
* one success marks it **up** again: it rejoins the ring at exactly the
  virtual-node positions it held before (ring points are pure hashes of
  the shard name), the gauge returns to 1, and warm disk caches mean the
  rejoining shard serves its old keyspace hot.

A single failure never changes membership — transient blips are the retry
policy's job (:mod:`repro.fleet.retry`); the monitor reacts to *patterns*.
All methods are thread-safe; ring mutations happen under the monitor lock
so a heartbeat and a dispatch failure cannot double-remove a shard.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..obs.registry import MetricsRegistry
from .ring import HashRing


class ShardHealth:
    """Mutable per-shard record; owned and locked by the monitor."""

    __slots__ = ("name", "up", "consecutive_failures", "last_change_s",
                 "last_reason", "marked_down_total", "marked_up_total")

    def __init__(self, name: str):
        self.name = name
        self.up = True
        self.consecutive_failures = 0
        self.last_change_s = time.monotonic()
        self.last_reason = "initial"
        self.marked_down_total = 0
        self.marked_up_total = 0

    def as_dict(self) -> Dict:
        return {
            "up": self.up,
            "consecutive_failures": self.consecutive_failures,
            "last_reason": self.last_reason,
            "since_change_s": round(time.monotonic() - self.last_change_s, 3),
            "marked_down_total": self.marked_down_total,
            "marked_up_total": self.marked_up_total,
        }


class HealthMonitor:
    """Tracks shard health and keeps the routing ring in sync with it."""

    def __init__(
        self,
        shard_names,
        *,
        ring: HashRing,
        metrics: Optional[MetricsRegistry] = None,
        failure_threshold: int = 3,
        on_down: Optional[Callable[[str, str], None]] = None,
        on_up: Optional[Callable[[str], None]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.ring = ring
        self.metrics = metrics or MetricsRegistry()
        self.failure_threshold = failure_threshold
        self._on_down = on_down
        self._on_up = on_up
        self._lock = threading.Lock()
        self._shards: Dict[str, ShardHealth] = {
            str(name): ShardHealth(str(name)) for name in shard_names}
        for name in self._shards:
            self.metrics.gauge("shard_up", shard=name).set(1)

    # ------------------------------------------------------------------
    # feed
    # ------------------------------------------------------------------
    def record_success(self, name: str) -> None:
        """One good heartbeat or served request; may mark the shard up."""
        recovered = False
        with self._lock:
            shard = self._shards[name]
            shard.consecutive_failures = 0
            if not shard.up:
                shard.up = True
                shard.marked_up_total += 1
                shard.last_change_s = time.monotonic()
                shard.last_reason = "recovered"
                if name not in self.ring:
                    self.ring.add(name)
                self.metrics.gauge("shard_up", shard=name).set(1)
                self.metrics.counter("shard_marked_up").inc()
                recovered = True
        if recovered and self._on_up is not None:
            self._on_up(name)

    def record_failure(self, name: str, reason: str = "error") -> None:
        """One failed heartbeat or dispatch; may mark the shard down."""
        went_down = False
        with self._lock:
            shard = self._shards[name]
            shard.consecutive_failures += 1
            if shard.up and \
                    shard.consecutive_failures >= self.failure_threshold:
                shard.up = False
                shard.marked_down_total += 1
                shard.last_change_s = time.monotonic()
                shard.last_reason = reason
                if name in self.ring and len(self.ring) > 1:
                    # never empty the ring: with every shard failing the
                    # last one stays routable so requests fail loudly at
                    # dispatch instead of silently losing all owners
                    self.ring.remove(name)
                self.metrics.gauge("shard_up", shard=name).set(0)
                self.metrics.counter("shard_marked_down").inc()
                went_down = True
        if went_down and self._on_down is not None:
            self._on_down(name, reason)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_up(self, name: str) -> bool:
        with self._lock:
            shard = self._shards.get(name)
            return bool(shard and shard.up)

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "failure_threshold": self.failure_threshold,
                "shards": {n: s.as_dict()
                           for n, s in sorted(self._shards.items())},
            }
