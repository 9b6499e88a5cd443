"""Admission control: shed what cannot meet its deadline, degrade under load.

The frontend calls :meth:`AdmissionController.decide` once per batch item,
*before* the item touches the dispatch queue.  The contract, in order:

1. **immediate shed** — a deadline below even the cache-hit service
   estimate can never be met; answer ``{"ok": false, "error": "shed"}``
   in microseconds instead of failing slowly after planning started.
   This is the fast-rejection path the acceptance criterion times.
2. **queue-full shed** — beyond ``max_queue_depth`` waiting items the
   frontend is past saturation; admitting more just grows latency for
   everyone, so the request is shed with ``reason="queue full"``.
3. **pressure degrade** — between ``degrade_depth`` and the full queue the
   item is admitted but marked ``degrade``: the frontend forwards it with
   a zero deadline, so the owning shard serves whatever is cached right
   now or the fallback backend (``degraded=True``), and the exact plan
   still lands in the cache in the background.
4. **admit** — otherwise the item queues for exact planning.

Cost estimates are exponentially-weighted moving averages of observed
shard service times, split by cache hit vs. cold plan.  The cache-hit
estimate also ages: without fresh observations it decays back toward its
initial value, halving its excess every :data:`HIT_HALF_LIFE_S`.  So a slow
spell that pushed it up cannot leave it there while step 1 sheds every
item that could bring it down; the first items admitted again report the
shards' current speed.  The frontend knows
which to expect because it tracks the set of fingerprints believed warm
(fed by responses and warm-replication, :meth:`note_warm`).  A second
deadline check happens at *dequeue* time in the frontend ("late shed"):
the queue is earliest-deadline-first, but an item can still expire while
queued and is then shed rather than dispatched.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

#: decision actions
ADMIT = "admit"
SHED = "shed"
DEGRADE = "degrade"

#: seconds over which the cache-hit estimate's excess over its initial
#: value halves while no hit is observed
HIT_HALF_LIFE_S = 1.0

#: the clock the estimate ages by (tests replace it)
_clock = time.monotonic


@dataclass(frozen=True)
class Decision:
    """One admission verdict with the estimate that produced it."""

    action: str            # ADMIT | SHED | DEGRADE
    reason: str
    est_cost_s: float

    @property
    def admitted(self) -> bool:
        return self.action in (ADMIT, DEGRADE)


class AdmissionController:
    """Deadline-aware admission policy over EWMA service-time estimates."""

    def __init__(
        self,
        *,
        max_queue_depth: int = 256,
        degrade_depth: int = 64,
        safety_factor: float = 1.2,
        initial_cold_s: float = 0.25,
        initial_hit_s: float = 0.002,
        alpha: float = 0.2,
        max_hints: int = 100_000,
    ):
        if max_queue_depth <= 0 or degrade_depth <= 0:
            raise ValueError("queue depths must be positive")
        if degrade_depth > max_queue_depth:
            raise ValueError("degrade_depth cannot exceed max_queue_depth")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.max_queue_depth = max_queue_depth
        self.degrade_depth = degrade_depth
        self.safety_factor = safety_factor
        self.alpha = alpha
        self.max_hints = max_hints
        self._cold_s = initial_cold_s
        self._initial_hit_s = self._hit_s = initial_hit_s
        self._hit_observed_at = _clock()
        self._warm_hints: set = set()
        self._decisions: Dict[str, int] = {
            ADMIT: 0, SHED: 0, DEGRADE: 0}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    def note_warm(self, fingerprint: str) -> None:
        """Record that a fingerprint is (believed) cached somewhere."""
        with self._lock:
            if len(self._warm_hints) >= self.max_hints:
                self._warm_hints.pop()  # arbitrary eviction; hints are hints
            self._warm_hints.add(fingerprint)

    def _aged_hit_s(self, now: float) -> float:
        """The cache-hit estimate at ``now``; call with the lock held."""
        excess = self._hit_s - self._initial_hit_s
        if excess <= 0.0:
            return self._hit_s
        age = now - self._hit_observed_at
        return self._initial_hit_s + excess * 0.5 ** (age / HIT_HALF_LIFE_S)

    def observe(self, fingerprint: str, latency_s: float,
                cache_hit: bool) -> None:
        """Fold one observed shard service time into the estimates."""
        with self._lock:
            if cache_hit:
                now = _clock()
                hit_s = self._aged_hit_s(now)
                self._hit_s = hit_s + self.alpha * (latency_s - hit_s)
                self._hit_observed_at = now
            else:
                self._cold_s += self.alpha * (latency_s - self._cold_s)
            if len(self._warm_hints) < self.max_hints:
                self._warm_hints.add(fingerprint)

    def estimate(self, fingerprint: Optional[str]) -> float:
        """Expected service time: hit estimate if hinted warm, else cold."""
        with self._lock:
            if fingerprint is not None and fingerprint in self._warm_hints:
                return self._aged_hit_s(_clock())
            return self._cold_s

    @property
    def floor_s(self) -> float:
        """The cheapest possible service estimate (a cache hit)."""
        with self._lock:
            return self._aged_hit_s(_clock())

    # ------------------------------------------------------------------
    # policy
    # ------------------------------------------------------------------
    def quick_shed(self, deadline_s: Optional[float]) -> Optional[Decision]:
        """The pre-fingerprint fast path: shed what no cache hit could meet.

        Called before the frontend spends anything on the item (no model
        build, no fingerprint hash, no routing) so an unmeetable deadline
        is answered in microseconds.  Returns ``None`` when the item needs
        the full :meth:`decide`.
        """
        if deadline_s is None:
            return None
        floor = self.floor_s
        if deadline_s / self.safety_factor < floor:
            return self._record(Decision(
                SHED, "deadline below cache-hit service time", floor))
        return None

    def decide(
        self,
        fingerprint: Optional[str],
        deadline_s: Optional[float],
        queue_depth: int,
    ) -> Decision:
        """Admission verdict for one item; see the module docstring."""
        est = self.estimate(fingerprint)
        if deadline_s is not None:
            budget = deadline_s / self.safety_factor
            if budget < self.floor_s:
                return self._record(Decision(
                    SHED, "deadline below cache-hit service time", est))
            if budget < est:
                return self._record(Decision(
                    SHED, "deadline unmeetable at current estimate", est))
        if queue_depth >= self.max_queue_depth:
            return self._record(Decision(SHED, "queue full", est))
        if queue_depth >= self.degrade_depth:
            return self._record(Decision(
                DEGRADE, "queue pressure past degrade threshold", est))
        return self._record(Decision(ADMIT, "admitted", est))

    def _record(self, decision: Decision) -> Decision:
        with self._lock:
            self._decisions[decision.action] += 1
        return decision

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """JSON-compatible view for ``fleet_stats``."""
        with self._lock:
            return {
                "est_cold_ms": round(self._cold_s * 1e3, 3),
                "est_hit_ms": round(self._aged_hit_s(_clock()) * 1e3, 3),
                "warm_hints": len(self._warm_hints),
                "max_queue_depth": self.max_queue_depth,
                "degrade_depth": self.degrade_depth,
                "decisions": dict(self._decisions),
            }
