"""Deterministic fault injection for the fleet: the chaos harness.

Production failures are rare, concurrent and unreproducible; this module
makes them cheap, scripted and **bit-reproducible**.  A
:class:`ChaosSpec` describes a failure mix — wire-frame faults applied
probabilistically plus two scripted shard faults — and a
:class:`ChaosController` executes it from one seeded RNG, so the same
spec replays the same episode on every run:

* ``drop``    — an outbound frame is silently not written (the peer sees
  a stalled stream and times out);
* ``delay_ms`` — an outbound frame is written after a fixed delay with
  probability ``delay`` (straggler links);
* ``corrupt`` — a byte in the frame *body* is flipped (the length prefix
  is left intact so the receiver reads a full frame and fails cleanly in
  :func:`~repro.fleet.wire.decode_body` instead of desynchronizing);
* ``chaos_kill`` op — the shard dies like a crash: ``os._exit`` in
  process mode (no drain, no reply, no atexit), abrupt server stop in
  thread mode;
* ``chaos_freeze`` op — the shard answers nothing for N seconds (every
  subsequent request blocks), which is what a GC pause, an NFS stall or a
  wedged worker pool look like from the frontend.

Faults are **scoped**: a controller is attached to one
:class:`~repro.fleet.shard.ShardServer` (``serve --chaos`` or
``ShardSupervisor(chaos=...)`` gives each shard its own), so a test can
perturb one shard's responses while the frontend, the client and the
other shards stay healthy.  The chaos ops are refused unless the shard has
a controller — a production fleet without ``--chaos`` cannot be killed
over the wire.

Spec strings are comma-separated ``key=value`` pairs::

    seed=42                       # ops enabled, no wire faults
    seed=7,corrupt=0.25           # corrupt 25% of outbound frames
    seed=7,drop=0.1,delay=0.2,delay_ms=50
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class ChaosSpecError(ValueError):
    """A chaos spec string does not parse."""


@dataclass(frozen=True)
class ChaosSpec:
    """A declarative failure mix; all probabilities in [0, 1]."""

    seed: int = 0
    drop: float = 0.0      # P(outbound frame silently dropped)
    delay: float = 0.0     # P(outbound frame delayed by delay_ms)
    delay_ms: float = 0.0  # the straggler delay applied on a delay hit
    corrupt: float = 0.0   # P(one body byte flipped in an outbound frame)

    _FIELDS = ("seed", "drop", "delay", "delay_ms", "corrupt")

    def __post_init__(self):
        for name in ("drop", "delay", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ChaosSpecError(f"{name} must be in [0, 1], got {value}")
        if self.delay_ms < 0:
            raise ChaosSpecError("delay_ms cannot be negative")

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse ``"seed=42,drop=0.1,delay=0.2,delay_ms=50,corrupt=0.05"``."""
        values: Dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in cls._FIELDS:
                raise ChaosSpecError(
                    f"bad chaos spec entry {part!r}; known keys: "
                    f"{', '.join(cls._FIELDS)}")
            try:
                values[key] = int(raw) if key == "seed" else float(raw)
            except ValueError as exc:
                raise ChaosSpecError(
                    f"bad chaos spec value for {key}: {raw!r}") from exc
        return cls(**values)  # type: ignore[arg-type]

    def describe(self) -> str:
        return ",".join(f"{name}={getattr(self, name)}"
                        for name in self._FIELDS)


class ChaosController:
    """Executes one :class:`ChaosSpec` from a private seeded RNG.

    Thread-safe: shard handler threads share one controller, and the RNG
    draw order (one draw per fault class per frame, in a fixed order) is
    what makes an episode deterministic for a given request sequence.
    """

    def __init__(self, spec: ChaosSpec):
        # the stdlib Mersenne Twister, privately seeded: deterministic
        # without touching the global random module state
        import random

        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._lock = threading.Lock()
        self.frames_seen = 0
        self.frames_dropped = 0
        self.frames_delayed = 0
        self.frames_corrupted = 0

    # ------------------------------------------------------------------
    def perturb_tagged(
        self, data: bytes
    ) -> Tuple[Optional[bytes], float, Tuple[str, ...]]:
        """Apply wire faults to one encoded frame, naming what was done.

        Returns ``(frame_bytes_or_None, delay_s, tags)``: ``None`` means
        the frame is dropped; the caller sleeps ``delay_s`` before writing
        whatever survives; ``tags`` lists the injected faults (``"drop"`` /
        ``"delay"`` / ``"corrupt"``, empty when the frame passed untouched)
        so telemetry can mark the request as chaos-injected for SLO burn
        attribution.

        The RNG draw order (one draw per fault class per frame, fixed) is
        identical to the untagged :meth:`perturb`, so episodes stay
        bit-reproducible regardless of which entry point the codec uses.
        """
        spec = self.spec
        tags: Tuple[str, ...] = ()
        with self._lock:
            self.frames_seen += 1
            drop_roll = self._rng.random() if spec.drop else 1.0
            delay_roll = self._rng.random() if spec.delay else 1.0
            corrupt_roll = self._rng.random() if spec.corrupt else 1.0
            flip_at = (self._rng.randrange(max(1, len(data) - 4))
                       if spec.corrupt else 0)
            if drop_roll < spec.drop:
                self.frames_dropped += 1
                return None, 0.0, ("drop",)
            delay_s = 0.0
            if delay_roll < spec.delay:
                self.frames_delayed += 1
                delay_s = spec.delay_ms / 1e3
                tags += ("delay",)
            if corrupt_roll < spec.corrupt and len(data) > 4:
                self.frames_corrupted += 1
                index = 4 + flip_at  # body only: keep the length honest
                data = data[:index] + bytes([data[index] ^ 0xFF]) \
                    + data[index + 1:]
                tags += ("corrupt",)
            return data, delay_s, tags

    def perturb(self, data: bytes) -> Tuple[Optional[bytes], float]:
        """Apply wire faults to one encoded frame (untagged form).

        Returns ``(frame_bytes_or_None, delay_s)``; see
        :meth:`perturb_tagged` for the fault semantics.
        """
        data, delay_s, _ = self.perturb_tagged(data)
        return data, delay_s

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "spec": self.spec.describe(),
                "frames_seen": self.frames_seen,
                "frames_dropped": self.frames_dropped,
                "frames_delayed": self.frames_delayed,
                "frames_corrupted": self.frames_corrupted,
            }
