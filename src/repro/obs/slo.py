"""SLO accounting: latency/deadline objectives and error-budget burn.

An SLO here is "fraction ``objective`` of requests answer within
``latency_ms``" plus, for deadline-carrying requests, deadline
attainment.  :class:`SLOTracker` classifies every observation as good or
bad against a frozen :class:`SLOConfig` and maintains:

* lifetime good/bad totals → **attainment** and **error budget
  remaining** (1.0 = untouched budget, 0.0 = exactly spent, negative =
  overspent);
* two sliding windows (fast/slow, the multiwindow burn-rate alerting
  shape) → **burn rate** = windowed error rate / (1 - objective), so
  burn 1.0 means "spending budget exactly as fast as the objective
  allows" and burn 14 on the fast window is the classic page-now signal.
  The windows count good and bad requests per whole second, so their
  memory is bounded by the slow window's length, not the request rate.

Chaos-touched requests are budgeted like any other; ``repro telemetry
summary`` splits their latency from organic latency offline, by trace id.

Spec strings are comma-separated ``key=value`` pairs, the
``ChaosSpec.parse`` convention::

    latency_ms=250                          # defaults elsewhere
    latency_ms=100,objective=0.999
    latency_ms=250,objective=0.99,window_fast_s=300,window_slow_s=3600

The tracker is snapshot-driven: :meth:`SLOTracker.snapshot` feeds the
``"slo"`` section of service/fleet stats, and
:func:`repro.obs.registry.render_prometheus` renders that section as
``repro_slo_*`` gauges and counters.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional


class SLOSpecError(ValueError):
    """An SLO spec string does not parse."""


@dataclass(frozen=True)
class SLOConfig:
    """A frozen latency/deadline objective."""

    latency_ms: float = 250.0     # a request this fast (or faster) is good
    objective: float = 0.99       # target fraction of good requests
    window_fast_s: float = 300.0  # fast burn-rate window (page-worthy)
    window_slow_s: float = 3600.0  # slow burn-rate window (ticket-worthy)

    _FIELDS = ("latency_ms", "objective", "window_fast_s", "window_slow_s")

    def __post_init__(self):
        if self.latency_ms <= 0:
            raise SLOSpecError("latency_ms must be positive")
        if not 0.0 < self.objective < 1.0:
            raise SLOSpecError("objective must be in (0, 1)")
        if self.window_fast_s <= 0 or self.window_slow_s <= 0:
            raise SLOSpecError("burn-rate windows must be positive")
        if self.window_fast_s > self.window_slow_s:
            raise SLOSpecError("window_fast_s cannot exceed window_slow_s")

    @property
    def latency_s(self) -> float:
        return self.latency_ms / 1e3

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    @classmethod
    def parse(cls, text: str) -> "SLOConfig":
        """Parse ``"latency_ms=250,objective=0.99,window_fast_s=300"``."""
        values: Dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in cls._FIELDS:
                raise SLOSpecError(
                    f"bad slo spec entry {part!r}; known keys: "
                    f"{', '.join(cls._FIELDS)}")
            try:
                values[key] = float(raw)
            except ValueError as exc:
                raise SLOSpecError(
                    f"bad slo spec value for {key}: {raw!r}") from exc
        return cls(**values)  # type: ignore[arg-type]

    def describe(self) -> str:
        return ",".join(f"{name}={getattr(self, name):g}"
                        for name in self._FIELDS)


class SLOTracker:
    """Thread-safe good/bad classifier with burn-rate windows.

    ``clock`` is injectable (monotonic seconds) so tests can drive the
    windows deterministically.
    """

    def __init__(
        self,
        config: Optional[SLOConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if isinstance(config, str):
            config = SLOConfig.parse(config)
        self.config = config or SLOConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self.good_total = 0
        self.bad_total = 0
        self.deadline_total = 0
        self.deadline_met_total = 0
        # [second, good, bad] counts per whole second, newest right, so the
        # windows hold at most window_slow_s + 1 buckets at any request
        # rate; pruned lazily against the slow window on observe and snapshot
        self._window: Deque[List[int]] = deque()

    # ------------------------------------------------------------------
    def observe(
        self,
        latency_s: float,
        *,
        ok: bool = True,
        deadline_met: Optional[bool] = None,
    ) -> bool:
        """Classify one request; returns whether it was good.

        ``ok=False`` (errors, sheds) is always bad regardless of latency;
        ``deadline_met`` feeds deadline attainment when the request
        carried a deadline.
        """
        good = bool(ok) and latency_s <= self.config.latency_s
        now = self._clock()
        with self._lock:
            if good:
                self.good_total += 1
            else:
                self.bad_total += 1
            if deadline_met is not None:
                self.deadline_total += 1
                if deadline_met:
                    self.deadline_met_total += 1
            second = math.floor(now)
            window = self._window
            # a clock that steps back counts into the newest bucket
            if not window or window[-1][0] < second:
                window.append([second, 0, 0])
            window[-1][1 if good else 2] += 1
            self._prune(now)
        return good

    def _prune(self, now: float) -> None:
        horizon = now - self.config.window_slow_s
        window = self._window
        while window and window[0][0] + 1 <= horizon:
            window.popleft()

    def _window_rate(self, now: float, window_s: float) -> Optional[float]:
        """Bad share of the buckets whose second overlaps ``window_s``."""
        horizon = now - window_s
        good = bad = 0
        for second, good_n, bad_n in reversed(self._window):
            if second + 1 <= horizon:
                break
            good += good_n
            bad += bad_n
        if not good + bad:
            return None
        return bad / (good + bad)

    def burn_rate(self, window_s: Optional[float] = None) -> float:
        """Windowed error rate over the error budget; 0.0 when idle.

        1.0 = spending budget exactly at the sustainable rate; >1 =
        overspending (burn 14.4 on a 5-minute window against a 99.9%%
        objective is the canonical page threshold).
        """
        if window_s is None:
            window_s = self.config.window_fast_s
        now = self._clock()
        with self._lock:
            self._prune(now)
            rate = self._window_rate(now, window_s)
        if rate is None:
            return 0.0
        return rate / self.config.error_budget

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        now = self._clock()
        with self._lock:
            self._prune(now)
            good, bad = self.good_total, self.bad_total
            deadline_total = self.deadline_total
            deadline_met = self.deadline_met_total
            fast = self._window_rate(now, self.config.window_fast_s)
            slow = self._window_rate(now, self.config.window_slow_s)
        total = good + bad
        budget = self.config.error_budget
        return {
            "config": self.config.describe(),
            "latency_target_ms": self.config.latency_ms,
            "objective": self.config.objective,
            "good_total": good,
            "bad_total": bad,
            "total": total,
            "attainment": (good / total) if total else None,
            "deadline_total": deadline_total,
            "deadline_met_total": deadline_met,
            "deadline_attainment": (
                deadline_met / deadline_total if deadline_total else None),
            "error_budget_remaining": (
                1.0 - (bad / total) / budget if total else 1.0),
            "burn_rate_fast": (fast / budget) if fast is not None else 0.0,
            "burn_rate_slow": (slow / budget) if slow is not None else 0.0,
            "window_fast_s": self.config.window_fast_s,
            "window_slow_s": self.config.window_slow_s,
        }

    def render(self, title: str = "slo") -> str:
        """Aligned text block for ``service-stats`` / ``fleet-stats``."""
        snap = self.snapshot()
        return render_slo_lines(snap, title)


def render_slo_lines(snap: Dict[str, Any], title: str = "slo") -> str:
    """Text rendering shared by live trackers and offline snapshots."""
    attainment = snap.get("attainment")
    deadline = snap.get("deadline_attainment")
    lines = [
        title,
        f"  target          p({snap.get('objective')}) <= "
        f"{snap.get('latency_target_ms')}ms",
        f"  requests        good={snap.get('good_total', 0)} "
        f"bad={snap.get('bad_total', 0)}",
        f"  attainment      "
        f"{'n/a' if attainment is None else f'{attainment:.4f}'}",
        f"  deadline        met={snap.get('deadline_met_total', 0)}"
        f"/{snap.get('deadline_total', 0)}"
        + ("" if deadline is None else f" ({deadline:.4f})"),
        f"  budget_left     {snap.get('error_budget_remaining', 1.0):.3f}",
        f"  burn_rate       fast={snap.get('burn_rate_fast', 0.0):.2f} "
        f"slow={snap.get('burn_rate_slow', 0.0):.2f}",
    ]
    return "\n".join(lines)
