"""Where the benchmark runs, and a fixed probe of how fast the host is.

The benchmark shares a few cores of a host whose speed changes as other
tenants come and go.  On a 2-vCPU x86 VM the probe below took 9 ms or
16 ms, switching every second or so, and whole runs of a workload drifted
by a fifth from one minute to the next.  A run that falls in a slow phase
reads slower although the program did not change.

So each run takes short probes where no request is in flight, and reports
its timings scaled to a reference speed: a time is divided by the slowdown
of the phase it was measured in (the mean probe time of that phase over
:data:`REFERENCE_S`), and a rate is multiplied by it.  The probe is the
benchmark's own code and never calls the program, so a change to the
program moves the scaled timings as much as the raw ones.  It mixes the
kinds of work ``repro serve`` does: interpreted loops over small containers
(the search, the dispatch), JSON encoding and decoding (the wire codec, the
disk tier) and hashing (fingerprints, checksums).

The server runs on one CPU and the load generator on another, so that the
server's threads never migrate; the probe runs on the server's CPU.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import statistics
import time
from typing import Dict, Iterator, List, Set, Tuple

#: mean probe time on the reference host, the 2-vCPU x86 VM above;
#: scaled timings read as if measured there
REFERENCE_S = 0.016
#: the least time between two probes taken by :meth:`HostSpeed.tick`
PROBE_EVERY_S = 0.5

_STATES = 9
_LAYERS = 60
_ENTRIES = 100


def _document() -> dict:
    """A plan-shaped document: per-layer entries of floats and strings."""
    return {
        "schema": "probe/v1",
        "levels": [
            {"level": level,
             "entries": [{"layer": f"conv{index}", "type": index % 3,
                          "alpha": index / _ENTRIES + level,
                          "cost": [index * 1.25e-6, level * 3.5e-3, 0.5],
                          "shape": [64, 3 + index % 5, 224, 224]}
                         for index in range(_ENTRIES)]}
            for level in range(4)],
    }


def _search(edges: List[float]) -> float:
    """A layer-wise min-plus recurrence over tuples and dicts."""
    best = [0.0] * _STATES
    memo = {}
    for layer in range(_LAYERS):
        step = []
        for to in range(_STATES):
            cost = min(best[frm] + edges[(frm * _STATES + to + layer) % 81]
                       for frm in range(_STATES))
            memo[(layer, to)] = cost
            step.append(cost)
        best = step
    return min(best) + len(memo)


def placement() -> Tuple[Set[int], Set[int]]:
    """(server CPUs, client CPUs): one CPU each when the process may use
    two or more, so that the server's threads never migrate and the load
    generator never takes the server's CPU; else the one CPU for both."""
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, {cpus[-1]}


@contextlib.contextmanager
def pinned(cpus: Set[int]) -> Iterator[None]:
    """Run the calling thread, and what it spawns meanwhile, on ``cpus``."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


class HostSpeed:
    """Probe samples of one run, by phase (``"setup"``, ``"timed"``)."""

    def __init__(self, cpus: Set[int]) -> None:
        #: the probe runs where the server does, while the server idles
        self.cpus = cpus
        self._document = _document()
        self._edges = [((i * 7919) % 97) / 13.0 for i in range(81)]
        self.samples: Dict[str, List[float]] = {}
        #: wall time spent probing, which callers leave out of their timings
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def sample(self, phase: str) -> None:
        """Run the probe once and keep its duration.  The collector is
        off meanwhile, so the client's own heap does not add to it."""
        enabled = gc.isenabled()
        gc.disable()
        entered = time.perf_counter()
        try:
            with pinned(self.cpus):
                start = time.perf_counter()
                for _ in range(3):
                    _search(self._edges)
                text = json.dumps(self._document, indent=2)
                json.loads(text)
                hashlib.sha256(text.encode()).hexdigest()
                duration = time.perf_counter() - start
            self.samples.setdefault(phase, []).append(duration)
        finally:
            if enabled:
                gc.enable()
            self._last = time.perf_counter()
            self.spent_s += self._last - entered

    def tick(self, phase: str) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe; call it
        where no request is in flight."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample(phase)

    def slowdown(self, phase: str) -> float:
        """Mean probe time over the reference; above 1 on a slow host.

        The host switches between a fast and a slow mode every second or
        so, and a run takes the mix; the mean follows the mix smoothly,
        where a median would jump from one mode to the other.  The tenth
        of samples at either end is left out, so one preempted probe does
        not count.
        """
        samples = sorted(self.samples[phase])
        cut = len(samples) // 10
        return statistics.fmean(samples[cut:len(samples) - cut]) / REFERENCE_S
