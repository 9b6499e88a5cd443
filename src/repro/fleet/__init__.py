"""Fleet serving: sharded, batched, deadline-aware plan service.

The single-process :mod:`repro.service` answers JSON-lines requests from one
process's cache.  This package is the horizontal layer on top of it, and
serves the same protocol: a fleet's JSON lines, on stdin or TCP, go through
the one decoder and line loop of :mod:`repro.service.server`, and every
shard answers with that module's op table.

* :mod:`~repro.fleet.wire` — versioned wire protocol **v2**
  (length-prefixed JSON frames over TCP, hello/negotiation, and the
  first-byte sniff that tells a JSON-lines client from a v2 one);
* :mod:`~repro.fleet.ring` — consistent-hash sharding of the
  content-addressed plan cache (virtual nodes, minimal movement on shard
  join/leave, deterministic across processes);
* :mod:`~repro.fleet.shard` — one :class:`~repro.service.service.PlanService`
  per shard behind a threaded TCP server, runnable in-process (tests) or as
  a separate OS process (production topology), plus the supervisor that
  starts/stops a set of them;
* :mod:`~repro.fleet.admission` — deadline-aware admission control: requests
  whose deadline cannot be met are shed immediately
  (``{"ok": false, "error": "shed"}``) instead of failing slowly, and the
  frontend degrades to the fallback backend under queue pressure;
* :mod:`~repro.fleet.frontend` — the asyncio frontend: batched plan API
  (many specs per request, fanned out concurrently), earliest-deadline-first
  dispatch queue, warm-cache replication to all peers, cross-shard stats and
  trace aggregation;
* :mod:`~repro.fleet.client` — the blocking client the CLI
  (``repro fleet-stats``, ``repro warm --port``) and tests drive;
* :mod:`~repro.fleet.retry` — the fleet-wide retry policy (exponential
  backoff, deterministic jitter, deadline-bounded) shared by the
  frontend's pools, the dispatcher's failover loop and the client;
* :mod:`~repro.fleet.health` — K-consecutive-failure health marking with
  ring membership consequences (an unhealthy shard leaves the ring, a
  recovered one rejoins at its old positions);
* :mod:`~repro.fleet.chaos` — the deterministic fault-injection harness
  (``serve --chaos``, one controller per shard): seeded frame
  drop/delay/corrupt plus scripted shard kill/freeze ops.

See docs/serving.md ("Fleet mode" and "Fault tolerance") for the topology
diagram, the wire protocol v2 spec, the shed/degrade semantics and the
failover/chaos story.
"""

from .admission import AdmissionController, Decision
from .chaos import ChaosController, ChaosSpec, ChaosSpecError
from .client import FleetClient
from .frontend import FleetFrontend
from .health import HealthMonitor, ShardHealth
from .retry import (DEFAULT_RETRY, NO_RETRY, RetryPolicy,
                    RetryPolicyError, run_with_retries)
from .ring import HashRing
from .shard import ShardHandle, ShardServer, ShardSupervisor
from .wire import (
    PROTOCOL_VERSION,
    FrameError,
    FrameTooLarge,
    hello_doc,
    read_frame,
    recv_frame,
    send_frame,
    write_frame,
)

__all__ = [
    "AdmissionController",
    "ChaosController",
    "ChaosSpec",
    "ChaosSpecError",
    "DEFAULT_RETRY",
    "Decision",
    "FleetClient",
    "FleetFrontend",
    "FrameError",
    "FrameTooLarge",
    "HashRing",
    "HealthMonitor",
    "NO_RETRY",
    "PROTOCOL_VERSION",
    "RetryPolicy",
    "RetryPolicyError",
    "ShardHandle",
    "ShardHealth",
    "ShardServer",
    "ShardSupervisor",
    "hello_doc",
    "read_frame",
    "recv_frame",
    "run_with_retries",
    "send_frame",
    "write_frame",
]
