"""Plan-serving subsystem: turn the one-shot planner into a service.

The AccPar planner is an offline optimizer — O(N·|T|²) per hierarchy level —
but its output is reused across many identical requests (same model, array
and knobs).  This package adds the serving layer the ROADMAP's
production-scale goal asks for:

* :class:`PlanRequest` / fingerprinting — content-addressed request keys;
* :class:`PlanCache` — in-memory LRU over an optional JSON disk tier;
* :class:`SingleFlight` — concurrent identical requests plan exactly once;
* :class:`PlanService` — worker pool, deadline fallback to the greedy
  search backend under the request's own scheme (``degraded=True``) with
  background refinement of the cache entry;
* :class:`MetricsRegistry` — counters and latency percentiles;
* :mod:`~repro.service.server` — the JSON-lines loop behind
  ``python -m repro serve`` / ``warm`` / ``service-stats``.

See docs/serving.md for the architecture and the fingerprint stability
contract.
"""

from .cache import CacheStats, PlanCache
from .fingerprint import REQUEST_SCHEMA_VERSION, PlanRequest
from ..obs.registry import Counter, LatencyHistogram, MetricsRegistry
from .server import serve_loop, warm_cache
from .service import PlanResponse, PlanService
from .singleflight import SingleFlight

__all__ = [
    "CacheStats",
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "PlanCache",
    "PlanRequest",
    "PlanResponse",
    "PlanService",
    "REQUEST_SCHEMA_VERSION",
    "SingleFlight",
    "serve_loop",
    "warm_cache",
]
