"""repro.plan — the typed plan IR and pluggable search backends.

This package is the single source of truth for what a partitioning *plan*
is.  AccPar's output (Section 5.1, Eq. 9) is a per-layer partition type and
ratio, plus the fork/join alignment decisions of Section 5.2; here those are
first-class typed entries instead of a stringly-keyed dict:

* :class:`LayerAssignment` — one weighted layer's type and ratio α;
* :class:`JoinAlignment` — the partition state chosen for a fork/join
  boundary tensor;
* :class:`PathExit` — the pre-alignment exit state of one path of a
  fork/join region (so the simulator replays exactly the re-alignments the
  search costed).

:class:`LevelPlan` holds one hierarchy level's ordered entries with typed
lookup helpers; :class:`HierarchicalPlan` is the per-pairing-tree-node plan;
:class:`SearchResult` is what every search backend returns.

Search algorithms plug in behind the :class:`SearchBackend` protocol and the
:func:`get_backend` registry (``dp`` / ``greedy`` / ``brute-force`` /
``fixed-type``), selectable by name from the CLI (``--backend``) and
per-request in the plan service.

:mod:`repro.plan.validate` checks a plan against a network's structure and
:mod:`repro.plan.diff` computes structural differences between two plans.
"""

from .ir import (
    HierarchicalPlan,
    JoinAlignment,
    LayerAssignment,
    LayerPartition,
    LevelPlan,
    PathExit,
    PlanEntry,
    SearchResult,
)
from .backends import (
    BruteForceSearchBackend,
    DpSearchBackend,
    FixedTypeSearchBackend,
    GreedySearchBackend,
    SearchBackend,
    available_backends,
    canonical_backend_name,
    get_backend,
    register_backend,
)
from .validate import validate_level, validate_plan
from .diff import PlanDifference, plan_diff

__all__ = [
    "BruteForceSearchBackend",
    "DpSearchBackend",
    "FixedTypeSearchBackend",
    "GreedySearchBackend",
    "HierarchicalPlan",
    "JoinAlignment",
    "LayerAssignment",
    "LayerPartition",
    "LevelPlan",
    "PathExit",
    "PlanDifference",
    "PlanEntry",
    "SearchBackend",
    "SearchResult",
    "available_backends",
    "canonical_backend_name",
    "get_backend",
    "plan_diff",
    "register_backend",
    "validate_level",
    "validate_plan",
]
