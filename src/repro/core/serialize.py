"""Plan serialization: persist and reload hierarchical partition plans.

A planning run is cheap for one model but a production deployment would
plan once and ship the decision to the runtime, so plans round-trip through
a plain-JSON document: the accelerator array, the model name and batch, and
the per-level plan entries.  Loading re-derives the pairing tree
deterministically and re-attaches the stored decisions; the sharded stages
are built from the model and batch only when something reads them (a cache
hit that is only answered never does).
:func:`plan_to_dict` builds that document; :func:`plan_to_json` writes it
as canonical JSON text (sorted keys, no whitespace) for plan files and
disk-cache entries.

Format version 3 stores the plan tree as a flat ``"nodes"`` list holding
each distinct subtree once, in post-order, with children named by the
index of an earlier node; ``"plan"`` is the root's index.  The planner
shares one subtree object between the symmetric halves of the pairing
tree (a 256-board plan has 255 nodes but about 15 distinct subtrees), so
a reader builds each of them once and the loaded plan shares subtrees as
the planned one did.  ``"array"`` is a list of ``[spec, count]`` runs of
consecutive equal member specs.  Each node's ``"entries"`` is the ordered
list of typed records (``layer`` / ``join`` / ``exit``) of
:mod:`repro.plan.ir`.

Versions 1 and 2 are still read.  Version 2 nests each node's children
inside it and lists every member spec.  Version-1 documents — a flat
``"assignments"`` dict whose fork/join decisions were encoded as magic
``@join:`` / ``@exit:`` key strings — are migrated on read, so every plan
file and disk-cache entry written by earlier releases keeps loading
bit-identically.  This module is the only place the v1 key convention
still exists, as migration shims.
"""

from __future__ import annotations

import json
from itertools import groupby
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..graph.network import Network
from ..ioutil import atomic_write_text
from ..hardware.accelerator import AcceleratorGroup, AcceleratorSpec
from ..hardware.cluster import bisection_tree
from ..hardware.presets import group_from_runs
from ..models.registry import model_builder
from ..plan.ir import (
    HierarchicalPlan,
    JoinAlignment,
    LayerAssignment,
    LevelPlan,
    PathExit,
    PlanEntry,
)
from .planner import PlannedExecution
from .types import PartitionType

FORMAT_VERSION = 3

#: versions this reader understands; v1 documents go through the
#: assignments-dict migration shim below
SUPPORTED_VERSIONS = (1, 2, 3)

#: the canonical encoding: ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))``, without building an encoder per call
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# v1's synthetic-key encoding of fork/join decisions, kept only for migration
_V1_JOIN_PREFIX = "@join:"
_V1_EXIT_PREFIX = "@exit:"


class PlanFormatError(ValueError):
    """Raised when a plan document cannot be understood by this reader.

    Distinguishes schema problems (wrong version, missing fields, invalid
    ratios) from the semantic validation errors raised further down the load
    path, so callers like the disk cache tier can treat unreadable documents
    as misses rather than crashes.
    """


#: the AcceleratorSpec constructor arguments this reader understands; any
#: other key in a stored spec comes from a future schema and is ignored
_SPEC_FIELDS = (
    "name", "flops", "memory_bytes", "memory_bandwidth", "network_bandwidth",
)


def _spec_to_dict(spec: AcceleratorSpec) -> Dict:
    return {
        "name": spec.name,
        "flops": spec.flops,
        "memory_bytes": spec.memory_bytes,
        "memory_bandwidth": spec.memory_bandwidth,
        "network_bandwidth": spec.network_bandwidth,
    }


def _spec_from_dict(data: Dict) -> AcceleratorSpec:
    missing = [f for f in _SPEC_FIELDS if f not in data]
    if missing:
        raise PlanFormatError(
            f"accelerator spec document is missing fields {missing}"
        )
    # keep only the known fields: documents written by a future schema may
    # carry extra keys, and the disk cache tier must stay readable across it
    return AcceleratorSpec(**{f: data[f] for f in _SPEC_FIELDS})


#: every partition type by its stored value, and back: a dict read here,
#: where ``Enum.value`` is a Python-level property run once per entry
_PTYPES: Dict[str, PartitionType] = {ptype.value: ptype
                                     for ptype in PartitionType}
_VALUES: Dict[PartitionType, str] = {ptype: value
                                     for value, ptype in _PTYPES.items()}


def _entry_to_dict(entry: PlanEntry) -> Dict:
    if isinstance(entry, LayerAssignment):
        return {"layer": entry.name, "type": _VALUES[entry.ptype],
                "alpha": entry.alpha}
    if isinstance(entry, JoinAlignment):
        return {"join": entry.stage, "state": _VALUES[entry.state],
                "alpha": entry.alpha}
    if isinstance(entry, PathExit):
        return {"exit": entry.stage, "path": entry.path_index,
                "state": _VALUES[entry.state], "alpha": entry.alpha}
    raise TypeError(f"not a plan entry: {entry!r}")  # pragma: no cover


def _ptype(value, context: str) -> PartitionType:
    try:
        return _PTYPES[value]
    except (KeyError, TypeError):  # TypeError: an unhashable list or object
        raise PlanFormatError(
            f"{context}: unknown partition type {value!r}"
        ) from None


def _alpha(value, context: str) -> float:
    if not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
        raise PlanFormatError(
            f"{context}: ratio {value!r} outside the open interval (0, 1)"
        )
    return float(value)


def _entry_from_dict(data: Dict) -> PlanEntry:
    try:
        if "layer" in data:
            name = data["layer"]
            return LayerAssignment(
                name,
                _ptype(data["type"], f"layer {name!r}"),
                _alpha(data["alpha"], f"layer {name!r}"),
            )
        if "join" in data:
            stage = data["join"]
            return JoinAlignment(
                stage,
                _ptype(data["state"], f"join {stage!r}"),
                _alpha(data["alpha"], f"join {stage!r}"),
            )
        if "exit" in data:
            stage = data["exit"]
            return PathExit(
                stage,
                int(data["path"]),
                _ptype(data["state"], f"exit {stage!r}"),
                _alpha(data["alpha"], f"exit {stage!r}"),
            )
    except KeyError as exc:
        raise PlanFormatError(
            f"plan entry {data!r} is missing field {exc}"
        ) from None
    raise PlanFormatError(
        f"plan entry {data!r} has none of the discriminator keys "
        f"'layer' / 'join' / 'exit'"
    )


def _v1_entries(assignments: Dict[str, Dict]) -> List[PlanEntry]:
    """Migrate a v1 flat assignments dict to ordered typed entries.

    v1 encoded fork/join decisions as synthetic keys: ``@join:<stage>`` for
    the join state and ``@exit:<stage>:<path>`` for per-path exit states.
    Stage names themselves contain ``@`` and ``:`` (forks are named like
    ``fork@stem_relu``), so the exit path index is split off the *right*.
    JSON objects preserve insertion order, which v1 writers emitted in entry
    order — migration keeps it.
    """
    entries: List[PlanEntry] = []
    for key, record in assignments.items():
        ptype = _ptype(record["type"], f"v1 assignment {key!r}")
        alpha = _alpha(record["ratio"], f"v1 assignment {key!r}")
        if key.startswith(_V1_JOIN_PREFIX):
            entries.append(
                JoinAlignment(key[len(_V1_JOIN_PREFIX):], ptype, alpha)
            )
        elif key.startswith(_V1_EXIT_PREFIX):
            rest = key[len(_V1_EXIT_PREFIX):]
            stage, _, index = rest.rpartition(":")
            if not stage or not index.isdigit():
                raise PlanFormatError(
                    f"malformed v1 path-exit key {key!r}"
                )
            entries.append(PathExit(stage, int(index), ptype, alpha))
        else:
            entries.append(LayerAssignment(key, ptype, alpha))
    return entries


def _level_from_dict(data: Dict, version: int) -> LevelPlan:
    """One stored node's level plan (any version's node record)."""
    if version == 1:
        entries = _v1_entries(data["assignments"])
    else:
        entries = [_entry_from_dict(e) for e in data["entries"]]
    try:
        return LevelPlan(entries, cost=data["cost"], scheme=data["scheme"])
    except ValueError as exc:  # duplicate entries in a hand-edited document
        raise PlanFormatError(str(exc)) from None


def _nested_plan_from_dict(data: Optional[Dict], scheme: str, version: int,
                           depth_left: int) -> HierarchicalPlan:
    """A v1 or v2 plan tree, whose nodes nest their children.

    ``depth_left`` bounds the recursion by the pairing tree's depth, so a
    document nested deeper than any plan can be is refused, not recursed.
    """
    if data is None:
        return HierarchicalPlan(level_plan=None, scheme=scheme)
    if depth_left == 0:
        raise PlanFormatError(
            "stored plan is nested deeper than the rebuilt pairing tree depth"
        )
    return HierarchicalPlan(
        level_plan=_level_from_dict(data, version),
        left=_nested_plan_from_dict(data.get("left"), scheme, version,
                                    depth_left - 1),
        right=_nested_plan_from_dict(data.get("right"), scheme, version,
                                     depth_left - 1),
        scheme=scheme,
    )


def _node_index(plan: Optional[HierarchicalPlan], nodes: List[Dict],
                index: Dict[int, int]) -> Optional[int]:
    """Append ``plan``'s distinct subtrees to ``nodes`` in post-order.

    Returns the position of ``plan``'s own record, or ``None`` for a leaf.
    ``index`` maps ``id(node)`` to its position, so a subtree object the
    planner shares between several parents is stored once; ids are stable
    because the tree keeps every node alive for the call.
    """
    if plan is None or plan.level_plan is None:
        return None
    at = index.get(id(plan))
    if at is None:
        left = _node_index(plan.left, nodes, index)
        right = _node_index(plan.right, nodes, index)
        level = plan.level_plan
        nodes.append({
            "cost": level.cost,
            "entries": [_entry_to_dict(e) for e in level.entries],
            "left": left,
            "right": right,
            "scheme": level.scheme,
        })
        at = index[id(plan)] = len(nodes) - 1
    return at


def _root_depth(nodes: Sequence[Dict], root) -> int:
    """Check a v3 node list's child and root indices; the root's depth.

    Every child index must name an earlier node, so the list is in
    post-order, holds no cycle, and each node can be built from nodes
    already built.  Nothing is built here.
    """
    depths: List[int] = []
    for position, node in enumerate(nodes):
        depth = 0
        for child in (node["left"], node["right"]):
            if child is None:
                continue
            if type(child) is not int or not 0 <= child < position:
                raise PlanFormatError(
                    f"plan node {position}: child {child!r} is not the index "
                    f"of an earlier node"
                )
            depth = max(depth, depths[child])
        depths.append(depth + 1)
    if root is None:
        return 0
    if type(root) is not int or not 0 <= root < len(depths):
        raise PlanFormatError(
            f"plan root {root!r} is not an index into the "
            f"{len(depths)}-node list"
        )
    return depths[root]


def _plan_from_nodes(nodes: Sequence[Dict], root: Optional[int],
                     scheme: str) -> HierarchicalPlan:
    """A v3 plan tree, each node built once from already-built children.

    The indices must have passed :func:`_root_depth`.
    """
    leaf = HierarchicalPlan(level_plan=None, scheme=scheme)
    built: List[HierarchicalPlan] = []
    for node in nodes:
        left, right = node["left"], node["right"]
        built.append(HierarchicalPlan(
            level_plan=_level_from_dict(node, 3),
            left=leaf if left is None else built[left],
            right=leaf if right is None else built[right],
            scheme=scheme,
        ))
    return leaf if root is None else built[root]


def _array_runs(members: Sequence[AcceleratorSpec]) -> List[List]:
    """The array as ``[spec, count]`` runs of consecutive equal specs."""
    return [[_spec_to_dict(spec), sum(1 for _ in run)]
            for spec, run in groupby(members)]


def _group_from_runs(runs) -> AcceleratorGroup:
    """A v3 ``array``: one spec is read per run, and every run count is
    checked before a member is built, so a short document cannot make a
    reader build a huge array."""
    specs = []
    for run in runs:
        if not isinstance(run, list) or len(run) != 2:
            raise PlanFormatError(f"array run {run!r} is not [spec, count]")
        specs.append((_spec_from_dict(run[0]), run[1]))
    try:
        return group_from_runs(specs)
    except ValueError as exc:
        raise PlanFormatError(f"array runs: {exc}") from None


def plan_to_dict(planned: PlannedExecution) -> Dict:
    """Serialize a planned execution to a JSON-compatible document (v3)."""
    nodes: List[Dict] = []
    root = _node_index(planned.plan, nodes, {})
    return {
        "format_version": FORMAT_VERSION,
        "network": planned.network_name,
        "batch": planned.batch,
        "scheme": planned.scheme,
        "dtype_bytes": planned.dtype_bytes,
        "levels": planned.hierarchy_levels(),
        "array": _array_runs(planned.tree.group.members),
        "nodes": nodes,
        "plan": root,
    }


def plan_to_json(planned: PlannedExecution, **extra) -> str:
    """Serialize a planned execution to canonical JSON text (v3).

    The text is ``json.dumps({**plan_to_dict(planned), **extra},
    sort_keys=True, separators=(",", ":"))``: sorted keys, no whitespace.
    ``extra`` adds top-level keys, such as the disk cache's
    ``fingerprint``.
    """
    return _canonical({**plan_to_dict(planned), **extra})


def plan_from_dict(
    data: Dict,
    network_builder: Optional[Callable[[str], Network]] = None,
) -> PlannedExecution:
    """Reconstruct a planned execution from :func:`plan_to_dict` output.

    Accepts current (v3) documents and the v2 and v1 documents earlier
    releases wrote; v1 is migrated transparently.  The stored model name
    must resolve, in the model-zoo registry by default (so custom models
    must be registered before loading) or through ``network_builder``,
    which is called here.  No model is built from the registry and no
    stages are built: the loaded plan builds its ``stages`` from its model
    and batch the first time they are read.  A document of the wrong shape
    (not an object, a field missing or of the wrong type, a ``batch`` or
    ``dtype_bytes`` that is not a positive integer, an array run or node
    index out of range) raises :class:`PlanFormatError`.
    """
    if not isinstance(data, dict):
        raise PlanFormatError(
            f"a plan document is a JSON object, not {type(data).__name__}"
        )
    version = data.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise PlanFormatError(
            f"unsupported plan format version {version!r} (expected one of "
            f"{SUPPORTED_VERSIONS}); re-plan with this version of the "
            f"library or load with a matching reader"
        )
    name = data.get("network")
    if not isinstance(name, str):
        raise PlanFormatError(f"plan document names no model: {name!r}")
    network = None
    try:
        if network_builder is None:
            model_builder(name)  # the name resolves; nothing is built
        else:
            network = network_builder(name)
    except KeyError as exc:  # a model this build does not know
        raise PlanFormatError(exc.args[0] if exc.args else repr(exc)) from None

    try:
        scheme = data["scheme"]
        if version == 3:
            # every count and index is checked before anything is built
            group = _group_from_runs(data["array"])
            depth = _root_depth(data["nodes"], data["plan"])
        else:
            group = AcceleratorGroup(
                tuple(_spec_from_dict(s) for s in data["array"]))
        tree = bisection_tree(group, data["levels"])
        if version != 3:
            plan = _nested_plan_from_dict(data["plan"], scheme, version,
                                          tree.depth())
            depth = plan.depth()
        if depth != tree.depth():
            raise PlanFormatError(
                f"stored plan depth {depth} does not match the rebuilt "
                f"pairing tree depth {tree.depth()}"
            )
        if version == 3:
            plan = _plan_from_nodes(data["nodes"], data["plan"], scheme)
        batch, dtype_bytes = data["batch"], data["dtype_bytes"]
        # checked here: the stages and costs that would refuse them are
        # built later, if ever
        for field, value in (("batch", batch), ("dtype_bytes", dtype_bytes)):
            if type(value) is not int or value <= 0:
                raise PlanFormatError(
                    f"plan {field} {value!r} is not a positive integer")
    except (KeyError, TypeError, AttributeError) as exc:
        # a missing field or one of the wrong shape: a null array, a string
        # where a plan node belongs, ...
        raise PlanFormatError(f"malformed plan document: {exc!r}") from None

    planned = PlannedExecution(
        network_name=name,
        batch=batch,
        scheme=scheme,
        tree=tree,
        stages=None,
        plan=plan,
        dtype_bytes=dtype_bytes,
    )
    if network is not None:  # a caller's builder: its model makes the stages
        planned._network = network
    return planned


def save_plan(planned: PlannedExecution, path) -> None:
    """Atomically write a plan to a file as canonical JSON."""
    atomic_write_text(path, plan_to_json(planned))


def load_plan(path, network_builder=None) -> PlannedExecution:
    """Read a plan from a JSON file; an unreadable file raises
    :class:`PlanFormatError`, as a malformed document does."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise PlanFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    # not JSON, not text, or nested deeper than the parser recurses
    except (ValueError, RecursionError) as exc:
        raise PlanFormatError(f"{path} is not a JSON document: {exc}") from None
    return plan_from_dict(data, network_builder)
