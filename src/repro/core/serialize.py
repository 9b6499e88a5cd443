"""Plan serialization: persist and reload hierarchical partition plans.

A planning run is cheap for one model but a production deployment would
plan once and ship the decision to the runtime, so plans round-trip through
a plain-JSON document: the accelerator array, the model name and batch, and
the per-level plan entries.  Loading re-derives the pairing tree and sharded
stages deterministically and re-attaches the stored decisions.
:func:`plan_to_dict` builds that document; :func:`plan_to_json` writes it
as canonical JSON text (sorted keys, no whitespace) for plan files and
disk-cache entries.

Format version 2 stores each level as an *ordered* ``"entries"`` list of
typed records (``layer`` / ``join`` / ``exit``), mirroring the plan IR of
:mod:`repro.plan.ir` one-to-one.  Version-1 documents — a flat
``"assignments"`` dict whose fork/join decisions were encoded as magic
``@join:`` / ``@exit:`` key strings — are migrated on read, so every plan
file and disk-cache entry written by earlier releases keeps loading
bit-identically.  This module is the only place the v1 key convention
still exists, as migration shims.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..graph.network import Network
from ..ioutil import atomic_write_text
from ..hardware.accelerator import AcceleratorGroup, AcceleratorSpec
from ..hardware.cluster import bisection_tree
from ..models.registry import build_model
from ..plan.ir import (
    HierarchicalPlan,
    JoinAlignment,
    LayerAssignment,
    LevelPlan,
    PathExit,
    PlanEntry,
)
from .planner import PlannedExecution
from .stages import to_sharded_stages
from .types import PartitionType

FORMAT_VERSION = 2

#: versions this reader understands; v1 documents go through the
#: assignments-dict migration shim below
SUPPORTED_VERSIONS = (1, 2)

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


def _entry_to_dict(entry: PlanEntry) -> Dict:
    if isinstance(entry, LayerAssignment):
        return {"layer": entry.name, "type": entry.ptype.value,
                "alpha": entry.alpha}
    if isinstance(entry, JoinAlignment):
        return {"join": entry.stage, "state": entry.state.value,
                "alpha": entry.alpha}
    if isinstance(entry, PathExit):
        return {"exit": entry.stage, "path": entry.path_index,
                "state": entry.state.value, "alpha": entry.alpha}
    raise TypeError(f"not a plan entry: {entry!r}")  # pragma: no cover


def _ptype(value, context: str) -> PartitionType:
    try:
        return PartitionType(value)
    except ValueError:
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


def _plan_node_to_dict(plan: HierarchicalPlan) -> Optional[Dict]:
    if plan.level_plan is None:
        return None
    return {
        "cost": plan.level_plan.cost,
        "scheme": plan.level_plan.scheme,
        "entries": [_entry_to_dict(e) for e in plan.level_plan.entries],
        "left": _plan_node_to_dict(plan.left) if plan.left else None,
        "right": _plan_node_to_dict(plan.right) if plan.right else None,
    }


def _plan_node_from_dict(data: Optional[Dict], scheme: str,
                         version: int) -> HierarchicalPlan:
    if data is None:
        return HierarchicalPlan(level_plan=None, scheme=scheme)
    if version == 1:
        entries = _v1_entries(data["assignments"])
    else:
        entries = [_entry_from_dict(e) for e in data["entries"]]
    try:
        level = LevelPlan(entries, cost=data["cost"], scheme=data["scheme"])
    except ValueError as exc:  # duplicate entries in a hand-edited document
        raise PlanFormatError(str(exc)) from None
    return HierarchicalPlan(
        level_plan=level,
        left=_plan_node_from_dict(data.get("left"), scheme, version),
        right=_plan_node_from_dict(data.get("right"), scheme, version),
        scheme=scheme,
    )


def _plan_node_json(plan: Optional[HierarchicalPlan],
                    memo: Dict[int, str]) -> str:
    """:func:`_plan_node_to_dict` as canonical JSON text.

    ``memo`` maps ``id(node)`` to the node's text, so a subtree object the
    planner shares between several parents is encoded once and repeated.
    Ids are stable because the tree keeps every node alive for the call.
    """
    if plan is None or plan.level_plan is None:
        return "null"
    text = memo.get(id(plan))
    if text is None:
        level = plan.level_plan
        entries = [_entry_to_dict(e) for e in level.entries]
        # keys in sorted order: cost, entries, left, right, scheme
        text = memo[id(plan)] = (
            f'{{"cost":{_canonical(level.cost)},'
            f'"entries":{_canonical(entries)},'
            f'"left":{_plan_node_json(plan.left, memo)},'
            f'"right":{_plan_node_json(plan.right, memo)},'
            f'"scheme":{_canonical(level.scheme)}}}'
        )
    return text


def _document_head(planned: PlannedExecution) -> Dict:
    """Every top-level field of the v2 document except the plan tree."""
    return {
        "format_version": FORMAT_VERSION,
        "network": planned.network_name,
        "batch": planned.batch,
        "scheme": planned.scheme,
        "dtype_bytes": planned.dtype_bytes,
        "levels": planned.hierarchy_levels(),
        "array": [_spec_to_dict(m) for m in planned.tree.group.members],
    }


def plan_to_dict(planned: PlannedExecution) -> Dict:
    """Serialize a planned execution to a JSON-compatible document (v2)."""
    return {**_document_head(planned), "plan": _plan_node_to_dict(planned.plan)}


def plan_to_json(planned: PlannedExecution, **extra) -> str:
    """Serialize a planned execution to canonical JSON text (v2).

    The text is byte-equal to ``json.dumps({**plan_to_dict(planned),
    **extra}, sort_keys=True, separators=(",", ":"))``: sorted keys, no
    whitespace.  It is built without that document, though: the planner
    shares one subtree object between symmetric halves of the pairing tree
    (a 128-board resnet50 plan has 127 nodes but 13 distinct subtrees), and
    each distinct subtree is encoded once.  ``extra`` adds top-level keys,
    such as the disk cache's ``fingerprint``.
    """
    fields = {key: _canonical(value)
              for key, value in {**_document_head(planned), **extra}.items()}
    if "plan" not in fields:
        fields["plan"] = _plan_node_json(planned.plan, {})
    return "{" + ",".join(
        f"{_canonical(key)}:{fields[key]}" for key in sorted(fields)) + "}"


def plan_from_dict(
    data: Dict,
    network_builder: Optional[Callable[[str], Network]] = None,
) -> PlannedExecution:
    """Reconstruct a planned execution from :func:`plan_to_dict` output.

    Accepts both current (v2) documents and v1 documents, which are migrated
    transparently.  ``network_builder`` resolves the stored model name; it
    defaults to the model-zoo registry, so custom models must be registered
    (or passed via a custom builder) before loading.  A document of the
    wrong shape (not an object, a field missing or of the wrong type)
    raises :class:`PlanFormatError`.
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
    try:
        network = (network_builder or build_model)(name)
    except KeyError as exc:  # a model this build does not know
        raise PlanFormatError(exc.args[0] if exc.args else repr(exc)) from None

    try:
        array = AcceleratorGroup(
            tuple(_spec_from_dict(s) for s in data["array"]))
        tree = bisection_tree(array, data["levels"])
        batch = data["batch"]
        stages = to_sharded_stages(network.stages(batch))
        scheme = data["scheme"]
        plan = _plan_node_from_dict(data["plan"], scheme, version)
        dtype_bytes = data["dtype_bytes"]
    except (KeyError, TypeError, AttributeError) as exc:
        # a missing field or one of the wrong shape: a null array, a string
        # where a plan node belongs, ...
        raise PlanFormatError(f"malformed plan document: {exc!r}") from None

    if plan.depth() != tree.depth():
        raise PlanFormatError(
            f"stored plan depth {plan.depth()} does not match the rebuilt "
            f"pairing tree depth {tree.depth()}"
        )

    return PlannedExecution(
        network_name=name,
        batch=batch,
        scheme=scheme,
        tree=tree,
        stages=stages,
        plan=plan,
        dtype_bytes=dtype_bytes,
    )


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
    except ValueError as exc:  # not JSON, or not text
        raise PlanFormatError(f"{path} is not a JSON document: {exc}") from None
    return plan_from_dict(data, network_builder)
