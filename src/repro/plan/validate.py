"""Plan-level structural validation.

A plan produced by this library is correct by construction, but plans also
arrive from JSON documents and hand edits, so consumers re-check before
trusting one:

* every weighted layer of the network is assigned exactly once per level
  (exactly-once is enforced structurally by :class:`~repro.plan.ir.LevelPlan`,
  so here "assigned" reduces to coverage plus no unknown names);
* alignment entries (:class:`~repro.plan.ir.JoinAlignment` /
  :class:`~repro.plan.ir.PathExit`) reference real fork/join stages, with
  path indices in range;
* every α lies strictly inside (0, 1).

:func:`validate_plan` walks a whole :class:`~repro.plan.ir.HierarchicalPlan`
against a network; :func:`validate_level` checks one level against a
pre-collected structure and is what :mod:`repro.core.verify` composes with
its pairing-tree and memory checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .ir import HierarchicalPlan, JoinAlignment, LevelPlan, PathExit


def collect_structure(stages: Iterable) -> Tuple[Set[str], Dict[str, int]]:
    """Layer names and fork/join arities of a stage list, fork-in-path deep.

    ``stages`` is a :class:`~repro.graph.network.Stage` list (from
    ``network.stages(batch)``): layer stages expose ``name``, parallel
    stages ``paths`` and ``name``.
    """
    layer_names: Set[str] = set()
    parallel_paths: Dict[str, int] = {}

    def walk(sub) -> None:
        for stage in sub:
            paths = getattr(stage, "paths", None)
            if paths is None:
                layer_names.add(stage.name)
            else:
                parallel_paths[stage.name] = len(paths)
                for path in paths:
                    walk(path)

    walk(stages)
    return layer_names, parallel_paths


def validate_level(
    level: LevelPlan,
    layer_names: Set[str],
    parallel_paths: Dict[str, int],
) -> List[str]:
    """Check one level's entries against the network structure."""
    issues: List[str] = []

    assigned = {a.name for a in level.layers()}
    missing = layer_names - assigned
    if missing:
        issues.append(f"layers without assignment: {sorted(missing)}")
    unknown = assigned - layer_names
    if unknown:
        issues.append(f"assignments for unknown layers {sorted(unknown)}")

    for entry in level.entries:
        if not 0.0 < entry.alpha < 1.0:
            issues.append(f"{entry} has alpha {entry.alpha} outside (0, 1)")
        if isinstance(entry, JoinAlignment):
            if entry.stage not in parallel_paths:
                issues.append(
                    f"join alignment references unknown fork/join stage "
                    f"{entry.stage!r}"
                )
        elif isinstance(entry, PathExit):
            n_paths = parallel_paths.get(entry.stage)
            if n_paths is None:
                issues.append(
                    f"path exit references unknown fork/join stage "
                    f"{entry.stage!r}"
                )
            elif not 0 <= entry.path_index < n_paths:
                issues.append(
                    f"path exit for stage {entry.stage!r} has path index "
                    f"{entry.path_index} outside [0, {n_paths})"
                )
    return issues


def validate_plan(plan: HierarchicalPlan, network, batch: int = 1) -> List[str]:
    """Check every level of a plan tree against a network's structure.

    Returns a list of human-readable issues (empty = valid).  ``network``
    is a :class:`~repro.graph.network.Network`; ``batch`` only scales
    shapes and does not affect the structure being checked.
    """
    layer_names, parallel_paths = collect_structure(network.stages(batch))

    return [f"{path}: {msg}" for path, node in plan.splits()
            for msg in validate_level(node.level_plan, layer_names,
                                      parallel_paths)]
