"""Plan verification: structural and feasibility checks on a planned run.

A plan produced by this library is correct by construction, but plans also
arrive from JSON (:mod:`repro.core.serialize`) or hand edits, so the
runtime-facing API re-checks everything before execution:

* every weighted layer has an assignment at every level, with a valid type
  and an interior ratio, and alignment entries reference real parallel
  stages (delegated to :func:`repro.plan.validate.validate_level`);
* the plan tree mirrors the pairing tree;
* the fully-sharded leaf workloads fit each leaf group's HBM (Table 7).
"""

from __future__ import annotations

import functools
from typing import List

from ..plan.validate import validate_level
from ..sim.memory import leaf_memory_report
from ..training.optimizers import SGD, OptimizerSpec
from .hierarchy import Step, stored_level, walk
from .planner import PlannedExecution


class PlanVerificationError(ValueError):
    """Raised by :func:`verify_planned` in strict mode."""


def verify_planned(
    planned: PlannedExecution,
    optimizer: OptimizerSpec = SGD,
    strict: bool = False,
) -> List[str]:
    """Check a planned execution; returns a list of issues (empty = ok).

    Issues name the plan node by its path from the root (``rootLR``); a
    subtree shared by several paths is checked once and reported on each.
    With ``strict=True`` the first batch of issues raises
    :class:`PlanVerificationError` instead.
    """
    skeleton = planned.stages.skeleton
    layer_names = set(skeleton.names)
    parallel_paths = {fork.name: len(fork.paths) for fork in skeleton.forks}

    @functools.lru_cache(maxsize=None)
    def check(step: Step) -> List[str]:
        """One step's issues, found once however many paths share it."""
        node, plan = step.node, step.plan
        found: List[str] = []
        if plan.level_plan is not None and not node.is_leaf:
            found += validate_level(plan.level_plan, layer_names, parallel_paths)
            if plan.left is None or plan.right is None:
                found.append("internal plan node missing children")
            return found
        if node.is_leaf != plan.is_leaf and layer_names:
            found.append("plan and pairing tree disagree about being a leaf")
        report = leaf_memory_report(step.stages, node.group,
                                    planned.dtype_bytes, optimizer)
        if not report.fits:
            found.append(
                f"leaf workload needs {report.total_bytes / 2**30:.2f} GiB "
                f"but {node.group} has {report.capacity_bytes / 2**30:.2f} GiB"
            )
        return found

    issues: List[str] = []
    pending = [(walk(planned.tree, planned.stages, stored_level, planned.plan),
                "root")]
    while pending:  # pre-order; the walk stops below leaves and bad levels
        step, path = pending.pop()
        issues.extend(f"{path}: {issue}" for issue in check(step))
        if step.left is not None and step.right is not None:
            pending += [(step.right, path + "R"), (step.left, path + "L")]

    if strict and issues:
        raise PlanVerificationError("; ".join(issues))
    return issues
