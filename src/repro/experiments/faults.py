"""Failure injection: stragglers and degraded links.

A production array degrades in place: a board throttles (thermal/ECC), a
link drops to a lower rate — but the physical topology, and therefore the
pairing tree, stays what it was.  These injectors rewrite board specs at
fixed leaf positions of an existing tree, and the experiment compares

* keeping the old plan on the degraded hardware (the stale plan), vs
* re-planning on the same tree with the scheme's machinery.

AccPar's Eq. 10 ratios shift work away from the straggler; equal-ratio
schemes re-plan to the same 1/2 splits and recover nothing — the paper's
heterogeneity story as a fault-tolerance story.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..baselines import get_scheme
from ..core.hierarchy import plan_tree
from ..core.planner import Planner
from ..hardware.accelerator import AcceleratorGroup, AcceleratorSpec
from ..hardware.cluster import GroupNode
from ..models.registry import build_model
from ..sim.executor import evaluate


def throttle_spec(spec: AcceleratorSpec, compute_factor: float,
                  network_factor: float) -> AcceleratorSpec:
    """A degraded copy of one board's spec (memory untouched)."""
    if not 0 < compute_factor <= 1.0 or not 0 < network_factor <= 1.0:
        raise ValueError("degradation factors must be in (0, 1]")
    return AcceleratorSpec(
        name=f"{spec.name}-degraded",
        flops=spec.flops * compute_factor,
        memory_bytes=spec.memory_bytes,
        memory_bandwidth=spec.memory_bandwidth,
        network_bandwidth=spec.network_bandwidth * network_factor,
    )


def degrade_tree(
    tree: GroupNode,
    n_degraded: int,
    compute_factor: float = 0.5,
    network_factor: float = 1.0,
) -> GroupNode:
    """A structural copy of ``tree`` with its first ``n_degraded`` boards
    (leaf order) throttled in place.

    Structure preservation is the point: the plan trees of the healthy and
    degraded arrays stay interchangeable, modelling hardware that slowed
    down without being re-cabled.
    """
    total = tree.group.size
    if not 0 <= n_degraded <= total:
        raise ValueError(f"cannot degrade {n_degraded} of {total} boards")

    counter = {"next": 0}

    def degrade_members(
        members: Tuple[AcceleratorSpec, ...]
    ) -> Tuple[AcceleratorSpec, ...]:
        out: List[AcceleratorSpec] = []
        for member in members:
            idx = counter["next"]
            counter["next"] += 1
            if idx < n_degraded:
                out.append(throttle_spec(member, compute_factor, network_factor))
            else:
                out.append(member)
        return tuple(out)

    def rebuild(node: GroupNode) -> GroupNode:
        if node.is_leaf:
            return GroupNode(
                group=AcceleratorGroup(degrade_members(node.group.members)),
                level=node.level,
            )
        assert node.left is not None and node.right is not None
        left = rebuild(node.left)
        right = rebuild(node.right)
        return GroupNode(
            group=AcceleratorGroup(left.group.members + right.group.members),
            left=left,
            right=right,
            level=node.level,
        )

    return rebuild(tree)


@dataclass(frozen=True)
class StragglerOutcome:
    """Throughput under a straggler, per recovery strategy."""

    healthy_time: float        # original array, original plan
    stale_plan_time: float     # degraded array, the old (healthy) plan
    replanned_time: float      # degraded array, re-planned on the same tree
    scheme: str

    @property
    def recovery_gain(self) -> float:
        """How much re-planning recovers vs running the stale plan."""
        return self.stale_plan_time / self.replanned_time


def straggler_experiment(
    model: str,
    array: AcceleratorGroup,
    scheme: str = "accpar",
    n_degraded: int = 1,
    compute_factor: float = 0.5,
    network_factor: float = 1.0,
    batch: int = 512,
    levels: Optional[int] = None,
) -> StragglerOutcome:
    """Throttle boards in place, then compare stale-plan vs re-planned."""
    network = build_model(model)
    planner = Planner(array, get_scheme(scheme), levels=levels)
    healthy = planner.plan(network, batch)
    healthy_time = evaluate(healthy).total_time

    degraded_tree = degrade_tree(healthy.tree, n_degraded, compute_factor,
                                 network_factor)

    # the healthy plan on the degraded boards, then a plan made for them
    stale = replace(healthy, tree=degraded_tree)
    stale_time = evaluate(stale).total_time
    replanned = replace(stale, plan=plan_tree(
        degraded_tree, healthy.stages, get_scheme(scheme), healthy.dtype_bytes))
    replanned_time = evaluate(replanned).total_time

    return StragglerOutcome(
        healthy_time=healthy_time,
        stale_plan_time=stale_time,
        replanned_time=replanned_time,
        scheme=scheme,
    )
