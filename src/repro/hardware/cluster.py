"""Hierarchical bisection of an accelerator array into a pairing tree.

The recursive partitioning of Section 5.1 works on two parties at a time: an
array of accelerators is bisected ``h`` times (the *hierarchy level* of
Section 6.4), and the two-group tensor-partitioning problem is solved at
every internal node of the resulting tree.

Split policy (heterogeneity-aware): members are sorted by descending compute
density; if the group mixes accelerator types, the split lands on the type
boundary closest to the midpoint, so a 128+128 TPU-v2/TPU-v3 array first
separates into a pure-v2 and a pure-v3 group — the only level where the
Eq. 10 ratio solver departs from 1/2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .accelerator import AcceleratorGroup, AcceleratorSpec
from .profile import HardwareProfile


@dataclass
class GroupNode:
    """One node of the pairing tree."""

    group: AcceleratorGroup
    left: Optional["GroupNode"] = None
    right: Optional["GroupNode"] = None
    level: int = 0  # root is level 0; its split is hierarchy level 1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise ValueError("GroupNode must have either zero or two children")

    def depth(self) -> int:
        """Number of split levels below this node.

        Cached after the first call: the pairing tree is fully built by
        :func:`bisection_tree` before anyone asks for depths, and the
        hierarchy planner asks at every internal node.
        """
        cached = self.__dict__.get("_depth")
        if cached is None:
            if self.is_leaf:
                cached = 0
            else:
                assert self.left is not None and self.right is not None
                cached = 1 + max(self.left.depth(), self.right.depth())
            self.__dict__["_depth"] = cached
        return cached

    def internal_nodes(self) -> Iterator["GroupNode"]:
        if not self.is_leaf:
            yield self
            assert self.left is not None and self.right is not None
            yield from self.left.internal_nodes()
            yield from self.right.internal_nodes()

    def leaves(self) -> Iterator["GroupNode"]:
        if self.is_leaf:
            yield self
        else:
            assert self.left is not None and self.right is not None
            yield from self.left.leaves()
            yield from self.right.leaves()


def _split_members(
    members: Tuple[AcceleratorSpec, ...],
) -> Tuple[Tuple[AcceleratorSpec, ...], Tuple[AcceleratorSpec, ...]]:
    """Split a sorted member tuple into two non-empty halves."""
    n = len(members)
    mid = n // 2
    # candidate boundaries where the accelerator type changes
    boundaries = [i for i in range(1, n) if members[i - 1].name != members[i].name]
    if boundaries:
        cut = min(boundaries, key=lambda i: abs(i - mid))
    else:
        cut = mid
    return members[:cut], members[cut:]


def _split_interleaved(
    members: Tuple[AcceleratorSpec, ...],
) -> Tuple[Tuple[AcceleratorSpec, ...], Tuple[AcceleratorSpec, ...]]:
    """Heterogeneity-UNAWARE split: each half gets an even mix of types.

    Used by the grouping ablation: mixing types in every subgroup denies the
    ratio solver a clean fast-vs-slow boundary and models a naive placement.
    """
    return members[0::2], members[1::2]

#: available split policies for :func:`bisection_tree`
SPLIT_POLICIES = {
    "type-separated": _split_members,
    "interleaved": _split_interleaved,
}

#: pairing trees (and depths) kept per process, least recently used out.
#: A tree is a pure function of (sorted members, levels, policy), and
#: AcceleratorSpec is a frozen value type, so identical arrays built at
#: different times share one tree; it is read-only after construction
#: (planners only traverse it and memoize depths).  The members come from
#: outside input (a request's or a plan document's array), so the caches
#: evict; no workload uses more than a handful of arrays.
TREE_CACHE_SIZE = 64

#: pairing trees one group keeps for itself (:func:`bisection_tree`), one
#: per (levels, policy, profile) asked of it; past this many, a lookup
#: goes to the shared cache without keeping its answer
GROUP_TREES = 16


def _group_cache(array: AcceleratorGroup) -> dict:
    """The trees and depth already looked up for ``array``, kept on it.

    A group is frozen and shared per array text
    (:func:`repro.hardware.presets.group_from_runs`), so a repeat request
    answers here, without sorting the members or hashing their tuple for
    the shared caches.  Stored like the group's cached digest.
    """
    return array.__dict__.setdefault("_pairing", {})


def _member_order_key(profile: Optional[HardwareProfile]):
    """Sort key: descending *effective* compute density, name-stable.

    With no profile (or the analytic one) the key is the historical
    ``(-peak flops, name)``; a calibrated profile sorts by its per-spec
    effective default rate instead, so the pairing tree's fast/slow
    boundary reflects measured throughput.
    """
    if profile is None or getattr(profile, "is_analytic", False):
        return lambda m: (-m.flops, m.name)
    return lambda m: (-profile.spec_compute_rate(m), m.name)


def bisection_tree(array: AcceleratorGroup, levels: int,
                   policy: str = "type-separated",
                   profile: Optional[HardwareProfile] = None) -> GroupNode:
    """Build the pairing tree for ``levels`` hierarchy levels.

    A branch stops splitting early once it reaches a single accelerator, so
    requesting more levels than ``log2(len(array))`` saturates rather than
    failing — matching the flattening tail of Figure 8.

    ``policy`` selects how heterogeneous groups are halved:
    ``"type-separated"`` (default — the paper's implicit choice: v2 and v3
    part ways at the first split) or ``"interleaved"`` (the
    heterogeneity-unaware ablation).  ``profile`` (when calibrated) orders
    members by measured rather than peak compute density before splitting.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    if policy not in SPLIT_POLICIES:
        raise ValueError(
            f"unknown split policy {policy!r}; available: {sorted(SPLIT_POLICIES)}"
        )
    if getattr(profile, "is_analytic", False):
        profile = None  # the same member order, so the same tree
    cache = _group_cache(array)
    key = (levels, policy, profile)
    tree = cache.get(key)
    if tree is None:
        ordered = tuple(sorted(array.members, key=_member_order_key(profile)))
        tree = _tree(ordered, levels, policy)
        if len(cache) < GROUP_TREES:
            cache[key] = tree
    return tree


@functools.lru_cache(maxsize=TREE_CACHE_SIZE)
def _tree(ordered: Tuple[AcceleratorSpec, ...], levels: int,
          policy: str) -> GroupNode:
    split = SPLIT_POLICIES[policy]

    def build(members: Tuple[AcceleratorSpec, ...], level: int) -> GroupNode:
        node = GroupNode(group=AcceleratorGroup(members), level=level)
        if level < levels and len(members) > 1:
            left_members, right_members = split(members)
            node.left = build(left_members, level + 1)
            node.right = build(right_members, level + 1)
        return node

    return build(ordered, 0)


def max_hierarchy_levels(array: AcceleratorGroup) -> int:
    """Deepest possible pairing tree for this array.

    Recurses over member tuples only — building the full node/group tree
    just to measure its depth costs O(n²) group constructions for an
    n-accelerator array.  Kept on the group after the first call.
    """
    cache = _group_cache(array)
    depth = cache.get("depth")
    if depth is None:
        depth = cache["depth"] = _depth(
            tuple(sorted(array.members, key=lambda m: (-m.flops, m.name))))
    return depth


@functools.lru_cache(maxsize=TREE_CACHE_SIZE)
def _depth(ordered: Tuple[AcceleratorSpec, ...]) -> int:
    split = SPLIT_POLICIES["type-separated"]

    def depth_of(members: Tuple[AcceleratorSpec, ...]) -> int:
        if len(members) <= 1:
            return 0
        left, right = split(members)
        return 1 + max(depth_of(left), depth_of(right))

    return depth_of(ordered)


def describe_tree(root: GroupNode, max_depth: int = 3) -> str:
    """Compact textual rendering of the top of the pairing tree."""
    lines: List[str] = []

    def visit(node: GroupNode, indent: int) -> None:
        if indent > max_depth:
            return
        lines.append("  " * indent + str(node.group))
        if not node.is_leaf:
            assert node.left is not None and node.right is not None
            visit(node.left, indent + 1)
            visit(node.right, indent + 1)

    visit(root, 0)
    return "\n".join(lines)
