"""Accelerator and accelerator-group hardware models.

The cost model (Section 4) needs two numbers per party: a compute density
``c_i`` (FLOP/s) and a network bandwidth ``b_i`` (bytes/s).  The simulator
additionally uses HBM capacity and memory bandwidth.  A *group* of
accelerators acts as a super-accelerator whose densities and bandwidths are
the sums of its members' — this is what makes the hierarchical (recursive)
partitioning of Section 5.1 compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from ..digest import stable_digest


@dataclass(frozen=True)
class AcceleratorSpec:
    """One accelerator board (Table 7 row).

    All rates are in base SI units: FLOP/s and bytes/s.
    """

    name: str
    flops: float               # c_i, peak FLOP/s
    memory_bytes: float        # HBM capacity
    memory_bandwidth: float    # HBM bytes/s
    network_bandwidth: float   # b_i, link bytes/s

    def __post_init__(self) -> None:
        for field_name in ("flops", "memory_bytes", "memory_bandwidth", "network_bandwidth"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive for {self.name!r}")

    def fingerprint(self) -> str:
        """Stable content hash over every field the cost model reads.

        Two specs with the same fingerprint are interchangeable for planning,
        so the plan-service cache keys on this rather than object identity.
        """
        return self._digest

    # computed once per instance (the fields are frozen); the presets are
    # module singletons, so every array built from them shares one digest
    @cached_property
    def _digest(self) -> str:
        return stable_digest(
            {
                "name": self.name,
                "flops": self.flops,
                "memory_bytes": self.memory_bytes,
                "memory_bandwidth": self.memory_bandwidth,
                "network_bandwidth": self.network_bandwidth,
            }
        )

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.flops / 1e12:.0f} TFLOPS, "
            f"{self.memory_bytes / 2**30:.0f} GiB HBM @ {self.memory_bandwidth / 1e9:.0f} GB/s, "
            f"net {self.network_bandwidth / 1e9:.2f} GB/s"
        )


@dataclass(frozen=True)
class AcceleratorGroup:
    """An ordered collection of accelerators acting as one party.

    Aggregation rule: a group's compute density and bandwidths are the sums
    over members.  This matches the paper's recursive treatment, where an
    "accelerator" in the two-party derivation may itself be a group.
    """

    members: Tuple[AcceleratorSpec, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("an AcceleratorGroup needs at least one member")

    # aggregates are over an immutable member tuple, so they are computed
    # once per group (cached_property stores into the instance __dict__,
    # which frozen dataclasses retain); the planner reads them per tree node
    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def flops(self) -> float:
        return sum(m.flops for m in self.members)

    @cached_property
    def memory_bytes(self) -> float:
        return sum(m.memory_bytes for m in self.members)

    @cached_property
    def memory_bandwidth(self) -> float:
        return sum(m.memory_bandwidth for m in self.members)

    @cached_property
    def network_bandwidth(self) -> float:
        return sum(m.network_bandwidth for m in self.members)

    @property
    def is_homogeneous(self) -> bool:
        return len({m.name for m in self.members}) == 1

    @cached_property
    def _signature(self) -> Tuple[Tuple[str, int], ...]:
        counts: dict = {}
        for m in self.members:
            counts[m.name] = counts.get(m.name, 0) + 1
        return tuple(sorted(counts.items()))

    def signature(self) -> Tuple[Tuple[str, int], ...]:
        """Hashable multiset of member type names, for display."""
        return self._signature

    @cached_property
    def _spec_runs(self) -> Tuple[Tuple[str, int], ...]:
        runs: list = []
        for spec in self.members:
            # ``is`` first: an array's boards are mostly one spec object
            if runs and (spec is runs[-1][0] or spec == runs[-1][0]):
                runs[-1][1] += 1
            else:
                runs.append([spec, 1])
        return tuple((spec.fingerprint(), count) for spec, count in runs)

    def spec_runs(self) -> Tuple[Tuple[str, int], ...]:
        """The members as runs of equal specs, each ``(spec digest, count)``.

        Two groups have equal runs exactly when they hold equal specs in
        the same order, whatever the specs are named; the hierarchy walk
        memoizes on it.  Computed once per group, and a string's hash is
        cached, so a lookup hashes no member.
        """
        return self._spec_runs

    def fingerprint(self) -> str:
        """Stable content hash of the ordered member list.

        Member *order* is included: :func:`~repro.hardware.cluster.bisection_tree`
        sorts members itself, but two groups with different orderings are
        still distinct request inputs, and hashing the order keeps the
        fingerprint a pure function of the constructor arguments.
        """
        return self._digest

    # computed once per group, like the spec digest; the array builders of
    # repro.hardware.presets share one group per array, so a repeat request
    # for a 256-board array reads this instead of hashing 256 members
    @cached_property
    def _digest(self) -> str:
        return stable_digest([m.fingerprint() for m in self.members])

    def __str__(self) -> str:
        parts = ", ".join(f"{n}x{c}" for n, c in self.signature())
        return f"Group[{parts}]"


def make_group(spec: AcceleratorSpec, count: int) -> AcceleratorGroup:
    """Convenience: a homogeneous group of ``count`` copies of ``spec``."""
    if count <= 0:
        raise ValueError("count must be positive")
    return AcceleratorGroup(tuple([spec] * count))


def merge_groups(*groups: AcceleratorGroup) -> AcceleratorGroup:
    members: list = []
    for g in groups:
        members.extend(g.members)
    return AcceleratorGroup(tuple(members))
