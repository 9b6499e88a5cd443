"""The typed plan intermediate representation.

A plan entry is one of three variants:

* :class:`LayerAssignment` — the partition type and ratio α chosen for one
  weighted layer at one hierarchy level (Eq. 9 / Eq. 10);
* :class:`JoinAlignment` — the partition state chosen for the boundary
  tensor of a fork/join region (Section 5.2);
* :class:`PathExit` — the state one path's output tensor is in *before*
  re-alignment to the join state, recorded so consumers replay exactly the
  re-alignments the search costed.

:class:`LevelPlan` holds one level's ordered entry tuple and indexes it for
typed lookup — no consumer ever parses key strings.  Entry *order* is part
of the representation (it is the search's emission order and survives
serialization round-trips), which is why :class:`LevelPlan` keeps the tuple
alongside its indexes.

Entry constructors do not range-check α: plans arrive from JSON and hand
edits, and :mod:`repro.plan.validate` reports violations instead of
crashing mid-load.  :class:`LayerPartition` (the ratio-bearing decision
value consumers compute with) does validate, as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.types import ALL_TYPES, PartitionType


@dataclass(frozen=True)
class LayerPartition:
    """The decision for one layer at one hierarchy level.

    ``ratio`` is the share α of the *first* party (left child of the pairing
    tree node); the second party gets β = 1 - α.
    """

    ptype: PartitionType
    ratio: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must be in (0, 1), got {self.ratio}")

    def __str__(self) -> str:
        return f"{self.ptype} (α={self.ratio:.3f})"


@dataclass(frozen=True)
class LayerAssignment:
    """One weighted layer's partition decision at one hierarchy level."""

    name: str
    ptype: PartitionType
    alpha: float = 0.5

    @property
    def ratio(self) -> float:
        return self.alpha

    @property
    def partition(self) -> LayerPartition:
        return LayerPartition(self.ptype, self.alpha)

    def __str__(self) -> str:
        return f"{self.name}: {self.ptype} (α={self.alpha:.3f})"


@dataclass(frozen=True)
class JoinAlignment:
    """The partition state chosen for a fork/join boundary tensor.

    ``alpha`` is the nominal ratio the alignment transfer was costed at (the
    cost model's nominal α — alignments describe transfers, not tensor
    splits, so quantization passes them through unchanged).
    """

    stage: str
    state: PartitionType
    alpha: float = 0.5

    @property
    def partition(self) -> LayerPartition:
        return LayerPartition(self.state, self.alpha)

    def __str__(self) -> str:
        return f"join {self.stage}: {self.state}"


@dataclass(frozen=True)
class PathExit:
    """One path's pre-alignment exit state in a fork/join region."""

    stage: str
    path_index: int
    state: PartitionType
    alpha: float = 0.5

    @property
    def partition(self) -> LayerPartition:
        return LayerPartition(self.state, self.alpha)

    def __str__(self) -> str:
        return f"exit {self.stage}[{self.path_index}]: {self.state}"


PlanEntry = Union[LayerAssignment, JoinAlignment, PathExit]


class LevelPlan:
    """Per-layer assignments for one hierarchy level (one pairing-tree node).

    Construct from an iterable of :data:`PlanEntry`; the entries keep their
    order (the search's emission order) and are indexed for O(1) typed
    lookup.  Duplicate layer names, duplicate join stages, or duplicate
    (stage, path) exits are construction errors — a level assigns each
    decision exactly once.
    """

    __slots__ = ("entries", "cost", "scheme", "_layers", "_joins", "_exits")

    def __init__(self, entries: Iterable[PlanEntry] = (), cost: float = 0.0,
                 scheme: str = ""):
        self.entries: Tuple[PlanEntry, ...] = tuple(entries)
        self.cost = cost
        self.scheme = scheme
        layers: Dict[str, LayerAssignment] = {}
        joins: Dict[str, JoinAlignment] = {}
        exits: Dict[Tuple[str, int], PathExit] = {}
        for entry in self.entries:
            if isinstance(entry, LayerAssignment):
                if entry.name in layers:
                    raise ValueError(f"duplicate assignment for layer {entry.name!r}")
                layers[entry.name] = entry
            elif isinstance(entry, JoinAlignment):
                if entry.stage in joins:
                    raise ValueError(f"duplicate join alignment for stage {entry.stage!r}")
                joins[entry.stage] = entry
            elif isinstance(entry, PathExit):
                key = (entry.stage, entry.path_index)
                if key in exits:
                    raise ValueError(
                        f"duplicate path exit for stage {entry.stage!r} "
                        f"path {entry.path_index}"
                    )
                exits[key] = entry
            else:
                raise TypeError(f"not a plan entry: {entry!r}")
        self._layers = layers
        self._joins = joins
        self._exits = exits

    # -- typed iteration ------------------------------------------------
    def layers(self) -> Tuple[LayerAssignment, ...]:
        """The weighted-layer assignments, in entry order."""
        return tuple(e for e in self.entries if isinstance(e, LayerAssignment))

    def joins(self) -> Tuple[JoinAlignment, ...]:
        """The fork/join alignment entries, in entry order."""
        return tuple(e for e in self.entries if isinstance(e, JoinAlignment))

    def path_exits(self) -> Tuple[PathExit, ...]:
        """The per-path exit-state entries, in entry order."""
        return tuple(e for e in self.entries if isinstance(e, PathExit))

    # -- typed lookup ---------------------------------------------------
    def assignment(self, layer_name: str) -> LayerAssignment:
        return self._layers[layer_name]

    def partition(self, layer_name: str) -> LayerPartition:
        return self._layers[layer_name].partition

    def alignment_for(self, stage_name: str) -> Optional[JoinAlignment]:
        """The join alignment chosen for a fork/join stage, if any."""
        return self._joins.get(stage_name)

    def path_exit(self, stage_name: str, path_index: int) -> Optional[PathExit]:
        """One path's recorded pre-alignment exit state, if any."""
        return self._exits.get((stage_name, path_index))

    def alignments_for(self, stage_name: str) -> Tuple[PlanEntry, ...]:
        """Every alignment-related entry of one fork/join stage.

        The stage's :class:`PathExit` entries in path order, then its
        :class:`JoinAlignment` (when recorded).
        """
        out: List[PlanEntry] = sorted(
            (e for e in self._exits.values() if e.stage == stage_name),
            key=lambda e: e.path_index,
        )
        join = self._joins.get(stage_name)
        if join is not None:
            out.append(join)
        return tuple(out)

    # -- aggregate views ------------------------------------------------
    def layer_assignments(self) -> Dict[str, LayerPartition]:
        """Layer name → :class:`LayerPartition` for the weighted layers.

        Built on each call: a plan keeps only its entries, so a long-lived
        plan holds no second object per layer.
        """
        return {name: a.partition for name, a in self._layers.items()}

    @property
    def assignments(self) -> Dict[str, LayerPartition]:
        """Read-only view of :meth:`layer_assignments` (a fresh copy).

        Weighted layers only — alignment entries are reached through
        :meth:`joins` / :meth:`path_exits` / :meth:`alignments_for`.
        """
        return self.layer_assignments()

    def type_counts(self) -> Dict[PartitionType, int]:
        counts = {t: 0 for t in ALL_TYPES}
        for a in self._layers.values():
            counts[a.ptype] += 1
        return counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LevelPlan):
            return NotImplemented
        return (self.entries == other.entries and self.cost == other.cost
                and self.scheme == other.scheme)

    def __repr__(self) -> str:
        return (f"LevelPlan({len(self._layers)} layers, "
                f"{len(self._joins)} joins, {len(self._exits)} exits, "
                f"cost={self.cost:.6g}, scheme={self.scheme!r})")


@dataclass
class HierarchicalPlan:
    """A plan for the whole pairing tree: one LevelPlan per internal node.

    The tree structure mirrors :class:`~repro.hardware.cluster.GroupNode`:
    ``level_plan`` applies at this node's split; ``left``/``right`` are the
    children's plans (``None`` for leaves).
    """

    level_plan: Optional[LevelPlan]
    left: Optional["HierarchicalPlan"] = None
    right: Optional["HierarchicalPlan"] = None
    scheme: str = ""

    @property
    def is_leaf(self) -> bool:
        return self.level_plan is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        left_d = self.left.depth() if self.left else 0
        right_d = self.right.depth() if self.right else 0
        return 1 + max(left_d, right_d)

    def splits(self, path: str = "root") -> Iterator[Tuple[str, "HierarchicalPlan"]]:
        """Every node with a level plan, pre-order, with its path (``root``,
        ``rootL``, ``rootLR`` …); a shared subtree comes once per parent."""
        if self.level_plan is None:
            return
        yield path, self
        for side, child in (("L", self.left), ("R", self.right)):
            if child is not None:
                yield from child.splits(path + side)

    def validate(self, network, batch: int = 1) -> List[str]:
        """Structural validation against a network; see :func:`validate_plan`."""
        from .validate import validate_plan  # local import: validate uses ir

        return validate_plan(self, network, batch)


@dataclass
class SearchResult:
    """Outcome of one level's search, as ordered typed entries."""

    entries: Tuple[PlanEntry, ...]
    cost: float
    exit_state: Optional[PartitionType]

    @property
    def assignments(self) -> Dict[str, LayerPartition]:
        """Layer name → :class:`LayerPartition` (weighted layers only)."""
        return {
            e.name: LayerPartition(e.ptype, e.alpha)
            for e in self.entries
            if isinstance(e, LayerAssignment)
        }

    def types(self) -> Dict[str, PartitionType]:
        return {
            e.name: e.ptype for e in self.entries
            if isinstance(e, LayerAssignment)
        }

    def to_level_plan(self, scheme: str) -> LevelPlan:
        """Package this result as one hierarchy level's plan."""
        return LevelPlan(self.entries, cost=self.cost, scheme=scheme)
