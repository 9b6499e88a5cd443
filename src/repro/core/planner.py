"""Public planning API: AccPar and scheme-parameterized planners.

Typical use::

    from repro import AccParPlanner, heterogeneous_array, build_model

    planner = AccParPlanner(heterogeneous_array())
    planned = planner.plan(build_model("vgg19"), batch=512)

A request names its model instead, ``planner.plan("vgg19", batch=512)``:
the registered model was decomposed once per process
(:func:`repro.core.stages.model_stages`), and the plan fills in its batch.

``planned`` bundles the pairing tree, the root sub-problem (the network's
sharded stages as one fraction table) and the per-level plans; feed it to
:func:`repro.sim.evaluate` for the simulated iteration time, or inspect
``planned.root_level_plan`` for the per-layer decisions (Figure 7).

Every scheme resolves its search algorithm through the backend registry
(:func:`repro.plan.get_backend`): ``PartitionScheme(backend="greedy")``
runs the paper's cost model under the myopic search, and the CLI's
``--backend`` flag reaches here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..graph.layers import LayerWorkload
from ..graph.network import Network
from ..hardware.accelerator import AcceleratorGroup
from ..hardware.cluster import GroupNode, bisection_tree, max_hierarchy_levels
from ..hardware.profile import HardwareProfile
from ..plan.backends import canonical_backend_name, get_backend
from ..plan.ir import HierarchicalPlan, LevelPlan
from .cost_model import PairCostModel, StepStats
from .hierarchy import collect_level_plans, plan_tree
from .stages import (ShardedStages, flatten_to_chain, model_stages,
                     to_sharded_stages)
from .types import ALL_TYPES, PartitionType


@dataclass(frozen=True)
class PartitionScheme:
    """One per-level planning policy: AccPar, a restriction of it, or a baseline.

    The defaults are the paper's scheme: the complete type space, the joint
    compute+comm cost and Eq. 10 ratios, searched by the exact DP.  The
    baselines are restrictions of that search (§3.5, §6.1):

    * ``space`` — the searchable partition types;
    * ``ratio_mode`` — how a pair of per-party costs becomes one cost
      (:data:`repro.core.cost_model.RATIO_MODES`);
    * ``pin`` — a function from a layer's (unsharded) workload to its one
      type, or ``None`` to let the search choose from ``space``;
    * ``linearize`` — search the topologically ordered chain instead of
      the multi-path graph;
    * ``backend`` — the search algorithm's name in the
      :mod:`repro.plan.backends` registry;
    * ``profile`` — ``None`` for peak analytic rates; a
      ``CalibratedProfile`` re-prices every cost model with measured
      effective rates.

    :data:`repro.baselines.SCHEMES` names the paper's schemes and
    :func:`repro.baselines.get_scheme` builds one with its knobs checked.
    """

    name: str = "accpar"
    space: Tuple[PartitionType, ...] = ALL_TYPES
    ratio_mode: str = "balanced"
    pin: Optional[Callable[[LayerWorkload], PartitionType]] = None
    linearize: bool = False
    backend: str = "dp"
    profile: Optional[HardwareProfile] = None

    @property
    def level_plans_counter(self) -> str:
        """The counter of this scheme's level searches,
        ``level_plans_<backend>`` (``repro_planner_level_plans_<b>_total``
        in Prometheus): which search algorithm produced the plans.  Aliases
        canonicalize, so "exact" and "dpv" feed the "dp" series."""
        return "level_plans_" + canonical_backend_name(self.backend).replace(
            "-", "_")

    def level_plan(
        self,
        stages: ShardedStages,
        party_i: AcceleratorGroup,
        party_j: AcceleratorGroup,
        dtype_bytes: int,
        stats: Optional[StepStats] = None,
    ) -> LevelPlan:
        """Assign a partition type and ratio to every weighted layer.

        The search's work is counted into ``stats`` when one is given: a
        plan's level searches share one :class:`StepStats`
        (:func:`~repro.core.hierarchy.plan_tree`).
        """
        model = PairCostModel(party_i, party_j, dtype_bytes, self.ratio_mode,
                              profile=self.profile, stats=stats)
        if self.linearize:
            stages = flatten_to_chain(stages)
        result = get_backend(self.backend).search(
            stages, model, self.space,
            space_fn=None if self.pin is None else lambda w: (self.pin(w),))
        return result.to_level_plan(self.name)


class _Stages:
    """The ``stages`` field of :class:`PlannedExecution`: the table given,
    or, for ``None``, the model's root sub-problem made on first read.

    The planner passes the stages its search ran over.  A plan read from
    a document (:func:`repro.core.serialize.plan_from_dict`) passes
    ``None``, so a cache hit that is only answered reads no stages.  Its
    first read decomposes the model a caller's ``network_builder``
    returned at load, or else fills the plan's batch into the registered
    ``network_name``'s entry (:func:`~repro.core.stages.model_stages`),
    and keeps the table: every later read returns it.  Two threads that
    make the first read of one shared plan at once may both make one;
    their tables are equal, so no lock is taken.
    """

    def __get__(self, planned, owner=None) -> ShardedStages:
        if planned is None:  # class access: the field has no default
            raise AttributeError("stages")
        stages = planned.__dict__["_stages"]
        if stages is None:
            network = planned.__dict__.get("_network")
            if network is None:
                stages = model_stages(planned.network_name).root(
                    planned.batch)
            else:
                stages = to_sharded_stages(network.stages(planned.batch))
            planned.__dict__["_stages"] = stages
        return stages

    def __set__(self, planned, stages: Optional[ShardedStages]) -> None:
        planned.__dict__["_stages"] = stages


@dataclass
class PlannedExecution:
    """Everything needed to evaluate or inspect a hierarchical plan.

    ``stages`` may be given as ``None``; they are then built from
    ``network_name`` and ``batch`` when first read (see :class:`_Stages`).
    """

    network_name: str
    batch: int
    scheme: str
    tree: GroupNode
    stages: ShardedStages = _Stages()
    plan: HierarchicalPlan
    dtype_bytes: int

    @property
    def root_level_plan(self) -> LevelPlan:
        """The level-1 plan (the split the paper's Figure 7 reports per level)."""
        if self.plan.level_plan is None:
            raise ValueError("plan has no levels (single-accelerator array?)")
        return self.plan.level_plan

    def level_plans(self) -> List[LevelPlan]:
        return collect_level_plans(self.plan)

    def hierarchy_levels(self) -> int:
        # the pairing tree caches its depth, which equals the plan's
        return self.tree.depth()

    def layer_types_by_level(self, strict: bool = False) -> List[Dict[str, PartitionType]]:
        """Per level (following the leftmost spine), the layer→type map.

        Matches Figure 7's presentation: one row per hierarchy level.  The
        leftmost spine is representative only when sibling subtrees plan
        identically — always true for homogeneous equal splits, but under
        the default ``type-separated`` split policy on a *heterogeneous*
        array the two children of the root are different sub-arrays and
        their subtree plans can legitimately differ.  ``strict=True``
        raises :class:`ValueError` in that case; the default keeps the
        leftmost spine (documented asymmetry) — use
        :meth:`layer_types_by_subtree` for the full per-subtree picture.
        """
        if strict and not self.subtrees_symmetric():
            raise ValueError(
                "sibling subtree plans differ (heterogeneous array under a "
                "type-separated split?); the leftmost spine is not "
                "representative — use layer_types_by_subtree()"
            )
        result: List[Dict[str, PartitionType]] = []
        node = self.plan
        while node is not None and node.level_plan is not None:
            result.append(
                {a.name: a.ptype for a in node.level_plan.layers()}
            )
            node = node.left
        return result

    def layer_types_by_subtree(self) -> Dict[str, Dict[str, PartitionType]]:
        """The layer→type map of *every* internal plan node, keyed by path.

        Paths are ``"root"``, ``"rootL"``, ``"rootR"``, ``"rootLL"`` … —
        the exact report for asymmetric plans where
        :meth:`layer_types_by_level` must pick one spine.
        """
        return {path: {a.name: a.ptype for a in node.level_plan.layers()}
                for path, node in self.plan.splits()}

    def subtrees_symmetric(self) -> bool:
        """True when every pair of sibling subtrees carries identical plans."""

        def same(a: Optional[HierarchicalPlan],
                 b: Optional[HierarchicalPlan]) -> bool:
            if a is None or b is None:
                return a is b
            if a.level_plan is None or b.level_plan is None:
                return (a.level_plan is None) == (b.level_plan is None)
            if a.level_plan.entries != b.level_plan.entries:
                return False
            return same(a.left, b.left) and same(a.right, b.right)

        return all(same(node.left, node.right) for _, node in self.plan.splits())


class Planner:
    """Scheme-parameterized hierarchical planner over an accelerator array.

    ``telemetry`` is the writer that gets one ``search`` event per
    :meth:`plan` call, or None to record nothing.
    """

    def __init__(
        self,
        array: AcceleratorGroup,
        scheme: PartitionScheme,
        dtype_bytes: int = 2,
        levels: Optional[int] = None,
        split_policy: str = "type-separated",
        telemetry=None,
    ):
        self.array = array
        self.scheme = scheme
        self.dtype_bytes = dtype_bytes
        self.levels = levels
        self.split_policy = split_policy
        self.telemetry = telemetry

    def plan(self, network: Union[Network, str],
             batch: int) -> PlannedExecution:
        """Plan ``network`` at mini-batch ``batch``.

        A :class:`Network` is decomposed here.  A string names a registered
        model (a plan request's ``model``): its decomposition is the one
        this process made (:func:`repro.core.stages.model_stages`), and
        only the batch is filled in.  Both search the same root sub-problem.
        """
        # telemetry gate first: the disabled path must stay one attribute
        # read with zero allocations (the planner-throughput bench gates
        # this), so even the search event's tally is behind the guard
        t = self.telemetry
        if t is not None and not t.enabled:
            t = None
        tally = None
        if t is not None:
            tally = Counter()
            started = perf_counter()

        # calibrated profiles re-order the pairing tree by effective rates
        # and must cover every spec in the array; fail fast and clearly
        # before any costing happens
        profile = self.scheme.profile
        if profile is not None:
            profile.validate_array(self.array)

        levels = self.levels
        if levels is None:
            levels = max_hierarchy_levels(self.array)
        tree = bisection_tree(self.array, levels, self.split_policy,
                              profile=profile)
        if isinstance(network, str):
            model = model_stages(network)
            name, stages = model.name, model.root(batch)
        else:
            name = network.name
            stages = to_sharded_stages(network.stages(batch))
        plan = plan_tree(tree, stages, self.scheme, self.dtype_bytes, tally)
        planned = PlannedExecution(
            network_name=name,
            batch=batch,
            scheme=self.scheme.name,
            tree=tree,
            stages=stages,
            plan=plan,
            dtype_bytes=self.dtype_bytes,
        )

        if t is not None:
            t.record({
                "type": "search",
                "model": name,
                "batch": batch,
                "scheme": self.scheme.name,
                "backend": canonical_backend_name(self.scheme.backend),
                "levels": levels,
                "elapsed_ms": round((perf_counter() - started) * 1e3, 3),
                # this plan's own search work, whatever else ran beside it
                "counters": {name: value for name, value in sorted(tally.items())
                             if value},
            })
        return planned


class AccParPlanner(Planner):
    """The paper's planner: the default :class:`PartitionScheme` over the
    given array."""

    def __init__(
        self,
        array: AcceleratorGroup,
        dtype_bytes: int = 2,
        levels: Optional[int] = None,
    ):
        super().__init__(array, PartitionScheme(), dtype_bytes, levels)
