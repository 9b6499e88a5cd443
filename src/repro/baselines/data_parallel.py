"""Data parallelism (DP) — the paper's normalization baseline (Section 6.1).

Every accelerator keeps a full model replica and processes a slice of the
mini-batch: all layers are Type-I with equal ratios at every hierarchy
level.  The only communication is the per-layer gradient partial-sum
exchange (Table 4, Type-I) — the classic all-reduce.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core.cost_model import PairCostModel
from ..core.stages import ShardedStage
from ..core.types import ALL_TYPES, PartitionType, ShardedWorkload
from ..hardware.accelerator import AcceleratorGroup
from ..hardware.profile import HardwareProfile
from ..obs.registry import planner_counters
from ..plan.backends import get_backend
from ..plan.ir import LevelPlan


class FixedTypeScheme:
    """A static per-layer-kind policy with equal (1/2) partitioning ratios.

    ``type_fn`` maps a workload to its pinned partition type; the search then
    only chooses join-alignment states in multi-path regions.  Equal ratios
    mean heterogeneous pairs are gated by the slower party — the idle time
    Section 6.2 attributes to OWT/HyPar/DP.  The pinning is expressed as a
    per-layer ``space_fn``, so it composes with any registered backend.
    The types are static but the *costs* still respect a calibrated
    ``profile``, so baseline-vs-AccPar comparisons stay apples-to-apples.
    """

    def __init__(
        self,
        name: str,
        type_fn: Callable[[ShardedWorkload], PartitionType],
        backend: str = "dp",
        profile: Optional[HardwareProfile] = None,
    ):
        self.name = name
        self._type_fn = type_fn
        self.backend = backend
        self.profile = profile

    def level_plan(
        self,
        stages: Sequence[ShardedStage],
        party_i: AcceleratorGroup,
        party_j: AcceleratorGroup,
        dtype_bytes: int,
    ) -> LevelPlan:
        model = PairCostModel(party_i, party_j, dtype_bytes, ratio_mode="equal",
                              profile=self.profile)
        result = get_backend(self.backend).search(
            list(stages),
            model,
            ALL_TYPES,
            space_fn=lambda w: (self._type_fn(w),),
        )
        planner_counters.merge(model.stats.as_dict())
        return result.to_level_plan(self.name)


class DataParallelScheme(FixedTypeScheme):
    """All layers Type-I (batch partitioning), ratio 1/2."""

    def __init__(self, backend: str = "dp",
                 profile: Optional[HardwareProfile] = None) -> None:
        super().__init__("dp", lambda w: PartitionType.TYPE_I, backend=backend,
                         profile=profile)
