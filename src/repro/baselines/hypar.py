"""HyPar (Song et al., HPCA 2019) — the principled-but-incomplete baseline.

Re-implemented from its description in the AccPar paper (Sections 1, 3.5):

* searches only the two OWT parallelisms — data (Type-I) and model
  (Type-II); Type-III and five of the nine inter-layer patterns are missed;
* optimizes *communication amount* as a proxy for performance (no
  computation term, no bandwidth heterogeneity);
* always partitions tensors equally (ratio 1/2), so it cannot exploit
  heterogeneous compute densities;
* handles only linear structures — multi-path networks are linearized in
  topological order before the search (and the resulting plan is then
  evaluated on the true graph by the simulator).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.cost_model import PairCostModel
from ..core.stages import ShardedStage, flatten_to_chain
from ..core.types import HYPAR_TYPES
from ..hardware.accelerator import AcceleratorGroup
from ..hardware.profile import HardwareProfile
from ..obs.registry import planner_counters
from ..plan.backends import get_backend
from ..plan.ir import LevelPlan


class HyParScheme:
    """Layer-wise DP over {Type-I, Type-II} minimizing communication volume.

    The comm-volume proxy counts raw bytes, so a calibrated ``profile``
    cannot change HyPar's objective — it is accepted (and kept on the
    scheme so the planner can validate and order the pairing tree with it)
    but the search itself stays profile-independent by design.
    """

    def __init__(self, backend: str = "dp",
                 profile: Optional[HardwareProfile] = None) -> None:
        self.name = "hypar"
        self.backend = backend
        self.profile = profile

    def level_plan(
        self,
        stages: Sequence[ShardedStage],
        party_i: AcceleratorGroup,
        party_j: AcceleratorGroup,
        dtype_bytes: int,
    ) -> LevelPlan:
        chain = flatten_to_chain(list(stages))
        model = PairCostModel(party_i, party_j, dtype_bytes, ratio_mode="comm-volume",
                              profile=self.profile)
        result = get_backend(self.backend).search(chain, model, HYPAR_TYPES)
        planner_counters.merge(model.stats.as_dict())
        return result.to_level_plan(self.name)
