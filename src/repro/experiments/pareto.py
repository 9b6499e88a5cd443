"""Cost-landscape analysis: where do plans fall in the full design space?

For small networks the entire 3^N assignment space is enumerable, which
lets us place every scheme's plan inside the *distribution* of all possible
plans — a stronger statement than "AccPar beats three baselines": it shows
how much of the space the baselines leave on the table and that the DP's
optimum really is the global one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines import SCHEMES
from ..core.cost_model import PairCostModel
from ..core.dp_vectorized import search_stages
from ..core.stages import ShardedStages
from ..core.types import ALL_TYPES, PartitionType


@dataclass
class CostLandscape:
    """Every assignment's cost for one chain, plus reference points."""

    layer_names: List[str]
    costs: List[Tuple[Tuple[PartitionType, ...], float]]  # sorted ascending
    dp_cost: float

    @property
    def optimum(self) -> float:
        return self.costs[0][1]

    @property
    def worst(self) -> float:
        return self.costs[-1][1]

    @property
    def spread(self) -> float:
        """Worst-to-best cost ratio: how much planning can matter at all."""
        return self.worst / self.optimum

    def percentile_of(self, cost: float) -> float:
        """Fraction of the space at least as expensive as ``cost``.

        1.0 means ``cost`` is the global optimum; 0.0 means the worst plan.
        """
        worse = sum(1 for _, c in self.costs if c >= cost - 1e-15)
        return worse / len(self.costs)

    def cost_of(self, assignment: Sequence[PartitionType]) -> float:
        key = tuple(assignment)
        for combo, cost in self.costs:
            if combo == key:
                return cost
        raise KeyError(f"assignment {key!r} not in the landscape")


def enumerate_landscape(
    stages: ShardedStages,
    model: PairCostModel,
    max_layers: int = 10,
) -> CostLandscape:
    """Exhaustively cost every type assignment of a *linear* chain."""
    if stages.skeleton.forks:
        raise ValueError("landscape enumeration handles linear chains only")
    chain = stages.skeleton.names
    if len(chain) > max_layers:
        raise ValueError(
            f"{len(chain)} layers would enumerate 3^{len(chain)} plans; "
            f"raise max_layers explicitly if you mean it"
        )

    pack = model.pack_step_tensors(stages)
    costs: List[Tuple[Tuple[PartitionType, ...], float]] = []
    for combo in itertools.product(ALL_TYPES, repeat=len(chain)):
        total = 0.0
        prev: Optional[PartitionType] = None
        for row, ptype in enumerate(combo):
            total += pack.cell(row, prev, ptype)[0]
            prev = ptype
        costs.append((combo, total))
    costs.sort(key=lambda entry: entry[1])

    dp = search_stages(stages, model)
    return CostLandscape(
        layer_names=list(chain),
        costs=costs,
        dp_cost=dp.cost,
    )


def baseline_assignments(
    stages: ShardedStages,
) -> Dict[str, Tuple[PartitionType, ...]]:
    """The static baselines' assignments, one type per layer row (DP and OWT)."""
    layers = stages.skeleton.layers
    return {name: tuple(SCHEMES[name].pin(layer) for layer in layers)
            for name in ("dp", "owt")}
