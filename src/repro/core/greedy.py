"""Greedy layer-by-layer search: the strawman Eq. 9 improves on.

A natural first idea is to pick each layer's type myopically — cheapest
step given only the previous layer's state.  It is O(N·|T|) and often
good, but it has no way to accept a locally-worse type that unlocks free
transitions later (the optimal-substructure argument behind the paper's
DP).  We implement it as a comparison point so the search benchmark can
quantify the DP's advantage, not just assert it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..plan.ir import LayerAssignment, SearchResult
from .cost_model import PairCostModel
from .dp_vectorized import SpaceFn
from .stages import ShardedStages
from .tiebreak import first_within_slack
from .types import ALL_TYPES, PartitionType


def greedy_chain(
    stages: ShardedStages,
    model: PairCostModel,
    space: Sequence[PartitionType] = ALL_TYPES,
    space_fn: Optional[SpaceFn] = None,
) -> SearchResult:
    """Myopic per-layer choice on a linear chain.

    Reads the same packed step costs as the DP and breaks ties with the
    same ``COST_REL_TOL`` rule
    (:func:`~repro.core.tiebreak.first_within_slack`), so greedy-vs-DP
    comparisons measure search quality, not last-ulp float noise.
    """
    skeleton = stages.skeleton
    if skeleton.forks:
        raise TypeError("greedy_chain handles linear chains only")
    space = tuple(space)
    if not space:
        raise ValueError("partition-type space must be non-empty")

    pack = model.pack_step_tensors(stages)
    entries: List[LayerAssignment] = []
    total = 0.0
    prev: Optional[PartitionType] = None
    for row, layer in enumerate(skeleton.layers):
        layer_space = (tuple(space_fn(layer)) if space_fn is not None
                       else space)
        cells = [pack.cell(row, prev, t) for t in layer_space]
        k = first_within_slack([cost for cost, _ in cells])
        cost, alpha = cells[k]
        entries.append(LayerAssignment(layer.name, layer_space[k], alpha))
        total += cost
        prev = layer_space[k]

    return SearchResult(entries=tuple(entries), cost=total, exit_state=prev)
