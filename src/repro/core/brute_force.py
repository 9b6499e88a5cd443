"""Exhaustive O(|T|^N) enumeration — the optimality oracle for the DP.

Section 5.1 motivates the dynamic program by the impracticality of brute
force; we implement brute force anyway (for linear chains) so tests and the
search benchmark can certify that the DP returns exactly the optimum on
small networks, and quantify the asymptotic win.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

from ..plan.ir import LayerAssignment, SearchResult
from .cost_model import PairCostModel
from .dp_vectorized import SpaceFn
from .stages import ShardedStages
from .types import ALL_TYPES, PartitionType

#: refuse enumerations beyond this many layers by default — 3^12 ≈ 531k
#: combinations is the practical ceiling for a test-suite oracle; anything
#: longer is exactly the regime the paper's DP exists for
DEFAULT_MAX_LAYERS = 12


def brute_force_chain(
    stages: ShardedStages,
    model: PairCostModel,
    space: Sequence[PartitionType] = ALL_TYPES,
    space_fn: Optional[SpaceFn] = None,
    max_layers: int = DEFAULT_MAX_LAYERS,
) -> SearchResult:
    """Enumerate every type sequence on a *linear* chain of weighted layers.

    Costs are accumulated from the same packed step costs the DP reads
    (:meth:`PairCostModel.pack_step_tensors`), but with no shared
    structure — an independent check of Eq. 9's optimal-substructure
    argument rather than of the arithmetic alone.

    Chains longer than ``max_layers`` raise :class:`ValueError` instead of
    enumerating |T|^N combinations.
    """
    if stages.skeleton.forks:
        raise TypeError("brute_force_chain handles linear chains only")
    chain = stages.skeleton.layers
    if not chain:
        return SearchResult(entries=(), cost=0.0, exit_state=None)
    if len(chain) > max_layers:
        raise ValueError(
            f"brute force over {len(chain)} layers would enumerate "
            f"{len(space)}^{len(chain)} type sequences; the cap is "
            f"max_layers={max_layers} — use the 'dp' backend instead"
        )

    spaces = [
        tuple(space_fn(layer)) if space_fn is not None else tuple(space)
        for layer in chain
    ]
    pack = model.pack_step_tensors(stages)
    # (cost, α) per layer and (prev, cur), read once from the pack
    steps = [
        {(prev, t): pack.cell(row, prev, t)
         for prev in ((None,) if row == 0 else spaces[row - 1])
         for t in layer_space}
        for row, layer_space in enumerate(spaces)
    ]
    best_cost = float("inf")
    best_combo = None
    best_alphas: Sequence[float] = ()
    for combo in itertools.product(*spaces):
        total = 0.0
        prev: Optional[PartitionType] = None
        alphas = []
        for step, ptype in zip(steps, combo):
            cost, alpha = step[(prev, ptype)]
            total += cost
            alphas.append(alpha)
            prev = ptype
            if total >= best_cost:
                break
        else:
            best_cost = total
            best_combo = combo
            best_alphas = tuple(alphas)

    assert best_combo is not None
    entries: Tuple[LayerAssignment, ...] = tuple(
        LayerAssignment(layer.name, ptype, alpha)
        for layer, ptype, alpha in zip(chain, best_combo, best_alphas)
    )
    return SearchResult(
        entries=entries,
        cost=best_cost,
        exit_state=best_combo[-1],
    )
