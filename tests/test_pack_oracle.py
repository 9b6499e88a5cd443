"""A direct oracle for the packed step costs (``PairCostModel.pack_step_tensors``).

Every reachable cell of the pack is re-derived from the scalar per-party
Table 4-6 formulas at the cell's own α, for every Eq. 9 entry condition
(the free entry plus the nine Table 5 transitions), over random workloads,
all four ratio modes and analytic as well as random calibrated profiles.
The pack reads the level's fraction table; the scalar formulas read each
row as a :class:`~repro.core.types.ShardedWorkload`:

* the fixed-α modes (``proportional``, ``equal``) must equal
  ``max(step_pair_costs(...))`` bit for bit, and ``comm-volume`` the
  Table 4-5 byte count bit for bit — the packing repeats their operation
  order;
* ``balanced`` cells are the Eq. 10 polynomials evaluated at the solved α,
  so they match ``max(step_pair_costs(...))`` to 1e-12 relative, and every
  balanced α matches the bracketed bisection solve to 1e-9;
* the cross → Type-III cell (no Table 5 transition reaches it) stays
  unreachable.
"""

import random

import numpy as np
import pytest

from repro.core.cost_model import (
    FAMILY_CROSS,
    PACKED_FAMILY_INDEX,
    TYPE_INDEX,
    PairCostModel,
)
from repro.core.ratio import solve_balanced_ratio
from repro.core.types import ALL_TYPES, PartitionType
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, make_group
from tests.reference_search import comm_volume
from tests.tables import table
from tests.test_dp_vectorized import _StageGen, random_profile

#: the free entry boundary plus the nine (prev, cur) Table 5 transitions
TRANSITIONS = [(None, t) for t in ALL_TYPES] + [
    (p, t) for p in ALL_TYPES for t in ALL_TYPES
]

MODES = ("balanced", "proportional", "equal", "comm-volume")


def pack_of(model, workloads):
    """The model's pack over a chain of these sharded workloads."""
    return model.pack_step_tensors(table([LayerStage(sw) for sw in workloads]))


def random_case(seed, mode, calibrated):
    rng = random.Random(seed)
    gen = _StageGen(rng)
    workloads = [gen.layer().workload for _ in range(rng.randint(1, 8))]
    model = PairCostModel(
        make_group(rng.choice((TPU_V2, TPU_V3)), rng.choice((1, 2, 4))),
        make_group(rng.choice((TPU_V2, TPU_V3)), rng.choice((1, 2, 8))),
        dtype_bytes=rng.choice((1, 2, 4)),
        ratio_mode=mode,
        profile=random_profile(rng) if calibrated else None,
    )
    return workloads, model


@pytest.mark.parametrize("calibrated", [False, True], ids=["analytic", "calibrated"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(12))
def test_every_reachable_cell_matches_the_scalar_formulas(seed, mode, calibrated):
    workloads, model = random_case(1000 * seed + MODES.index(mode), mode,
                                   calibrated)
    pack = pack_of(model, workloads)
    assert pack.cost.shape == (len(workloads), 3, len(ALL_TYPES))
    for row, sw in enumerate(workloads):
        for prev, cur in TRANSITIONS:
            cost, alpha = pack.cell(row, prev, cur)
            if mode == "comm-volume":
                assert alpha == 0.5
                assert cost == comm_volume(model, sw, prev, cur, alpha)
                continue
            expected = max(model.step_pair_costs(sw, prev, cur, alpha)[:2])
            if mode == "balanced":
                assert cost == pytest.approx(expected, rel=1e-12, abs=0.0)
                bisected = solve_balanced_ratio(
                    lambda a: model.step_pair_costs(sw, prev, cur, a)[:2]
                )
                assert abs(alpha - bisected) <= 1e-9, (row, prev, cur)
            else:
                assert alpha == model.nominal_alpha()
                assert cost == expected, (row, prev, cur)


@pytest.mark.parametrize("mode", MODES)
def test_cross_to_type_iii_is_unreachable(mode):
    workloads, model = random_case(7, mode, calibrated=False)
    pack = pack_of(model, workloads)
    cross = PACKED_FAMILY_INDEX[FAMILY_CROSS]
    type_iii = TYPE_INDEX[PartitionType.TYPE_III]
    assert np.all(np.isinf(pack.cost[:, cross, type_iii]))
    # every other cell is a real cost
    reachable = np.ones(pack.cost.shape[1:], dtype=bool)
    reachable[cross, type_iii] = False
    assert np.all(np.isfinite(pack.cost[:, reachable]))


def test_empty_level_packs_empty():
    model = PairCostModel(make_group(TPU_V3, 2), make_group(TPU_V2, 2))
    pack = pack_of(model, [])
    assert pack.cost.shape == (0, 3, len(ALL_TYPES))
