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

The search's other vectorized inputs get the same treatment:

* every cell of a level's alignment tables
  (``PairCostModel.alignment_tables``, one per path-exit and fork tensor)
  equals the scalar ``alignment_cost`` bit for bit — the diagonal and the
  free entry state too — in all four ratio modes, under the analytic
  profile, the example and fixture profiles and random calibrated ones;
* the elementwise tie rule (``first_within_slack_along``) picks, cell by
  cell, what ``first_within_slack`` picks over that cell's candidates, for
  one, two and three in-states, on exact, near and chained ties.
"""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.cost_model import (
    BOUNDARY_STATES,
    FAMILY_CROSS,
    PACKED_FAMILY_INDEX,
    TYPE_INDEX,
    PairCostModel,
)
from repro.core.ratio import solve_balanced_ratio
from repro.core.tiebreak import first_within_slack, first_within_slack_along
from repro.core.types import ALL_TYPES, PartitionType
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.hardware.profile import load_profile
from tests.reference_search import comm_volume
from tests.tables import table
from tests.test_dp_vectorized import NAMED_TIES, _StageGen, random_profile

ROOT = Path(__file__).parent.parent

#: the calibrated profiles on file, beside the analytic one (``None``)
#: and the random ones of ``random_profile``
PROFILE_FILES = {
    "effective-tpu": ROOT / "examples" / "profiles" / "effective-tpu.json",
    "split-collision": (ROOT / "tests" / "fixtures" / "profiles"
                        / "split_collision.json"),
}

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


def level_tensors(rng):
    """Every boundary tensor size of a random series-parallel level."""
    gen = _StageGen(rng)
    sizes = table(gen.chain(6, 0)).sizes()
    return np.concatenate((sizes.a_out, sizes.a_in))


@pytest.mark.parametrize("profile", ["analytic", "random", *PROFILE_FILES])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(6))
def test_alignment_tables_match_alignment_cost(seed, mode, profile):
    rng = random.Random(9100 + 10 * seed + MODES.index(mode))
    if profile == "analytic":
        calibration = None
    elif profile == "random":
        calibration = random_profile(rng)
    else:
        calibration = load_profile(PROFILE_FILES[profile])
    model = PairCostModel(
        make_group(rng.choice((TPU_V2, TPU_V3)), rng.choice((1, 2, 4))),
        make_group(rng.choice((TPU_V2, TPU_V3)), rng.choice((1, 2, 8))),
        dtype_bytes=rng.choice((1, 2, 4)),
        ratio_mode=mode,
        profile=calibration,
    )
    elements = level_tensors(rng)
    tables = model.alignment_tables(elements)
    assert tables.shape == (len(elements), len(BOUNDARY_STATES), len(ALL_TYPES))
    for k, size in enumerate(elements.tolist()):
        for f, from_state in enumerate(BOUNDARY_STATES):
            for t, to_state in enumerate(ALL_TYPES):
                expected = model.alignment_cost(size, from_state, to_state)
                got = float(tables[k, f, t])
                assert got == expected, (k, from_state, to_state)
                if from_state is None or from_state is to_state:
                    assert got == 0.0


def test_alignment_tables_count_the_cells_they_price():
    model = PairCostModel(make_group(TPU_V3, 2), make_group(TPU_V2, 2))
    model.alignment_tables(np.array([64.0, 128.0, 256.0]))
    # cross I → II and III → I, move I → III and II → I, per tensor
    assert model.stats.boundary_calls == 3 * 4
    assert model.alignment_tables(np.empty(0)).shape == (0, 4, 3)


#: one- and two-in-state candidate columns with a known winner
SHORT_TIES = (
    ((4.0,), 0),
    ((1.0, 1.0), 0),
    ((1.0, 1.0 - 0.9e-9), 0),
    ((1.0, 1.0 - 1.1e-9), 1),
)


@pytest.mark.parametrize("n_in", [1, 2, 3])
def test_elementwise_rule_picks_what_first_within_slack_picks(n_in):
    columns = [column for _, column, _ in NAMED_TIES]
    columns += [column for column, _ in SHORT_TIES]
    columns = [column[:n_in] for column in columns if len(column) >= n_in]
    rng = random.Random(n_in)
    # (in, paths, rows, out): random cells, then every named column
    # planted in one cell each, and a cell whose candidates are equal
    candidates = np.array([[[[rng.uniform(0.0, 2.0) for _ in range(3)]
                             for _ in range(3)] for _ in range(len(columns) + 2)]
                           for _ in range(n_in)])
    for p, column in enumerate(columns):
        candidates[:, p, 0, 0] = column
    candidates[:, -1, 1, 2] = 7.0
    values, choices = first_within_slack_along(candidates)
    assert values.shape == choices.shape == candidates.shape[1:]
    for cell in itertools.product(*map(range, candidates.shape[1:])):
        column = [float(candidates[(i,) + cell]) for i in range(n_in)]
        k = first_within_slack(column)
        assert choices[cell] == k, (cell, column)
        # the winner keeps its own value, not the minimum
        assert float(values[cell]) == column[k]


@pytest.mark.parametrize("name,column,winner", NAMED_TIES,
                         ids=[t[0] for t in NAMED_TIES])
def test_elementwise_rule_on_named_ties(name, column, winner):
    values, choices = first_within_slack_along(np.array(column)[:, None])
    assert choices.tolist() == [winner]
    assert values.tolist() == [column[winner]]
