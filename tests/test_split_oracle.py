"""Oracles for what one split of the pairing tree costs (§5.1, Eq. 10).

Each fast path of a split is checked bit for bit against the form it
replaced, kept here as the reference:

* the pack between identical groups (the symmetric branch of
  ``PairCostModel.pack_step_tensors``), written in closed form, against
  party *i*'s ``(layers, 3, |T|)`` Eq. 10 polynomial tensors evaluated at
  ``symmetric_balanced_ratio``, in cost and α: random stages, the analytic
  profile, the example and fixture profiles and random calibrated ones
  with a latency constant, and crafted rows whose cost does not depend on
  α (``RATIO_LO``);
* ``ShardedStages.split`` against two one-side cuts, as the walk made
  them before, in the tables and in the errors raised; the two children
  are one table exactly when the two cuts are bitwise equal;
* a plan's search counts, which every level search adds to one
  ``StepStats`` per plan, against its level searches counted one by one,
  pinned at the values the per-level counting gave.

``tests/test_stages.py`` checks ``ShardedStages.sizes`` against its
column formulas the same way.  Imports nothing beyond the library, numpy,
pytest and test helpers without ``hypothesis``, so the CI job that
installs only those runs it by path.
"""

import dataclasses
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import get_scheme
from repro.core.cost_model import (
    FAMILY_CROSS,
    PACKED_FAMILY_INDEX,
    TYPE_INDEX,
    PairCostModel,
    StepStats,
)
from repro.core.hierarchy import stored_level, walk
from repro.core.planner import Planner
from repro.core.ratio import RATIO_LO, symmetric_balanced_ratio
from repro.core.stages import ShardedStages, to_sharded_stages
from repro.core.types import ALL_TYPES, PartitionType
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.hardware.accelerator import AcceleratorSpec
from repro.hardware.presets import parse_array
from repro.hardware.profile import CalibratedProfile, load_profile
from repro.models import build_model
from repro.obs.telemetry import TelemetryWriter, read_events
from repro.obs.tracing import Participant, set_request_context
from repro.plan.ir import LayerAssignment, LevelPlan
from tests.tables import table
from tests.test_dp_vectorized import _StageGen, random_profile

ROOT = Path(__file__).resolve().parent.parent
PROFILE_FILES = {
    "effective-tpu": ROOT / "examples" / "profiles" / "effective-tpu.json",
    "split-collision": (ROOT / "tests" / "fixtures" / "profiles"
                        / "split_collision.json"),
}

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def assert_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# the pack between identical groups
# ----------------------------------------------------------------------
def polynomial_symmetric_pack(model: PairCostModel, stages: ShardedStages):
    """``(cost, alpha)`` of a pack between identical groups, as party *i*'s
    Eq. 10 polynomial tensors evaluated at ``symmetric_balanced_ratio``:
    the form the closed form replaced, in its operation order."""
    sizes = stages.sizes()
    is_conv = stages.skeleton.is_conv
    shape = (len(is_conv), len(ALL_TYPES))
    total = sizes.flops
    rate_i = np.where(is_conv, model._rate_i("conv"), model._rate_i("fc"))
    psum = np.stack([sizes.a_weight, sizes.a_out, sizes.a_in], axis=1)
    a_in = sizes.a_in
    dtype_bytes = float(model.dtype_bytes)
    intra = psum * dtype_bytes
    move = a_in * dtype_bytes
    cross = 2.0 * a_in * dtype_bytes
    bw_intra_i = model._bandwidths(intra)[0]
    bw_move_i = model._bandwidths(move)[0]
    bw_cross_i = model._bandwidths(cross)[0]
    lat_intra_i = np.where(psum > 0, model._lat_i, 0.0)
    lat_edge_i = np.where(a_in > 0, model._lat_i, 0.0)[:, None]
    base_ci = psum / rate_i[:, None] + intra / bw_intra_i + lat_intra_i
    base_li = np.broadcast_to((total / rate_i)[:, None], shape)
    move_i = (move / bw_move_i)[:, None]
    flat = np.zeros(shape)
    const_i = np.stack([base_ci, base_ci + lat_edge_i,
                        base_ci + move_i + lat_edge_i], axis=1)
    lin_i = np.stack([base_li, base_li, base_li - move_i], axis=1)
    quad_i = np.stack([flat, np.broadcast_to((cross / bw_cross_i)[:, None],
                                             shape), flat], axis=1)
    alpha = symmetric_balanced_ratio(lin_i)
    cost = const_i + lin_i * alpha + quad_i * (alpha * (1.0 - alpha))
    cost[:, PACKED_FAMILY_INDEX[FAMILY_CROSS], TYPE_INDEX[III]] = np.inf
    return cost, alpha


def with_latency(rng, profile: CalibratedProfile) -> CalibratedProfile:
    """``profile`` with a nonzero transfer latency on every spec."""
    return dataclasses.replace(profile, specs=tuple(
        dataclasses.replace(spec, transfer_latency_s=rng.choice((5e-6, 2e-5)))
        for spec in profile.specs))


def identical_pair(rng, profile=None, spec=None, count=None,
                   dtype_bytes=None):
    spec = spec or rng.choice((TPU_V2, TPU_V3))
    count = count or rng.choice((1, 2, 4, 8))
    return PairCostModel(make_group(spec, count), make_group(spec, count),
                         dtype_bytes=dtype_bytes or rng.choice((1, 2, 4)),
                         profile=profile)


def assert_symmetric_pack_matches(model, stages):
    pack = model.pack_step_tensors(stages)
    assert model.stats.ratio_symmetric == pack.alpha.size > 0
    cost, alpha = polynomial_symmetric_pack(model, stages)
    assert_bits(pack.cost, cost)
    assert_bits(pack.alpha, alpha)
    return pack


class TestClosedFormPack:
    @pytest.mark.parametrize("profile", ["analytic", "random", *PROFILE_FILES])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_stages(self, seed, profile):
        rng = random.Random(3400 + seed)
        if profile == "analytic":
            calibration = None
        elif profile == "random":
            calibration = with_latency(rng, random_profile(rng))
            assert all(spec.transfer_latency_s > 0
                       for spec in calibration.specs)
        else:
            calibration = load_profile(PROFILE_FILES[profile])
        stages = table(_StageGen(rng).chain(8, 0))
        assert_symmetric_pack_matches(identical_pair(rng, calibration), stages)

    @pytest.mark.parametrize("model", ["alexnet", "resnet50", "trident"])
    def test_zoo_tables(self, model):
        rng = random.Random(model)
        stages = to_sharded_stages(build_model(model).stages(batch=64))
        stages = ShardedStages(stages.skeleton, np.asarray(
            rng.choices((1.0, 0.5, 0.25, 0.7, 0.125), k=3 * len(stages)),
            dtype=float).reshape(len(stages), 3))
        for profile in (None, with_latency(rng, random_profile(rng))):
            assert_symmetric_pack_matches(identical_pair(rng, profile), stages)

    @pytest.mark.parametrize("conv", [False, True])
    @pytest.mark.parametrize("batch,d_in,d_out", [(64, 512, 1024), (8, 3, 10),
                                                  (256, 64, 128)])
    def test_move_row_without_alpha_gets_lo(self, batch, d_in, d_out, conv):
        """Party *i*'s compute time equals its move time, so the move row's
        cost does not depend on α: that row balances at ``RATIO_LO``."""
        hw = (7, 7) if conv else (1, 1)
        layer = LayerWorkload("l", batch, d_in, d_out, hw, hw,
                              (3, 3) if conv else (1, 1), conv)
        stages = to_sharded_stages([LayerStage(layer)])
        sizes = stages.sizes()
        flops = float(sizes.flops[0])
        move = float(sizes.a_in[0]) * 2.0
        spec = AcceleratorSpec("li-equals-mv", flops, 16e9, 600e9, move)
        model = identical_pair(random.Random(0), spec=spec, count=1,
                               dtype_bytes=2)
        pack = assert_symmetric_pack_matches(model, stages)
        assert np.all(pack.alpha[:, 2] == RATIO_LO)
        assert np.all(pack.alpha[:, :2] == 0.5)

    def test_zero_flop_rows_get_lo(self):
        """A layer at batch 0 has no FLOPs and no boundary tensor: no row
        of it depends on α.  One with no outputs has no FLOPs but an input
        tensor, so only its move row does."""
        empty = LayerWorkload("empty", 0, 16, 32, (1, 1), (1, 1), (1, 1),
                              False)
        blind = LayerWorkload("blind", 64, 16, 0, (1, 1), (1, 1), (1, 1),
                              False)
        full = LayerWorkload("full", 64, 32, 8, (1, 1), (1, 1), (1, 1), False)
        stages = to_sharded_stages([LayerStage(empty), LayerStage(blind),
                                    LayerStage(full)])
        sizes = stages.sizes()
        assert sizes.flops[0] == sizes.flops[1] == 0.0 < sizes.a_in[1]
        for profile in (None, with_latency(random.Random(1),
                                           random_profile(random.Random(1)))):
            pack = assert_symmetric_pack_matches(
                identical_pair(random.Random(2), profile), stages)
            assert np.all(pack.alpha[0] == RATIO_LO)
            assert np.all(pack.alpha[1, :2] == RATIO_LO)
            assert np.all(pack.alpha[1, 2] == 0.5)
            assert np.all(pack.alpha[2] == 0.5)


# ----------------------------------------------------------------------
# both children in one pass
# ----------------------------------------------------------------------
def one_side(stages: ShardedStages, level: LevelPlan, side: str) -> np.ndarray:
    """One side's fraction table below ``level``, as the walk cut each
    child apart before ``split`` (the reference, errors included)."""
    names = stages.skeleton.names
    try:
        entries = list(map(level.assignment, names))
    except KeyError as missing:
        raise KeyError(f"no assignment for layer {missing.args[0]!r}") \
            from None
    alpha = np.array([entry.alpha for entry in entries], dtype=float)
    inside = (alpha > 0.0) & (alpha < 1.0)
    if not inside.all():
        row = int(np.argmin(inside))
        raise ValueError(f"ratio of layer {names[row]!r} must be in (0, 1), "
                         f"got {entries[row].alpha}")
    rows = np.arange(len(names))
    columns = [TYPE_INDEX[entry.ptype] for entry in entries]
    cut = stages.fractions[rows, columns] * (alpha if side == "left"
                                              else 1.0 - alpha)
    inside = (cut > 0.0) & (cut <= 1.0)
    if not inside.all():
        row = int(np.argmin(inside))
        raise ValueError(f"fraction of layer {names[row]!r} must be in "
                         f"(0, 1], got {cut[row]}")
    fractions = stages.fractions.copy()
    fractions[rows, columns] = cut
    return fractions


def level_of(stages, types, alphas) -> LevelPlan:
    return LevelPlan([LayerAssignment(name, ptype, alpha) for name, ptype, alpha
                      in zip(stages.skeleton.names, types, alphas)])


def random_table(rng, model):
    stages = to_sharded_stages(build_model(model).stages(batch=32))
    return ShardedStages(stages.skeleton, np.array(
        [rng.choice((1.0, 0.5, 0.3, 0.7, 0.125, rng.uniform(1e-6, 1.0)))
         for _ in range(3 * len(stages))]).reshape(len(stages), 3))


#: ratios a level may hold: the even split, its neighbours, the solver's
#: bracket ends and anything between
RATIOS = (0.5, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53, 1e-3, 1.0 - 1e-3)


def assert_split_matches(stages, level):
    left, right = stages.split(level)
    want_left = one_side(stages, level, "left")
    want_right = one_side(stages, level, "right")
    assert_bits(left.fractions, want_left)
    assert_bits(right.fractions, want_right)
    assert (left is right) == (want_left.tobytes() == want_right.tobytes())
    for child in (left, right):
        assert child.skeleton is stages.skeleton
        assert not child.fractions.flags.writeable
    return left, right


class TestSplit:
    @pytest.mark.parametrize("model", ["alexnet", "resnet18", "trident"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_two_one_side_cuts(self, model, seed):
        rng = random.Random(seed)
        stages = random_table(rng, model)
        for _ in range(20):
            types = [rng.choice(ALL_TYPES) for _ in range(len(stages))]
            alphas = [rng.choice(RATIOS + (rng.uniform(1e-3, 1.0 - 1e-3),))
                      for _ in range(len(stages))]
            assert_split_matches(stages, level_of(stages, types, alphas))

    @pytest.mark.parametrize("model", ["alexnet", "resnet18"])
    def test_even_split_gives_one_table(self, model):
        stages = random_table(random.Random(model), model)
        types = [ALL_TYPES[row % 3] for row in range(len(stages))]
        left, right = assert_split_matches(
            stages, level_of(stages, types, [0.5] * len(stages)))
        assert left is right
        # one uneven layer gives two tables
        alphas = [0.5] * len(stages)
        alphas[-1] = 0.5 - 2.0 ** -54
        left, right = assert_split_matches(stages,
                                           level_of(stages, types, alphas))
        assert left is not right

    def test_the_cut_values_decide_not_the_ratio(self):
        """α a hair below ½ leaves a subnormal fraction's two cuts equal:
        one table, as the values dictate."""
        stages = to_sharded_stages(build_model("alexnet").stages(batch=32))
        stages = ShardedStages(stages.skeleton,
                               np.full((len(stages), 3), 2.0 ** -1030))
        alpha = 0.5 - 2.0 ** -54
        assert alpha != 0.5
        left, right = assert_split_matches(
            stages, level_of(stages, [I] * len(stages), [alpha] * len(stages)))
        assert left is right

    def test_shared_table_keeps_its_key(self):
        stages = to_sharded_stages(build_model("alexnet").stages(batch=32))
        left, right = stages.split(level_of(stages, [II] * len(stages),
                                            [0.5] * len(stages)))
        assert left is right
        key = left.key()
        assert right.key() is key
        assert key == ShardedStages(stages.skeleton,
                                    left.fractions.copy()).key()

    @staticmethod
    def errors(stages, level):
        """What ``split`` raises, and what the two one-side cuts raised,
        left first."""
        found = []
        for attempt in (lambda: stages.split(level),
                        lambda: [one_side(stages, level, side)
                                 for side in ("left", "right")]):
            with pytest.raises((KeyError, ValueError)) as raised:
                attempt()
            found.append((raised.type, str(raised.value)))
        return found

    def test_missing_assignment(self):
        stages = to_sharded_stages(build_model("alexnet").stages(batch=32))
        split, reference = self.errors(stages, LevelPlan())
        assert split == reference
        assert split[0] is KeyError and "cv1" in split[1]
        split, reference = self.errors(stages,
                                       level_of(stages, [I] * 3, [0.5] * 3))
        assert split == reference
        assert split[0] is KeyError and "cv4" in split[1]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_ratio_outside_the_open_interval(self, alpha):
        stages = to_sharded_stages(build_model("resnet18").stages(batch=32))
        alphas = [0.5] * len(stages)
        alphas[3] = alpha
        split, reference = self.errors(
            stages, level_of(stages, [I] * len(stages), alphas))
        assert split == reference
        assert split[0] is ValueError and "ratio" in split[1]

    @pytest.mark.parametrize("alpha,sides", [(0.25, "left"), (0.75, "right"),
                                             (0.5, "both")])
    def test_fraction_underflow(self, alpha, sides):
        """The smallest subnormal fraction: a quarter of it rounds to 0,
        three quarters to itself, and half of it, a tie, to even (0)."""
        stages = to_sharded_stages(build_model("alexnet").stages(batch=32))
        fractions = np.ones((len(stages), 3))
        fractions[2, 0] = 5e-324
        stages = ShardedStages(stages.skeleton, fractions)
        alphas = [0.5] * len(stages)
        alphas[2] = alpha
        level = level_of(stages, [I] * len(stages), alphas)
        split, reference = self.errors(stages, level)
        assert split == reference
        assert split[0] is ValueError and "fraction of layer 'cv3'" in split[1]
        survivors = []
        for side in ("left", "right"):
            try:
                one_side(stages, level, side)
                survivors.append(side)
            except ValueError:
                pass
        assert survivors == {"left": ["right"], "right": ["left"],
                             "both": []}[sides]

    def test_left_side_errors_first(self):
        """The left cut underflows in a later row than the right one: the
        left side's row is named, as when the left child was cut first."""
        stages = to_sharded_stages(build_model("alexnet").stages(batch=32))
        fractions = np.ones((len(stages), 3))
        fractions[[1, 2], 0] = 5e-324
        stages = ShardedStages(stages.skeleton, fractions)
        alphas = [0.5] * len(stages)
        alphas[1], alphas[2] = 0.75, 0.25
        split, reference = self.errors(
            stages, level_of(stages, [I] * len(stages), alphas))
        assert split == reference
        assert "fraction of layer 'cv3'" in split[1]


# ----------------------------------------------------------------------
# one count per plan
# ----------------------------------------------------------------------
#: a plan's search counts at batch 64 under accpar, as the per-level
#: counting gave them (timings left out)
PLAN_COUNTS = {
    ("alexnet", "hetero"): {
        "hierarchy_memo_hits": 12, "hierarchy_memo_misses": 15,
        "level_plans_dp": 15, "ratio_closed_linear": 9,
        "ratio_closed_quadratic": 1, "ratio_minimax": 62,
        "ratio_solves": 1080, "ratio_symmetric": 1008, "step_calls": 960,
        "vec_searches": 15},
    ("alexnet", "homo"): {
        "hierarchy_memo_hits": 6, "hierarchy_memo_misses": 7,
        "level_plans_dp": 7, "ratio_solves": 504, "ratio_symmetric": 504,
        "step_calls": 448, "vec_searches": 7},
    ("resnet18", "hetero"): {
        "boundary_calls": 960, "hierarchy_memo_hits": 12,
        "hierarchy_memo_misses": 15, "level_plans_dp": 15,
        "multipath_path_dp_runs": 495, "ratio_closed_linear": 30,
        "ratio_closed_quadratic": 6, "ratio_minimax": 153,
        "ratio_solves": 2835, "ratio_symmetric": 2646, "step_calls": 2520,
        "vec_multipath_batches": 165, "vec_searches": 15},
    ("resnet18", "homo"): {
        "boundary_calls": 448, "hierarchy_memo_hits": 6,
        "hierarchy_memo_misses": 7, "level_plans_dp": 7,
        "multipath_path_dp_runs": 231, "ratio_solves": 1323,
        "ratio_symmetric": 1323, "step_calls": 1176,
        "vec_multipath_batches": 77, "vec_searches": 7},
    ("resnet50", "hetero"): {
        "boundary_calls": 1920, "hierarchy_memo_hits": 12,
        "hierarchy_memo_misses": 15, "level_plans_dp": 15,
        "multipath_path_dp_runs": 900, "ratio_closed_linear": 87,
        "ratio_closed_quadratic": 9, "ratio_minimax": 390,
        "ratio_solves": 7290, "ratio_symmetric": 6804, "step_calls": 6480,
        "vec_multipath_batches": 300, "vec_searches": 15},
    ("resnet50", "homo"): {
        "boundary_calls": 896, "hierarchy_memo_hits": 6,
        "hierarchy_memo_misses": 7, "level_plans_dp": 7,
        "multipath_path_dp_runs": 420, "ratio_solves": 3402,
        "ratio_symmetric": 3402, "step_calls": 3024,
        "vec_multipath_batches": 140, "vec_searches": 7},
}
TIMINGS = ("vec_pack_ns", "vec_recurrence_ns")


def level_by_level(planned, scheme) -> Counter:
    """The plan's level searches run again one by one, each counted into
    its own ``StepStats``, and summed."""
    total: Counter = Counter()
    seen = set()

    def visit(step):
        if step is None or step.level is None or id(step) in seen:
            return
        seen.add(id(step))
        stats = StepStats()
        scheme.level_plan(step.stages, step.node.left.group,
                          step.node.right.group, planned.dtype_bytes, stats)
        total.update(stats.as_dict())
        visit(step.left)
        visit(step.right)

    visit(walk(planned.tree, planned.stages, stored_level, planned.plan))
    total[scheme.level_plans_counter] = len(seen)
    return total


def without(counts, names):
    return {name: value for name, value in counts.items()
            if value and name not in names}


class TestOneCountPerPlan:
    @pytest.mark.parametrize("model,array", sorted(PLAN_COUNTS))
    def test_plan_counts_are_its_levels_counts(self, model, array, tmp_path):
        scheme = get_scheme("accpar")
        owner = Participant()
        previous = set_request_context(owner)
        try:
            with TelemetryWriter(tmp_path) as writer:
                planned = Planner(parse_array(array), scheme,
                                  telemetry=writer).plan(model, 64)
        finally:
            set_request_context(*previous)
        (event,) = read_events(tmp_path, types=("search",))
        counts = without(owner.planner_counts(), TIMINGS)
        assert without(event["counters"], TIMINGS) == counts
        assert counts == PLAN_COUNTS[(model, array)]
        memo = ("hierarchy_memo_hits", "hierarchy_memo_misses")
        assert without(level_by_level(planned, scheme), TIMINGS) == \
            without(counts, memo)
