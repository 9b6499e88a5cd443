"""Equivalence and property tests for the vectorized Eq. 9 recurrence.

The contract under test: :func:`repro.core.dp_vectorized.search_stages` is
*bit-identical* to the scalar reference recurrence of
``tests/reference_search.py`` fed from the same packed step costs — same
typed entries in the same order, the same float cost, the same exit state
— across randomized series-parallel workloads (including nested
fork-in-path regions and per-layer space restrictions), every ratio mode,
analytic and calibrated profiles, and the degenerate corners.  The shared
tie-break rule in :mod:`repro.core.tiebreak` gets its own property test:
the masked argmin must agree with a literal first-seen-wins scalar scan.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.cost_model import REACHABLE_CELLS, PairCostModel
from repro.core.dp_vectorized import search_stages
from repro.core.stages import (
    ShardedLayerStage,
    ShardedParallelStage,
    iter_sharded_workloads,
)
from repro.core.tiebreak import (
    COST_REL_TOL,
    UNREACHABLE,
    improves,
    masked_first_within_slack,
)
from repro.core.types import ALL_TYPES, HYPAR_TYPES, PartitionType, ShardedWorkload
from repro.graph.layers import LayerWorkload
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.hardware.profile import CalibratedProfile, SpecProfile, load_profile
from tests.reference_search import reference_search

#: {tpu-v3} and {tpu-v2, tpu-v2} have equal effective compute and equal peak
#: link bandwidth under this profile, but effective bandwidths 100x apart
SPLIT_COLLISION = (Path(__file__).parent / "fixtures" / "profiles"
                   / "split_collision.json")

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III

#: per-layer restrictions the generator draws from (never empty)
_RESTRICTIONS = (
    ALL_TYPES,
    HYPAR_TYPES,
    (I,),
    (II,),
    (III,),
    (I, III),
    (II, III),
)


def fc_layer(name, batch, d_in, d_out, fracs=(1.0, 1.0, 1.0)):
    w = LayerWorkload(name, batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)
    return ShardedLayerStage(ShardedWorkload(w, *fracs))


def conv_layer(name, batch, d_in, d_out, hw, k, fracs=(1.0, 1.0, 1.0)):
    w = LayerWorkload(name, batch, d_in, d_out, (hw, hw), (hw, hw), (k, k), True)
    return ShardedLayerStage(ShardedWorkload(w, *fracs))


class _StageGen:
    """Seeded random series-parallel stage lists (unique layer names)."""

    def __init__(self, rng):
        self.rng = rng
        self.counter = 0

    def layer(self):
        rng = self.rng
        self.counter += 1
        name = f"l{self.counter}"
        batch = rng.choice((8, 16, 64, 256))
        d_in = rng.choice((3, 16, 64, 512))
        d_out = rng.choice((10, 32, 128, 1024))
        fracs = tuple(rng.choice((1.0, 0.5, 0.25, 0.7)) for _ in range(3))
        if rng.random() < 0.5:
            return conv_layer(name, batch, d_in, d_out,
                              rng.choice((4, 7, 14)), rng.choice((1, 3)),
                              fracs)
        return fc_layer(name, batch, d_in, d_out, fracs)

    def chain(self, max_len, depth):
        n = self.rng.randint(1, max_len)
        out = []
        for _ in range(n):
            if depth < 2 and self.rng.random() < 0.3:
                out.append(self.parallel(depth))
            else:
                out.append(self.layer())
        return out

    def parallel(self, depth):
        rng = self.rng
        self.counter += 1
        name = f"fork{self.counter}"
        n_paths = rng.randint(2, 3)
        # at most one identity-skip path, never all of them
        skip_at = rng.randrange(n_paths) if rng.random() < 0.4 else -1
        paths = tuple(
            () if p == skip_at else tuple(self.chain(3, depth + 1))
            for p in range(n_paths)
        )
        if not any(paths):  # all paths rolled empty: force one layer
            paths = ((self.layer(),),) + paths[1:]
        return ShardedParallelStage(paths=paths, name=name)


def random_model(rng):
    lhs = make_group(rng.choice((TPU_V2, TPU_V3)), rng.choice((1, 2, 4)))
    rhs = make_group(rng.choice((TPU_V2, TPU_V3)), rng.choice((1, 2, 8)))
    mode = rng.choice(("balanced", "proportional", "equal", "comm-volume"))
    return PairCostModel(
        lhs, rhs,
        dtype_bytes=rng.choice((1, 2, 4)),
        ratio_mode=mode,
    )


def random_profile(rng):
    """A random calibrated profile covering both spec generations."""
    def spec_profile(spec):
        rates = [("default", spec.flops * rng.uniform(0.3, 0.9))]
        if rng.random() < 0.8:
            rates.append(("conv", spec.flops * rng.uniform(0.3, 0.9)))
        if rng.random() < 0.8:
            rates.append(("fc", spec.flops * rng.uniform(0.2, 0.8)))
        curve = ()
        if rng.random() < 0.8:
            sizes = sorted({rng.choice((1e3, 1e4, 1e5, 1e6, 1e7))
                            for _ in range(rng.choice((1, 2, 3)))})
            curve = tuple((s, rng.uniform(0.2, 1.0)) for s in sizes)
        return SpecProfile(
            spec=spec.name,
            compute_rates=tuple(rates),
            bandwidth_efficiency=curve,
            transfer_latency_s=rng.choice((0.0, 5e-6, 2e-5)),
        )

    return CalibratedProfile(
        name=f"rand-{rng.randint(0, 1 << 30)}",
        specs=(spec_profile(TPU_V2), spec_profile(TPU_V3)),
    )


def random_calibrated_model(rng):
    lhs = make_group(rng.choice((TPU_V2, TPU_V3)), rng.choice((1, 2, 4)))
    rhs = make_group(rng.choice((TPU_V2, TPU_V3)), rng.choice((1, 2, 8)))
    mode = rng.choice(("balanced", "proportional", "equal"))
    return PairCostModel(
        lhs, rhs,
        dtype_bytes=rng.choice((1, 2, 4)),
        ratio_mode=mode,
        profile=random_profile(rng),
    )


def assert_same_search(stages, model_a, model_b, space=ALL_TYPES, space_fn=None):
    """The DP on ``model_b`` == the reference fed from ``model_a``'s pack."""
    scalar = reference_search(stages, model_a, space=space, space_fn=space_fn)
    vector = search_stages(stages, model_b, space, space_fn=space_fn)
    assert vector.entries == scalar.entries
    assert vector.cost == scalar.cost          # bitwise, not approx
    assert vector.exit_state == scalar.exit_state


class TestRandomizedEquivalence:
    """≥200 random workloads: DP and reference emit bit-identical plans."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_series_parallel(self, seed):
        rng = random.Random(8800 + seed)
        gen = _StageGen(rng)
        stages = gen.chain(6, 0)
        workloads = list(iter_sharded_workloads(stages))
        assert workloads  # the generator never returns a layer-free net
        model_a = random_model(random.Random(17 * seed))
        model_b = random_model(random.Random(17 * seed))
        assert_same_search(stages, model_a, model_b)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_with_space_fn(self, seed):
        rng = random.Random(4400 + seed)
        gen = _StageGen(rng)
        stages = gen.chain(5, 0)
        restrict = {
            w.name: rng.choice(_RESTRICTIONS)
            for w in iter_sharded_workloads(stages)
        }
        fn = lambda w: restrict[w.name]
        model_a = random_model(random.Random(23 * seed))
        model_b = random_model(random.Random(23 * seed))
        assert_same_search(stages, model_a, model_b, space_fn=fn)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_restricted_global_space(self, seed):
        rng = random.Random(6600 + seed)
        gen = _StageGen(rng)
        stages = gen.chain(5, 0)
        space = rng.choice((HYPAR_TYPES, (I, III), (II,)))
        model_a = random_model(random.Random(31 * seed))
        model_b = random_model(random.Random(31 * seed))
        assert_same_search(stages, model_a, model_b, space=space)

    def test_generator_covers_nested_forks(self):
        # sanity on the generator itself: across the seeds used above, at
        # least one net nests a fork inside a fork path, and at least one
        # carries an identity-skip path
        nested = skipped = 0
        for seed in range(40):
            gen = _StageGen(random.Random(8800 + seed))
            stages = gen.chain(6, 0)

            def scan(sub, depth):
                nonlocal nested, skipped
                for st in sub:
                    if isinstance(st, ShardedParallelStage):
                        if depth > 0:
                            nested += 1
                        for path in st.paths:
                            if not path:
                                skipped += 1
                            scan(path, depth + 1)

            scan(stages, 0)
        assert nested > 0 and skipped > 0

    def test_total_workload_count_is_at_least_200(self):
        total = 0
        for seed in range(40):
            gen = _StageGen(random.Random(8800 + seed))
            total += len(list(iter_sharded_workloads(gen.chain(6, 0))))
        assert total >= 200


class TestCalibratedProfileEquivalence:
    """The bit-identity contract extends to calibrated profiles: per-kind
    rates, bandwidth curves and latency constants only change the packed
    costs, which both recurrences read, so plans must stay bitwise equal,
    not just close."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_series_parallel_with_profile(self, seed):
        rng = random.Random(5500 + seed)
        gen = _StageGen(rng)
        stages = gen.chain(6, 0)
        model_a = random_calibrated_model(random.Random(41 * seed))
        model_b = random_calibrated_model(random.Random(41 * seed))
        assert_same_search(stages, model_a, model_b)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_with_space_fn_and_profile(self, seed):
        rng = random.Random(7700 + seed)
        gen = _StageGen(rng)
        stages = gen.chain(5, 0)
        restrict = {
            w.name: rng.choice(_RESTRICTIONS)
            for w in iter_sharded_workloads(stages)
        }
        fn = lambda w: restrict[w.name]
        model_a = random_calibrated_model(random.Random(43 * seed))
        model_b = random_calibrated_model(random.Random(43 * seed))
        assert_same_search(stages, model_a, model_b, space_fn=fn)

    def test_each_model_prices_its_own_alignments(self):
        """A search reads no re-alignment cost another model priced, even
        one whose parties sum to the same compute and peak bandwidth."""
        profile = load_profile(SPLIT_COLLISION)
        stages = [
            conv_layer("pre", 8, 64, 64, 14, 3),
            ShardedParallelStage(
                paths=(
                    (conv_layer("a1", 8, 64, 64, 14, 3),
                     conv_layer("a2", 8, 64, 64, 14, 3)),
                    (conv_layer("b1", 8, 64, 64, 14, 1),),
                    (),
                ),
                name="blk",
            ),
            fc_layer("post", 8, 64 * 14 * 14, 10),
        ]
        fast = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1),
                             profile=profile)
        search_stages(stages, fast)
        slow = lambda: PairCostModel(make_group(TPU_V2, 2),
                                     make_group(TPU_V2, 2), profile=profile)
        assert_same_search(stages, slow(), slow())

    def test_alignment_matrix_is_memoized_per_model(self):
        model = two_party_model()
        states = (None, I, II, III)
        matrix = model.alignment_matrix(1024.0, states, ALL_TYPES)
        assert model.alignment_matrix(1024.0, states, ALL_TYPES) is matrix
        assert two_party_model().alignment_matrix(
            1024.0, states, ALL_TYPES) is not matrix
        assert matrix.tolist() == [
            [model.alignment_cost(1024.0, frm, to) for to in ALL_TYPES]
            for frm in states
        ]


def two_party_model(**kwargs):
    return PairCostModel(make_group(TPU_V3, 2), make_group(TPU_V2, 2), **kwargs)


class TestDegenerateCases:
    def test_single_layer(self):
        stages = [fc_layer("only", 32, 64, 64)]
        assert_same_search(stages, two_party_model(), two_party_model())

    def test_empty_stage_list(self):
        result = search_stages([], two_party_model())
        assert result.entries == ()
        assert result.cost == 0.0
        assert result.exit_state is None

    def test_empty_space_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            search_stages([fc_layer("l", 8, 8, 8)], two_party_model(), space=())

    def test_all_empty_fork_raises(self):
        region = ShardedParallelStage(paths=((), ()), name="hollow")
        with pytest.raises(ValueError, match="no weighted layers"):
            search_stages([region], two_party_model())

    def test_hypar_space(self):
        stages = [fc_layer(f"l{i}", 64, 128, 128) for i in range(4)]
        assert_same_search(stages, two_party_model(), two_party_model(),
                           space=HYPAR_TYPES)

    def test_all_tied_costs_break_identically(self):
        # identical parties + equal ratios make symmetric layers tie across
        # types; both backends must pick the same first-seen winner
        identical = lambda: PairCostModel(
            make_group(TPU_V3, 2), make_group(TPU_V3, 2), ratio_mode="equal"
        )
        stages = [fc_layer(f"sym{i}", 64, 64, 64) for i in range(5)]
        assert_same_search(stages, identical(), identical())

    def test_fork_join_chain(self):
        stages = [
            fc_layer("pre", 64, 64, 64),
            ShardedParallelStage(
                paths=(
                    (fc_layer("a1", 64, 64, 64), fc_layer("a2", 64, 64, 64)),
                    (fc_layer("b1", 64, 64, 64),),
                    (),
                ),
                name="blk",
            ),
            fc_layer("post", 64, 64, 64),
        ]
        assert_same_search(stages, two_party_model(), two_party_model())


class TestTieBreakProperty:
    """masked_first_within_slack == the scalar first-seen-wins scan."""

    @staticmethod
    def scalar_scan(cand):
        rows, n_in, n_out = cand.shape
        values = np.empty((rows, n_out))
        choices = np.empty((rows, n_out), dtype=int)
        for r in range(rows):
            for j in range(n_out):
                best = None
                best_i = 0
                for i in range(n_in):
                    if best is None or improves(float(cand[r, i, j]), best):
                        best = float(cand[r, i, j])
                        best_i = i
                values[r, j] = best
                choices[r, j] = best_i
        return values, choices

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_scan_on_random_costs(self, seed):
        rng = np.random.default_rng(seed)
        cand = rng.uniform(0.001, 10.0, size=(4, 3, 3))
        # exact ties and unreachable sentinels, like real frontiers
        cand[0, 2, :] = cand[0, 0, :]
        cand[1, 1, 0] = UNREACHABLE
        cand[2, :, 1] = UNREACHABLE
        values, choices = masked_first_within_slack(cand)
        ref_values, ref_choices = self.scalar_scan(cand)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(choices, ref_choices)

    def test_exact_tie_prefers_lowest_index(self):
        cand = np.full((1, 3, 2), 5.0)
        values, choices = masked_first_within_slack(cand)
        assert np.array_equal(choices, [[0, 0]])
        assert np.array_equal(values, [[5.0, 5.0]])

    def test_within_slack_counts_as_tie(self):
        base = 1.0
        lower = base * (1.0 - COST_REL_TOL / 2)
        cand = np.array([[[base], [lower]]])
        values, choices = masked_first_within_slack(cand)
        # the second candidate is lower but within slack: first-seen wins
        # and keeps its own value, exactly like the scalar incumbent
        assert choices[0, 0] == 0
        assert values[0, 0] == base

    def test_beyond_slack_is_a_real_win(self):
        cand = np.array([[[1.0], [0.9]]])
        values, choices = masked_first_within_slack(cand)
        assert choices[0, 0] == 1
        assert values[0, 0] == 0.9


class TestCounters:
    def test_vec_counters_tick(self):
        stages = [
            fc_layer("pre", 64, 64, 64),
            ShardedParallelStage(
                paths=((fc_layer("a", 64, 64, 64),), ()), name="blk"
            ),
        ]
        model = two_party_model()
        search_stages(stages, model)
        s = model.stats
        assert s.vec_searches == 1
        assert s.step_calls == 2 * REACHABLE_CELLS   # one pack of two layers
        assert s.ratio_solves > 0
        assert s.vec_multipath_batches == 1
        assert s.vec_pack_ns > 0
        assert s.vec_recurrence_ns > 0

    def test_every_search_packs_afresh(self):
        # no cross-search pack cache: each search builds its own tensors
        stages = [fc_layer(f"l{i}", 64, 64, 64) for i in range(3)]
        model = two_party_model()
        search_stages(stages, model)
        search_stages(stages, model)
        assert model.stats.step_calls == 2 * 3 * REACHABLE_CELLS
