"""Equivalence and property tests for the packed Eq. 9 recurrence.

The contract under test: :func:`repro.core.dp_vectorized.search_stages` is
*bit-identical* to the scalar reference recurrence of
``tests/reference_search.py`` fed from the same packed step costs — same
typed entries in the same order, the same float cost, the same exit state
— across randomized series-parallel workloads (including nested
fork-in-path regions and per-layer space restrictions), every ratio mode,
analytic and calibrated profiles, and the degenerate corners.  The shared
tie-break rule in :mod:`repro.core.tiebreak` gets its own tests: the
float min-plus step must pick, cell by cell, what ``first_within_slack``
picks over that cell's candidates, for every frontier, in-state and
out-state count, on exact, near and chained ties; and a stub pack that
carries a chained near-tie into a layer must plan alike in the DP and the
reference.
"""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.cost_model import (
    FAMILY_CROSS,
    FAMILY_E,
    FAMILY_ZERO,
    PACKED_FAMILY_INDEX,
    REACHABLE_CELLS,
    TYPE_INDEX,
    PairCostModel,
    StepTensors,
)
from repro.core.dp_vectorized import search_stages
from repro.core.tiebreak import first_within_slack, min_plus_step
from repro.core.types import ALL_TYPES, HYPAR_TYPES, PartitionType, ShardedWorkload
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage, ParallelStage, iter_stage_workloads
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.hardware.profile import CalibratedProfile, SpecProfile, load_profile
from tests.reference_search import reference_search
from tests.tables import table

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
    return LayerStage(ShardedWorkload(w, *fracs))


def conv_layer(name, batch, d_in, d_out, hw, k, fracs=(1.0, 1.0, 1.0)):
    w = LayerWorkload(name, batch, d_in, d_out, (hw, hw), (hw, hw), (k, k), True)
    return LayerStage(ShardedWorkload(w, *fracs))


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
        return ParallelStage(paths=paths, name=name)


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


def search(stages, model, *args, **kwargs):
    """The DP over a stage list's table."""
    return search_stages(table(stages), model, *args, **kwargs)


def assert_same_search(stages, model_a, model_b, space=ALL_TYPES, space_fn=None):
    """The DP on ``model_b`` == the reference fed from ``model_a``'s pack."""
    stages = table(stages)
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
        workloads = list(iter_stage_workloads(stages))
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
            for w in iter_stage_workloads(stages)
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
                    if isinstance(st, ParallelStage):
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
            total += len(list(iter_stage_workloads(gen.chain(6, 0))))
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
            for w in iter_stage_workloads(stages)
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
            ParallelStage(
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
        search(stages, fast)
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
        assert matrix == tuple(
            tuple(model.alignment_cost(1024.0, frm, to) for to in ALL_TYPES)
            for frm in states
        )


def two_party_model(**kwargs):
    return PairCostModel(make_group(TPU_V3, 2), make_group(TPU_V2, 2), **kwargs)


class TestDegenerateCases:
    def test_single_layer(self):
        stages = [fc_layer("only", 32, 64, 64)]
        assert_same_search(stages, two_party_model(), two_party_model())

    def test_empty_stage_list(self):
        result = search([], two_party_model())
        assert result.entries == ()
        assert result.cost == 0.0
        assert result.exit_state is None

    def test_empty_space_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            search([fc_layer("l", 8, 8, 8)], two_party_model(), space=())

    def test_all_empty_fork_raises(self):
        region = ParallelStage(paths=((), ()), name="hollow")
        with pytest.raises(ValueError, match="no weighted layers"):
            search([region], two_party_model())

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
            ParallelStage(
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


#: candidate columns with a known winner among three in-states:
#: (name, candidates, winning index)
NAMED_TIES = (
    ("exact tie", (5.0, 5.0, 5.0), 0),
    ("within slack", (1.0, 1.0 - 0.9e-9, 2.0), 0),
    ("just past slack", (1.0, 1.0 - 1.1e-9, 2.0), 1),
    ("minimum last", (3.0, 2.0, 1.0), 2),
    # each neighbour within slack of the next, the ends not: the rule
    # measures from the minimum, so index 1 wins, not the chain's end
    ("chained tie", (1.0, 1.0 - 0.8e-9, 1.0 - 1.6e-9), 1),
)


class TestMinPlusStep:
    """The float min-plus step picks what ``first_within_slack`` picks."""

    @staticmethod
    def assert_cellwise(frontier, step):
        values, choices = min_plus_step(frontier, step)
        n_out = len(step[0])
        assert len(values) == len(frontier)
        assert len(choices) == len(frontier) * n_out
        for r, frow in enumerate(frontier):
            assert len(values[r]) == n_out
            for j in range(n_out):
                cands = [f + s[j] for f, s in zip(frow, step)]
                k = first_within_slack(cands)
                assert choices[r * n_out + j] == k, (r, j, cands)
                assert values[r][j] == cands[k]

    @pytest.mark.parametrize(
        "rows,n_in,n_out", list(itertools.product((1, 2, 3), repeat=3)))
    def test_every_shape_matches_first_within_slack(self, rows, n_in, n_out):
        rng = random.Random(rows * 100 + n_in * 10 + n_out)
        for _, column, _ in NAMED_TIES:
            # random costs, then one named candidate column planted in
            # out-state 0: row 0 of the frontier is zero, so cell (0, 0)
            # sees the column exactly
            frontier = [[rng.uniform(0.0, 2.0) for _ in range(n_in)]
                        for _ in range(rows)]
            frontier[0] = [0.0] * n_in
            step = [[rng.uniform(0.0, 2.0) for _ in range(n_out)]
                    for _ in range(n_in)]
            for i in range(n_in):
                step[i][0] = column[i]
            self.assert_cellwise(frontier, step)
            # and the column carried by the frontier into every out-state
            if rows > 1:
                frontier[1] = list(column[:n_in])
                for i in range(n_in):
                    step[i] = [0.0] * n_out
                self.assert_cellwise(frontier, step)

    @pytest.mark.parametrize("name,column,winner", NAMED_TIES,
                             ids=[t[0] for t in NAMED_TIES])
    def test_named_ties(self, name, column, winner):
        assert first_within_slack(column) == winner
        values, choices = min_plus_step([[0.0, 0.0, 0.0]],
                                        [[c] for c in column])
        assert list(choices) == [winner]
        # the winner keeps its own value, not the minimum
        assert values == [[column[winner]]]

    @pytest.mark.parametrize("column,winner", [
        ((4.0,), 0),
        ((1.0, 1.0), 0),
        ((1.0, 1.0 - 0.9e-9), 0),
        ((1.0, 1.0 - 1.1e-9), 1),
    ])
    def test_one_or_two_in_states(self, column, winner):
        assert first_within_slack(column) == winner
        values, choices = min_plus_step([[0.0] * len(column)],
                                        [[c] for c in column])
        assert list(choices) == [winner]
        assert values == [[column[winner]]]


class StubPackModel(PairCostModel):
    """A cost model whose pack is a fixed tensor: step costs set by hand."""

    def __init__(self, cost):
        super().__init__(make_group(TPU_V3, 2), make_group(TPU_V2, 2))
        self.cost = np.asarray(cost, dtype=float)

    def pack_step_tensors(self, workloads):
        assert len(workloads) == self.cost.shape[0]
        # a chain has no fork tensors to size
        return StepTensors(self.cost.copy(), np.full(self.cost.shape, 0.5),
                           None)


class TestChainedNearTie:
    def test_dp_and_reference_agree_on_a_chained_near_tie(self):
        # layer a costs nothing in any type; entering layer b as Type-I
        # from a's Type-I, II, III costs the chained tie (1, 1-0.8e-9,
        # 1-1.6e-9), and b's other types cost 10
        zero, cross = PACKED_FAMILY_INDEX[FAMILY_ZERO], PACKED_FAMILY_INDEX[FAMILY_CROSS]
        move = PACKED_FAMILY_INDEX[FAMILY_E]
        cost = np.zeros((2, 3, 3))
        cost[1] = 10.0
        cost[1, zero, TYPE_INDEX[I]] = 1.0            # I -> I
        cost[1, move, TYPE_INDEX[I]] = 1.0 - 0.8e-9   # II -> I
        cost[1, cross, TYPE_INDEX[I]] = 1.0 - 1.6e-9  # III -> I
        stages = [fc_layer("a", 8, 8, 8), fc_layer("b", 8, 8, 8)]
        assert_same_search(stages, StubPackModel(cost), StubPackModel(cost))
        result = search(stages, StubPackModel(cost))
        assert [e.ptype for e in result.entries] == [II, I]
        assert result.cost == 1.0 - 0.8e-9


class TestCounters:
    def test_vec_counters_tick(self):
        stages = [
            fc_layer("pre", 64, 64, 64),
            ParallelStage(
                paths=((fc_layer("a", 64, 64, 64),), ()), name="blk"
            ),
        ]
        model = two_party_model()
        search(stages, model)
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
        search(stages, model)
        search(stages, model)
        assert model.stats.step_calls == 2 * 3 * REACHABLE_CELLS
