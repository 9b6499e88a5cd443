"""Unit tests for the cost model: Tables 4, 5, 6 and the step policies."""

from typing import NamedTuple

import pytest

from repro.core.cost_model import (
    CROSS_TRANSITIONS,
    E_TRANSITIONS,
    F_TRANSITIONS,
    PairCostModel,
    ZERO_TRANSITIONS,
    inter_layer_elements,
)
from repro.core.types import ALL_TYPES, PartitionType, ShardedWorkload
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, make_group
from tests.tables import table

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


class Step(NamedTuple):
    cost: float
    alpha: float
    cost_i: float
    cost_j: float
    compute_i: float
    comm_i: float


def step(model, sw, prev, cur):
    """One packed Eq. 9 step plus its per-party split at the packed α."""
    pack = model.pack_step_tensors(table([LayerStage(sw)]))
    cost, alpha = pack.cell(0, prev, cur)
    ci, cj, (cp_i, _), (cm_i, _) = model.step_pair_costs(sw, prev, cur, alpha)
    return Step(cost, alpha, ci, cj, cp_i, cm_i)


def fc_sw(batch=8, d_in=6, d_out=4):
    return ShardedWorkload(
        LayerWorkload("fc", batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)
    )


@pytest.fixture
def hetero_model():
    return PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                         dtype_bytes=2, ratio_mode="balanced")


@pytest.fixture
def homo_model():
    return PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1),
                         dtype_bytes=2, ratio_mode="balanced")


class TestTransitionTaxonomy:
    def test_nine_transitions_partitioned(self):
        all_pairs = {(a, b) for a in ALL_TYPES for b in ALL_TYPES}
        covered = (
            set(ZERO_TRANSITIONS) | set(CROSS_TRANSITIONS)
            | set(F_TRANSITIONS) | set(E_TRANSITIONS)
        )
        assert covered == all_pairs
        # and the four classes are disjoint
        total = (len(ZERO_TRANSITIONS) + len(CROSS_TRANSITIONS)
                 + len(F_TRANSITIONS) + len(E_TRANSITIONS))
        assert total == 9

    def test_zero_transitions_match_figure2(self):
        assert (I, I) in ZERO_TRANSITIONS
        assert (II, III) in ZERO_TRANSITIONS
        assert (III, II) in ZERO_TRANSITIONS


class TestTable5InterLayer:
    """inter_layer_elements against the closed forms of Table 5."""

    A_FM = 1000.0

    def test_zero_cost_transitions(self):
        for tt, t in ZERO_TRANSITIONS:
            assert inter_layer_elements(self.A_FM, tt, t, 0.3) == (0.0, 0.0)

    @pytest.mark.parametrize("tt,t", sorted(CROSS_TRANSITIONS,
                                            key=lambda p: (p[0].value, p[1].value)))
    def test_cross_transitions_alpha_beta_both_tensors(self, tt, t):
        alpha = 0.3
        expected = alpha * 0.7 * 2 * self.A_FM  # A(F) + A(E)
        amount_i, amount_j = inter_layer_elements(self.A_FM, tt, t, alpha)
        assert amount_i == pytest.approx(expected)
        assert amount_j == pytest.approx(expected)

    @pytest.mark.parametrize("tt,t", sorted(F_TRANSITIONS | E_TRANSITIONS,
                                            key=lambda p: (p[0].value, p[1].value)))
    def test_one_tensor_transitions(self, tt, t):
        alpha = 0.3
        amount_i, amount_j = inter_layer_elements(self.A_FM, tt, t, alpha)
        assert amount_i == pytest.approx(0.7 * self.A_FM)  # beta * A
        assert amount_j == pytest.approx(0.3 * self.A_FM)  # alpha * A

    def test_equal_ratio_is_symmetric(self):
        for tt in ALL_TYPES:
            for t in ALL_TYPES:
                amount_i, amount_j = inter_layer_elements(self.A_FM, tt, t, 0.5)
                assert amount_i == pytest.approx(amount_j)

    def test_cross_transition_vanishes_at_extreme_ratio(self):
        amount_i, _ = inter_layer_elements(self.A_FM, I, II, 1e-9)
        assert amount_i == pytest.approx(0.0, abs=1e-3)


class TestTable4IntraLayer:
    def test_type_i_moves_weight(self, homo_model):
        sw = fc_sw()
        ci, cj = homo_model.intra_costs(sw, I)
        expected = sw.a_weight() * 2 / TPU_V3.network_bandwidth
        assert ci == pytest.approx(expected)
        assert cj == pytest.approx(expected)

    def test_type_ii_moves_output_fm(self, homo_model):
        sw = fc_sw()
        ci, _ = homo_model.intra_costs(sw, II)
        assert ci == pytest.approx(sw.a_output_fm() * 2 / TPU_V3.network_bandwidth)

    def test_type_iii_moves_input_error(self, homo_model):
        sw = fc_sw()
        ci, _ = homo_model.intra_costs(sw, III)
        assert ci == pytest.approx(sw.a_input_fm() * 2 / TPU_V3.network_bandwidth)

    def test_intra_cost_uses_each_partys_bandwidth(self, hetero_model):
        sw = fc_sw()
        ci, cj = hetero_model.intra_costs(sw, I)
        assert ci * TPU_V3.network_bandwidth == pytest.approx(
            cj * TPU_V2.network_bandwidth
        )

    def test_intra_cost_independent_of_alpha(self, homo_model):
        """Table 4 note: local accumulation makes intra cost ratio-free."""
        sw = fc_sw()
        # intra_costs takes no alpha argument at all; assert it stays fixed
        # under sharding of the non-psum dimensions only through the tensor
        assert homo_model.intra_costs(sw, I) == homo_model.intra_costs(sw, I)


class TestComputeCost:
    def test_alpha_scales_flops(self, homo_model):
        sw = fc_sw()
        ci_half, _ = homo_model.compute_costs(sw, I, 0.5)
        ci_full, _ = homo_model.compute_costs(sw, I, 1.0)
        # psum adds are alpha-independent; subtract them out
        psum_time = sw.a_psum(I) / TPU_V3.flops
        assert (ci_full - psum_time) == pytest.approx(2 * (ci_half - psum_time))

    def test_parties_split_work(self, homo_model):
        sw = fc_sw()
        ci, cj = homo_model.compute_costs(sw, I, 0.25)
        psum_time = sw.a_psum(I) / TPU_V3.flops
        assert (ci - psum_time) * 3 == pytest.approx(cj - psum_time)

    def test_faster_party_computes_faster(self, hetero_model):
        sw = fc_sw()
        ci, cj = hetero_model.compute_costs(sw, I, 0.5)
        assert ci < cj  # party i is the TPU-v3


class TestStepPolicies:
    def test_balanced_step_equalizes_costs_when_balance_exists(self):
        # compute-bound setting (huge bandwidths): Eq. 10 has an interior root
        fast = type(TPU_V3)("f", TPU_V3.flops, 1, 1e30, 1e30)
        slow = type(TPU_V2)("s", TPU_V2.flops, 1, 1e30, 1e30)
        model = PairCostModel(make_group(fast, 1), make_group(slow, 1))
        d = step(model, fc_sw(batch=512, d_in=4096, d_out=4096), I, I)
        assert d.cost_i == pytest.approx(d.cost_j, rel=1e-3)

    def test_balanced_step_minimaxes_when_balance_impossible(self, hetero_model):
        # Table 4's intra term is alpha-independent; with the real 1 vs 2 GB/s
        # links it dominates and the v2 party is the floor no alpha removes
        sw = fc_sw(batch=512, d_in=4096, d_out=4096)
        d = step(hetero_model, sw, I, I)
        intra_j = sw.a_weight() * 2 / TPU_V2.network_bandwidth
        assert d.cost >= intra_j

    def test_balanced_alpha_favors_fast_party(self, hetero_model):
        sw = fc_sw(batch=512, d_in=4096, d_out=4096)
        d = step(hetero_model, sw, I, I)
        assert d.alpha > 0.5  # party i (v3) takes the bigger share

    def test_balanced_alpha_matches_flops_ratio_when_compute_bound(self):
        # make communication negligible: huge bandwidth
        fast = make_group(TPU_V3, 1)
        slow = make_group(TPU_V2, 1)
        big_bw_fast = type(TPU_V3)("f", TPU_V3.flops, 1, 1e30, 1e30)
        big_bw_slow = type(TPU_V2)("s", TPU_V2.flops, 1, 1e30, 1e30)
        model = PairCostModel(make_group(big_bw_fast, 1), make_group(big_bw_slow, 1))
        d = step(model, fc_sw(batch=512, d_in=512, d_out=512), None, I)
        assert d.alpha == pytest.approx(420 / (420 + 180), rel=1e-2)

    def test_equal_mode_takes_slower_party(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                              ratio_mode="equal")
        sw = fc_sw(batch=512, d_in=4096, d_out=4096)
        d = step(model, sw, I, I)
        assert d.alpha == 0.5
        assert d.cost == pytest.approx(max(d.cost_i, d.cost_j))
        assert d.cost == pytest.approx(d.cost_j)  # v2 is slower

    def test_balanced_never_worse_than_equal(self, hetero_model):
        equal_model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                                    ratio_mode="equal")
        for tt in ALL_TYPES:
            for t in ALL_TYPES:
                sw = fc_sw(batch=512, d_in=2048, d_out=1024)
                balanced = step(hetero_model, sw, tt, t).cost
                equal = step(equal_model, sw, tt, t).cost
                assert balanced <= equal * (1 + 1e-9)

    def test_comm_volume_mode_returns_bytes(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1),
                              ratio_mode="comm-volume")
        sw = fc_sw()
        d = step(model, sw, None, I)
        # both parties exchange the full weight psum: 2 * A(W) * 2 bytes
        assert d.cost == pytest.approx(2 * sw.a_weight() * 2)

    def test_comm_volume_includes_inter(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1),
                              ratio_mode="comm-volume")
        sw = fc_sw()
        no_inter = step(model, sw, None, I).cost
        with_inter = step(model, sw, II, I).cost
        assert with_inter > no_inter

    def test_first_layer_has_no_inter_cost(self, homo_model):
        sw = fc_sw()
        assert homo_model.inter_costs(sw.a_input_fm(), None, I, 0.5) == (0.0, 0.0)

    def test_step_decision_records_components(self, homo_model):
        d = step(homo_model, fc_sw(), None, I)
        assert d.cost_i == pytest.approx(d.compute_i + d.comm_i)

    def test_unknown_ratio_mode_raises(self):
        with pytest.raises(ValueError):
            PairCostModel(make_group(TPU_V2, 1), make_group(TPU_V2, 1),
                          ratio_mode="magic")

    def test_bad_dtype_raises(self):
        with pytest.raises(ValueError):
            PairCostModel(make_group(TPU_V2, 1), make_group(TPU_V2, 1),
                          dtype_bytes=0)


class TestBoundaryStep:
    def test_aligned_states_cost_table5(self, homo_model):
        # boundary_step applies Table 5 even on the diagonal; zero transitions
        # stay zero
        assert homo_model.boundary_step(1000.0, II, III) == 0.0

    def test_nominal_alpha_balanced(self, hetero_model):
        assert hetero_model.nominal_alpha() == pytest.approx(420 / 600)

    def test_nominal_alpha_equal(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                              ratio_mode="equal")
        assert model.nominal_alpha() == 0.5

    def test_comm_volume_boundary(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1),
                              ratio_mode="comm-volume")
        cost = model.boundary_step(1000.0, I, III, alpha=0.5)
        # beta*A + alpha*A = A elements, times dtype
        assert cost == pytest.approx(1000.0 * 2)


class TestProportionalMode:
    def test_fixed_compute_proportional_alpha(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                              ratio_mode="proportional")
        sw = fc_sw(batch=512, d_in=1024, d_out=1024)
        for tt in (None, I, II, III):
            d = step(model, sw, tt, I)
            assert d.alpha == pytest.approx(420 / 600)

    def test_cost_is_slower_party(self):
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                              ratio_mode="proportional")
        d = step(model, fc_sw(), None, I)
        assert d.cost == pytest.approx(max(d.cost_i, d.cost_j))

    def test_balanced_never_worse_than_proportional(self):
        balanced = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))
        proportional = PairCostModel(make_group(TPU_V3, 1),
                                     make_group(TPU_V2, 1),
                                     ratio_mode="proportional")
        for t in ALL_TYPES:
            sw = fc_sw(batch=512, d_in=2048, d_out=512)
            assert (step(balanced, sw, I, t).cost
                    <= step(proportional, sw, I, t).cost * (1 + 1e-9))
