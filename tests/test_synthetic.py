"""Tests of the synthetic workload generator plus planner fuzzing."""

import pytest

from repro.baselines import get_scheme
from repro.core.brute_force import brute_force_chain
from repro.core.cost_model import PairCostModel
from repro.core.dp_vectorized import search_stages
from repro.core.planner import Planner
from repro.core.stages import to_sharded_stages
from repro.core.verify import verify_planned
from repro.graph import validate_network
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, heterogeneous_array, make_group
from repro.models.synthetic import (
    SyntheticConfig,
    random_chain_widths,
    random_network,
)
from repro.sim.executor import evaluate


class TestRandomNetwork:
    def test_deterministic(self):
        a = random_network(7)
        b = random_network(7)
        assert a.layer_names() == b.layer_names()

    def test_seeds_differ(self):
        a = random_network(1)
        b = random_network(2)
        # kernel sizes and fc widths are random; workloads should differ
        wa = [(w.name, w.kernel_hw) for w in a.workloads(4)]
        wb = [(w.name, w.kernel_hw) for w in b.workloads(4)]
        assert wa != wb

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_networks_validate(self, seed):
        config = SyntheticConfig(residual_probability=0.5)
        net = random_network(seed, config)
        assert validate_network(net) == []

    def test_residual_stages_appear(self):
        config = SyntheticConfig(residual_probability=1.0, convs_per_stage=2,
                                 n_conv_stages=3)
        net = random_network(3, config)
        from repro.graph import ParallelStage

        parallel = [s for s in net.stages(4) if isinstance(s, ParallelStage)]
        assert len(parallel) == 3  # every stage body became residual

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_fc_layers=0)
        with pytest.raises(ValueError):
            SyntheticConfig(residual_probability=2.0)
        with pytest.raises(ValueError):
            SyntheticConfig(image_size=4, n_conv_stages=5)


class TestRandomChains:
    def test_deterministic(self):
        assert random_chain_widths(5) == random_chain_widths(5)

    def test_bounds(self):
        widths = random_chain_widths(9, min_layers=3, max_layers=6,
                                     min_width=4, max_width=512)
        assert 4 <= len(widths) <= 7
        assert all(4 <= w <= 512 for w in widths)


class TestPlannerFuzzing:
    """Random workloads through the full pipeline: the planner must always
    produce verifiable plans and the DP must always match brute force."""

    @pytest.mark.parametrize("seed", range(4))
    def test_full_pipeline_on_random_networks(self, seed):
        net = random_network(seed, SyntheticConfig(residual_probability=0.4))
        for scheme in ("dp", "owt", "hypar", "accpar"):
            planned = Planner(heterogeneous_array(2, 2),
                              get_scheme(scheme)).plan(net, batch=16)
            assert verify_planned(planned) == []
            report = evaluate(planned)
            assert report.total_time > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_dp_optimal_on_random_chains(self, seed):
        widths = random_chain_widths(seed, min_layers=2, max_layers=5)
        stages = to_sharded_stages([
            LayerStage(LayerWorkload(f"fc{i}", 32, widths[i], widths[i + 1],
                                     (1, 1), (1, 1), (1, 1), False))
            for i in range(len(widths) - 1)
        ])
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))
        dp = search_stages(stages, model)
        bf = brute_force_chain(stages, model)
        assert dp.cost == pytest.approx(bf.cost, rel=1e-9)
