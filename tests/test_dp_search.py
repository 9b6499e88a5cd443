"""Unit tests for the Eq. 9 dynamic program, validated against brute force."""

import pytest

from repro.core.brute_force import brute_force_chain
from repro.core.cost_model import PairCostModel
from repro.core.dp_vectorized import search_stages
from repro.core.stages import to_sharded_stages
from repro.core.types import ALL_TYPES, HYPAR_TYPES, PartitionType
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, make_group

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def chain(*dims, batch=16):
    """The root sub-problem of a chain of FC layers with the given widths."""
    stages = []
    for idx in range(len(dims) - 1):
        w = LayerWorkload(
            f"fc{idx}", batch, dims[idx], dims[idx + 1], (1, 1), (1, 1), (1, 1), False
        )
        stages.append(LayerStage(w))
    return to_sharded_stages(stages)


@pytest.fixture(params=["balanced", "equal", "comm-volume"])
def model(request):
    return PairCostModel(
        make_group(TPU_V3, 1), make_group(TPU_V2, 1), ratio_mode=request.param
    )


class TestChainDP:
    def test_empty_stage_list(self, model):
        result = search_stages(to_sharded_stages([]), model)
        assert result.cost == 0.0
        assert result.assignments == {}

    def test_single_layer(self, model):
        result = search_stages(chain(8, 4), model)
        assert len(result.assignments) == 1
        assert result.exit_state is result.assignments["fc0"].ptype

    def test_dp_matches_brute_force_small(self, model):
        stages = chain(64, 128, 32, 256, 8)
        dp = search_stages(stages, model)
        bf = brute_force_chain(stages, model)
        assert dp.cost == pytest.approx(bf.cost)
        assert dp.types() == bf.types()

    def test_dp_matches_brute_force_varied_shapes(self, model):
        stages = chain(1000, 10, 1000, 10, batch=128)
        dp = search_stages(stages, model)
        bf = brute_force_chain(stages, model)
        assert dp.cost == pytest.approx(bf.cost)

    def test_restricted_space_matches_brute_force(self, model):
        stages = chain(64, 128, 32, 16)
        dp = search_stages(stages, model, HYPAR_TYPES)
        bf = brute_force_chain(stages, model, HYPAR_TYPES)
        assert dp.cost == pytest.approx(bf.cost)
        assert all(t in HYPAR_TYPES for t in dp.types().values())

    def test_full_space_at_least_as_good_as_restricted(self, model):
        stages = chain(512, 4096, 4096, 10, batch=64)
        full = search_stages(stages, model, ALL_TYPES)
        restricted = search_stages(stages, model, HYPAR_TYPES)
        assert full.cost <= restricted.cost * (1 + 1e-12)

    def test_space_fn_pins_layer_types(self, model):
        stages = chain(64, 128, 32, 16)
        result = search_stages(
            stages, model, space_fn=lambda w: (II,)
        )
        assert all(t is II for t in result.types().values())

    def test_assignment_per_layer(self, model):
        stages = chain(8, 8, 8, 8, 8)
        result = search_stages(stages, model)
        assert set(result.assignments) == {"fc0", "fc1", "fc2", "fc3"}

    def test_empty_space_raises(self, model):
        with pytest.raises(ValueError):
            search_stages(chain(4, 4), model, space=())


class TestBruteForce:
    def test_rejects_parallel_stages(self, model):
        from repro.models import build_model

        stages = to_sharded_stages(build_model("resnet18").stages(4))
        with pytest.raises(TypeError):
            brute_force_chain(stages, model)

    def test_empty_chain(self, model):
        result = brute_force_chain(to_sharded_stages([]), model)
        assert result.cost == 0.0


class TestOptimalSubstructure:
    def test_longer_chain_costs_more(self, model):
        short = search_stages(chain(64, 64, 64), model)
        long = search_stages(chain(64, 64, 64, 64), model)
        assert long.cost > short.cost

    def test_costs_are_positive(self, model):
        result = search_stages(chain(64, 64), model)
        assert result.cost > 0.0

    def test_alpha_recorded_in_assignments(self):
        balanced = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                                 ratio_mode="balanced")
        result = search_stages(chain(64, 64), balanced)
        for lp in result.assignments.values():
            assert 0.0 < lp.ratio < 1.0

    def test_equal_mode_alpha_is_half(self):
        equal = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                              ratio_mode="equal")
        result = search_stages(chain(64, 64, 64), equal)
        assert all(lp.ratio == 0.5 for lp in result.assignments.values())
