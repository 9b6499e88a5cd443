"""Unit tests for the greedy strawman search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost_model import PairCostModel
from repro.core.dp_vectorized import search_stages
from repro.core.greedy import greedy_chain
from repro.core.stages import to_sharded_stages
from repro.core.types import PartitionType
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.models import build_model


def chain(*dims, batch=32):
    stages = []
    for idx in range(len(dims) - 1):
        w = LayerWorkload(f"fc{idx}", batch, dims[idx], dims[idx + 1],
                          (1, 1), (1, 1), (1, 1), False)
        stages.append(LayerStage(w))
    return to_sharded_stages(stages)


@pytest.fixture
def model():
    return PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))


class TestGreedy:
    def test_assigns_every_layer(self, model):
        result = greedy_chain(chain(64, 64, 64), model)
        assert set(result.assignments) == {"fc0", "fc1"}

    def test_rejects_parallel_stages(self, model):
        stages = to_sharded_stages(build_model("resnet18").stages(8))
        with pytest.raises(TypeError):
            greedy_chain(stages, model)

    def test_empty_space_rejected(self, model):
        with pytest.raises(ValueError):
            greedy_chain(chain(4, 4), model, space=())

    def test_single_layer_matches_dp(self, model):
        stages = chain(512, 128)
        assert greedy_chain(stages, model).cost == pytest.approx(
            search_stages(stages, model).cost
        )

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.integers(min_value=2, max_value=4096), min_size=2,
                 max_size=6),
        st.integers(min_value=1, max_value=256),
    )
    def test_never_beats_dp(self, widths, batch):
        """The DP is optimal; greedy can at best tie it."""
        stages = chain(*widths, batch=batch)
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))
        dp = search_stages(stages, model)
        greedy = greedy_chain(stages, model)
        assert greedy.cost >= dp.cost - 1e-12

    def test_exists_chain_where_greedy_is_suboptimal(self):
        """A myopically-cheap first choice can force an expensive
        transition later; find such a case to prove the DP earns its keep."""
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))
        # layer 1: Type-II is myopically cheapest (B*d_out < B*d_in < A(W)),
        # but layer 2's optimum is Type-II as well, and II->II transitions
        # cost beta*A(E) while III->II is free: the DP takes Type-III first
        stages = chain(4096, 4000, 8, batch=4)
        dp = search_stages(stages, model)
        greedy = greedy_chain(stages, model)
        assert greedy.cost > dp.cost * 1.2  # ~30% gap on this chain
