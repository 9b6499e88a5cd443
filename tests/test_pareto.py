"""Unit tests for the cost-landscape analysis."""

import pytest

from repro.core.cost_model import PairCostModel
from repro.core.stages import to_sharded_stages
from repro.core.types import ALL_TYPES, PartitionType
from repro.experiments.pareto import (
    CostLandscape,
    baseline_assignments,
    enumerate_landscape,
)
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.models import build_model

I, II = PartitionType.TYPE_I, PartitionType.TYPE_II


def fc_chain(*dims, batch=64):
    stages = []
    for idx in range(len(dims) - 1):
        w = LayerWorkload(f"fc{idx}", batch, dims[idx], dims[idx + 1],
                          (1, 1), (1, 1), (1, 1), False)
        stages.append(LayerStage(w))
    return to_sharded_stages(stages)


@pytest.fixture(scope="module")
def landscape():
    stages = fc_chain(256, 1024, 128, 512)
    model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))
    return enumerate_landscape(stages, model)


class TestEnumerate:
    def test_full_space_size(self, landscape):
        assert len(landscape.costs) == 3 ** 3

    def test_sorted_ascending(self, landscape):
        values = [c for _, c in landscape.costs]
        assert values == sorted(values)

    def test_dp_cost_is_global_optimum(self, landscape):
        assert landscape.dp_cost == pytest.approx(landscape.optimum, rel=1e-9)

    def test_spread_positive(self, landscape):
        assert landscape.spread > 1.0

    def test_percentiles(self, landscape):
        assert landscape.percentile_of(landscape.optimum) == pytest.approx(1.0)
        assert landscape.percentile_of(landscape.worst) == pytest.approx(
            1 / len(landscape.costs)
        )

    def test_cost_of_lookup(self, landscape):
        combo, cost = landscape.costs[5]
        assert landscape.cost_of(combo) == cost

    def test_unknown_assignment_raises(self, landscape):
        with pytest.raises(KeyError):
            landscape.cost_of((I,))

    def test_rejects_parallel_stages(self):
        stages = to_sharded_stages(build_model("resnet18").stages(8))
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1))
        with pytest.raises(ValueError, match="linear chains"):
            enumerate_landscape(stages, model)

    def test_guards_explosion(self):
        stages = fc_chain(*([32] * 13))
        model = PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V3, 1))
        with pytest.raises(ValueError, match="max_layers"):
            enumerate_landscape(stages, model)


class TestBaselineAssignments:
    def test_dp_is_all_type_i(self):
        stages = fc_chain(8, 8, 8)
        assert baseline_assignments(stages)["dp"] == (I, I)

    def test_owt_follows_layer_kind(self):
        stages = to_sharded_stages(build_model("alexnet").stages(8))
        owt = baseline_assignments(stages)["owt"]
        assert owt[:5] == (I,) * 5      # conv layers
        assert owt[5:] == (II,) * 3     # fc layers
