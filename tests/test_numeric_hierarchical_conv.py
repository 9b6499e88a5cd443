"""Tests of the multi-level CONV executor (Section 3.3, recursively)."""

import itertools

import numpy as np
import pytest

from repro.core.types import PartitionType
from repro.numeric.conv_reference import (
    CnnSpec,
    ConvLayerSpec,
    conv_reference_step,
)
from repro.numeric.executor import PartitionedExecutor
from repro.plan import LayerPartition

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def make_spec():
    return CnnSpec(
        in_channels=4, height=8, width=8,
        layers=[
            ConvLayerSpec(4, 8, kernel=3, padding=1),
            ConvLayerSpec(8, 8, kernel=3, padding=1),
        ],
    )


def run_both(level_types, ratio=0.5, batch=8, seed=0):
    spec = make_spec()
    rng = np.random.default_rng(seed)
    weights = spec.init_weights(seed)
    x = rng.standard_normal((batch, spec.in_channels, spec.height, spec.width))
    target = rng.standard_normal((batch, *spec.geometries()[-1]))
    ref = conv_reference_step(spec, weights, x, target)
    plans = [
        [LayerPartition(t, ratio) for t in per_layer]
        for per_layer in level_types
    ]
    hier = PartitionedExecutor(spec, weights, plans, batch).step(x, target)
    return ref, hier, hier.comm


def max_divergence(ref, hier) -> float:
    grad = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(ref.gradients, hier.gradients)
    )
    act = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(ref.activations, hier.activations)
    )
    return max(grad, act, abs(ref.loss - hier.loss))


class TestExactness:
    @pytest.mark.parametrize("t1,t2", list(itertools.product((I, II, III),
                                                             repeat=2)))
    def test_two_levels_uniform(self, t1, t2):
        ref, hier, _ = run_both([[t1, t1], [t2, t2]])
        assert hier is not None
        assert max_divergence(ref, hier) < 1e-9

    def test_three_levels_mixed(self):
        ref, hier, _ = run_both([[I, II], [III, I], [II, III]])
        assert max_divergence(ref, hier) < 1e-9

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.75])
    def test_asymmetric_ratio(self, ratio):
        ref, hier, _ = run_both([[II, III]], ratio=ratio)
        assert max_divergence(ref, hier) < 1e-9

    def test_plan_length_mismatch_raises(self):
        spec = make_spec()
        with pytest.raises(ValueError):
            PartitionedExecutor(spec, spec.init_weights(),
                                [[LayerPartition(I, 0.5)]], batch=8)


class TestPerLevelTraffic:
    def test_dp_pays_full_kernel_every_level(self):
        _, _, log = run_both([[I, I], [I, I]])
        totals = log.per_level_totals()
        w0 = 4 * 8 * 9
        w1 = 8 * 8 * 9
        assert totals[0] == 2 * (w0 + w1)        # 1 node x both layers
        assert totals[1] == 2 * 2 * (w0 + w1)    # 2 nodes

    def test_type_ii_forward_psum_scales_with_output_map(self):
        _, _, log = run_both([[II, II]])
        keyed = log.intra
        assert sum(keyed[(0, "cv0")]) == 2 * 8 * 8 * 8 * 8  # 2 x B x Cout x OH x OW
