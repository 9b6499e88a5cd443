"""Numeric validation of the CONV extension (Section 3.3).

The partitioned CNN executor must match single-device CNN training exactly
for every partition type, and its communication counts must realize the
spatially-scaled Table 4 / Table 5 quantities of Section 4.3.
"""

import itertools

import numpy as np
import pytest

from repro.core.types import PartitionType
from repro.numeric import (
    CnnSpec,
    ConvLayerSpec,
    PartitionedExecutor,
    col2im,
    conv_forward,
    conv_input_grad,
    conv_reference_step,
    conv_weight_grad,
    im2col,
    validate_conv_partitioned_training,
)
from repro.plan import LayerPartition

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def small_cnn():
    return CnnSpec(
        in_channels=4,
        height=8,
        width=8,
        layers=[
            ConvLayerSpec(4, 6, kernel=3, stride=1, padding=1),
            ConvLayerSpec(6, 4, kernel=3, stride=2, padding=1),
        ],
    )


class TestCnnSpec:
    def test_geometries(self):
        geoms = small_cnn().geometries()
        assert geoms == [(4, 8, 8), (6, 8, 8), (4, 4, 4)]

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            CnnSpec(4, 8, 8, [ConvLayerSpec(3, 6)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            CnnSpec(4, 8, 8, [])

    def test_collapsing_geometry_raises(self):
        with pytest.raises(ValueError):
            CnnSpec(4, 2, 2, [ConvLayerSpec(4, 4, kernel=5)])

    def test_bad_layer_spec(self):
        with pytest.raises(ValueError):
            ConvLayerSpec(1, 6)
        with pytest.raises(ValueError):
            ConvLayerSpec(4, 6, stride=0)


class TestConvPrimitives:
    def test_im2col_col2im_adjoint(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint pair."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 6))
        cols = im2col(x, kernel=3, stride=1, padding=1)
        y = rng.standard_normal(cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, x.shape, 3, 1, 1)))
        assert lhs == pytest.approx(rhs)

    def test_forward_matches_direct_convolution(self):
        """Cross-check im2col against an explicit loop convolution."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((2, 3, 3, 3))
        out = conv_forward(x, w, stride=1, padding=0)
        assert out.shape == (1, 3, 3, 3)
        # direct computation of one output element
        expected = sum(
            x[0, ci, 1 + di, 2 + dj] * w[ci, 1, di, dj]
            for ci in range(2)
            for di in range(3)
            for dj in range(3)
        )
        assert out[0, 1, 1, 2] == pytest.approx(expected)

    def test_input_grad_finite_difference(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        dz = rng.standard_normal((1, 2, 2, 2))

        def loss(x_):
            return float(np.sum(conv_forward(x_, w, 1, 0) * dz))

        grad = conv_input_grad(dz, w, x.shape, 1, 0)
        eps = 1e-6
        for idx in [(0, 0, 1, 1), (0, 1, 3, 2), (0, 0, 0, 0)]:
            bumped = x.copy()
            bumped[idx] += eps
            fd = (loss(bumped) - loss(x)) / eps
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_weight_grad_finite_difference(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        dz = rng.standard_normal((2, 2, 2, 2))

        def loss(w_):
            return float(np.sum(conv_forward(x, w_, 1, 0) * dz))

        grad = conv_weight_grad(x, dz, w.shape, 1, 0)
        eps = 1e-6
        for idx in [(0, 0, 1, 1), (1, 1, 2, 0), (0, 1, 0, 2)]:
            bumped = w.copy()
            bumped[idx] += eps
            fd = (loss(bumped) - loss(w)) / eps
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_strided_forward_geometry(self):
        x = np.zeros((1, 2, 8, 8))
        w = np.zeros((2, 3, 3, 3))
        assert conv_forward(x, w, stride=2, padding=1).shape == (1, 3, 4, 4)


class TestPartitionedConv:
    @pytest.mark.parametrize(
        "t0,t1", list(itertools.product((I, II, III), repeat=2))
    )
    def test_all_type_pairs_exact(self, t0, t1):
        spec = small_cnn()
        plan = [LayerPartition(t0, 0.5), LayerPartition(t1, 0.5)]
        report = validate_conv_partitioned_training(spec, plan, batch=4)
        assert report.max_gradient_error < 1e-9
        assert report.loss_error < 1e-9
        assert report.intra_matches_table4
        assert report.inter_matches_table5

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.75])
    def test_asymmetric_ratios(self, ratio):
        spec = small_cnn()
        plan = [LayerPartition(II, ratio), LayerPartition(III, ratio)]
        report = validate_conv_partitioned_training(spec, plan, batch=4)
        assert report.numerically_exact

    def test_three_layer_mixed(self):
        spec = CnnSpec(
            in_channels=4, height=8, width=8,
            layers=[
                ConvLayerSpec(4, 8, kernel=3, padding=1),
                ConvLayerSpec(8, 8, kernel=3, padding=1),
                ConvLayerSpec(8, 4, kernel=1),
            ],
        )
        plan = [LayerPartition(I, 0.5), LayerPartition(II, 0.5),
                LayerPartition(III, 0.5)]
        report = validate_conv_partitioned_training(spec, plan, batch=4)
        assert report.numerically_exact
        assert report.intra_matches_table4
        assert report.inter_matches_table5

    def test_plan_length_mismatch_raises(self):
        spec = small_cnn()
        with pytest.raises(ValueError):
            PartitionedExecutor(spec, spec.init_weights(),
                                [[LayerPartition(I, 0.5)]], batch=4)

    def test_spatial_scaling_of_comm(self):
        """Halving the spatial size quarters the boundary traffic."""
        def traffic(h):
            spec = CnnSpec(4, h, h, [ConvLayerSpec(4, 4, kernel=3, padding=1),
                                     ConvLayerSpec(4, 4, kernel=3, padding=1)])
            plan = [LayerPartition(I, 0.5), LayerPartition(III, 0.5)]
            report = validate_conv_partitioned_training(spec, plan, batch=4)
            return report.comm_total_elements

        big, small = traffic(8), traffic(4)
        # intra ΔW counts are spatial-independent; inter and II/III psums
        # scale with H*W, so total traffic must shrink by more than 2x
        assert big > 2 * small
