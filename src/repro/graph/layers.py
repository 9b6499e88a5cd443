"""Layer definitions for the DNN graph IR.

The planner only *partitions* weighted layers (CONV and FC — the three
training mat-muls of Section 2.1 exist only there), but shape inference has to
flow through every layer of real networks, so the IR also models pooling,
activations, normalization, dropout, flatten and the element-wise residual
add used by ResNet.

Every layer implements :meth:`Layer.infer`, mapping an input
:class:`~repro.graph.shapes.FeatureMap` to the output one.  Weighted layers
additionally expose a :class:`LayerWorkload` — the bundle of dimensions the
AccPar cost model consumes (Tables 4-6): ``B``, ``D_i``, ``D_o``, the spatial
extents and the kernel window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .shapes import FeatureMap, TensorShape, conv_output_hw, pool_output_hw


def _pair(value) -> Tuple[int, int]:
    """Normalize an int-or-pair argument to a pair."""
    if isinstance(value, int):
        return (value, value)
    pair = tuple(value)
    if len(pair) != 2 or not all(isinstance(v, int) for v in pair):
        raise ValueError(f"expected an int or a pair of ints, got {value!r}")
    return pair  # type: ignore[return-value]


@dataclass(frozen=True)
class LayerWorkload:
    """Dimensions of one weighted layer, as consumed by the cost model.

    Attributes mirror Table 1 of the paper.  ``kernel_hw`` is ``(1, 1)`` and
    the spatial sizes are ``1`` for FC layers, which makes the FC formulas a
    special case of the CONV ones (Section 4.3).
    """

    name: str
    batch: int                # B
    d_in: int                 # D_{i,l}
    d_out: int                # D_{o,l}
    in_hw: Tuple[int, int]    # (H, W) of F_l
    out_hw: Tuple[int, int]   # (H, W) of F_{l+1}
    kernel_hw: Tuple[int, int]  # (K_h, K_w) of W_l
    is_conv: bool

    # --- tensor sizes: the paper's A(.) --------------------------------
    @property
    def input_fm(self) -> TensorShape:
        """Shape of F_l (and of E_l)."""
        return TensorShape((self.batch, self.d_in, *self.in_hw))

    @property
    def output_fm(self) -> TensorShape:
        """Shape of F_{l+1} (and of E_{l+1})."""
        return TensorShape((self.batch, self.d_out, *self.out_hw))

    @property
    def weight(self) -> TensorShape:
        """Shape of W_l (and of the gradient ΔW_l)."""
        return TensorShape((self.d_in, self.d_out, *self.kernel_hw))

    @property
    def in_spatial(self) -> int:
        return self.in_hw[0] * self.in_hw[1]

    @property
    def out_spatial(self) -> int:
        return self.out_hw[0] * self.out_hw[1]

    @property
    def kernel_spatial(self) -> int:
        return self.kernel_hw[0] * self.kernel_hw[1]

    def with_batch(self, batch: int) -> "LayerWorkload":
        """The same layer run at a different mini-batch size.

        A plan fills its batch into every layer of its model, so this skips
        the frozen constructor's argument handling and sets the fields
        directly: this layer's, with ``batch`` replaced.  It equals the
        constructor's result and hashes the same.  It does not copy
        ``__dict__``: reading that builds a dict object per copy, ~60 bytes
        more per layer that every plan held in memory keeps.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        copy = object.__new__(LayerWorkload)
        set_field = object.__setattr__
        set_field(copy, "name", self.name)
        set_field(copy, "batch", batch)
        set_field(copy, "d_in", self.d_in)
        set_field(copy, "d_out", self.d_out)
        set_field(copy, "in_hw", self.in_hw)
        set_field(copy, "out_hw", self.out_hw)
        set_field(copy, "kernel_hw", self.kernel_hw)
        set_field(copy, "is_conv", self.is_conv)
        return copy


class Layer:
    """Base class of all IR layers."""

    #: whether the layer carries a trainable kernel and hence is partitioned
    weighted: bool = False

    def __init__(self, name: str):
        if not name:
            raise ValueError("layer name must be non-empty")
        self.name = name

    def infer(self, fm: FeatureMap) -> FeatureMap:
        """Shape inference: output feature map for the given input."""
        raise NotImplementedError

    def workload(self, fm: FeatureMap) -> Optional[LayerWorkload]:
        """Cost-model workload, or ``None`` for unweighted layers."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Conv2d(Layer):
    """2-D convolution: the CONV case of the three training mat-muls."""

    weighted = True

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel,
        stride=1,
        padding=0,
    ):
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = _pair(kernel)
        self.stride = _pair(stride)
        self.padding = _pair(padding)

    def infer(self, fm: FeatureMap) -> FeatureMap:
        if fm.channels != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {fm.channels}"
            )
        out_h, out_w = conv_output_hw(fm.height, fm.width, self.kernel, self.stride, self.padding)
        return FeatureMap(fm.batch, self.out_channels, out_h, out_w)

    def workload(self, fm: FeatureMap) -> LayerWorkload:
        out = self.infer(fm)
        return LayerWorkload(
            name=self.name,
            batch=fm.batch,
            d_in=self.in_channels,
            d_out=self.out_channels,
            in_hw=(fm.height, fm.width),
            out_hw=(out.height, out.width),
            kernel_hw=self.kernel,
            is_conv=True,
        )


class Linear(Layer):
    """Fully-connected layer: the FC case of Section 3.1."""

    weighted = True

    def __init__(self, name: str, in_features: int, out_features: int):
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features

    def infer(self, fm: FeatureMap) -> FeatureMap:
        flat = fm.channels * fm.height * fm.width
        if flat != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {flat}"
            )
        return FeatureMap(fm.batch, self.out_features, 1, 1)

    def workload(self, fm: FeatureMap) -> LayerWorkload:
        self.infer(fm)  # validates
        return LayerWorkload(
            name=self.name,
            batch=fm.batch,
            d_in=self.in_features,
            d_out=self.out_features,
            in_hw=(1, 1),
            out_hw=(1, 1),
            kernel_hw=(1, 1),
            is_conv=False,
        )


class Pool2d(Layer):
    """Max or average pooling (shape-only for the cost model)."""

    def __init__(self, name: str, kernel, stride=None, padding=0, mode: str = "max",
                 ceil_mode: bool = False):
        super().__init__(name)
        if mode not in ("max", "avg"):
            raise ValueError(f"pool mode must be 'max' or 'avg', got {mode!r}")
        self.kernel = _pair(kernel)
        self.stride = _pair(stride) if stride is not None else self.kernel
        self.padding = _pair(padding)
        self.mode = mode
        self.ceil_mode = ceil_mode

    def infer(self, fm: FeatureMap) -> FeatureMap:
        out_h, out_w = pool_output_hw(
            fm.height, fm.width, self.kernel, self.stride, self.padding, self.ceil_mode
        )
        return FeatureMap(fm.batch, fm.channels, out_h, out_w)


class GlobalAvgPool(Layer):
    """Global average pooling, as used before ResNet's classifier."""

    def infer(self, fm: FeatureMap) -> FeatureMap:
        return FeatureMap(fm.batch, fm.channels, 1, 1)


class ReLU(Layer):
    """Element-wise activation — performed in place (Section 3.1)."""

    def infer(self, fm: FeatureMap) -> FeatureMap:
        return fm


class BatchNorm(Layer):
    """Batch normalization; shape-preserving, folded into the adjacent CONV."""

    def infer(self, fm: FeatureMap) -> FeatureMap:
        return fm


class LocalResponseNorm(Layer):
    """AlexNet-era LRN; shape preserving."""

    def infer(self, fm: FeatureMap) -> FeatureMap:
        return fm


class Dropout(Layer):
    """Dropout; shape preserving, training-time element-wise mask."""

    def __init__(self, name: str, p: float = 0.5):
        super().__init__(name)
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p

    def infer(self, fm: FeatureMap) -> FeatureMap:
        return fm


class Flatten(Layer):
    """Collapse (C, H, W) into a feature vector before FC layers."""

    def infer(self, fm: FeatureMap) -> FeatureMap:
        return FeatureMap(fm.batch, fm.channels * fm.height * fm.width, 1, 1)


class Add(Layer):
    """Element-wise residual addition (the ResNet join node).

    ``infer`` receives the first input's shape; :meth:`infer_many` validates
    that all inputs agree.
    """

    def infer(self, fm: FeatureMap) -> FeatureMap:
        return fm

    def infer_many(self, fms: Sequence[FeatureMap]) -> FeatureMap:
        if not fms:
            raise ValueError(f"{self.name}: Add requires at least one input")
        first = fms[0]
        for other in fms[1:]:
            if other != first:
                raise ValueError(
                    f"{self.name}: mismatched Add inputs {first} vs {other}"
                )
        return first


class Input(Layer):
    """Source node pinning the network's input feature-map geometry."""

    def __init__(self, name: str, channels: int, height: int = 1, width: int = 1):
        super().__init__(name)
        self.channels = channels
        self.height = height
        self.width = width

    def feature_map(self, batch: int) -> FeatureMap:
        return FeatureMap(batch, self.channels, self.height, self.width)

    def infer(self, fm: FeatureMap) -> FeatureMap:
        return fm
