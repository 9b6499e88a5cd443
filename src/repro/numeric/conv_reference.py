"""Reference (single-device) CNN training step in numpy.

Implements the three training phases for 2-D convolutions via im2col:

    forward:  F_{l+1} = f(F_l ⊗ W_l)
    backward: E_l     = (E_{l+1} ⊗ W_l^T) ⊙ f'(Z_l)
    gradient: ΔW_l    = F_l^T ⊗ E_{l+1}

Tensors follow the IR's conventions: activations are (B, C, H, W) and
kernels are (C_in, C_out, K_h, K_w).  This is the ground truth for the
partitioned CONV executor, which validates Section 3.3's claim that the
three partitioning types carry over from FC to CONV unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .reference import relu, relu_grad


@dataclass(frozen=True)
class ConvLayerSpec:
    """One convolutional layer's geometry."""

    in_channels: int
    out_channels: int
    kernel: int = 3
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        if self.in_channels < 2 or self.out_channels < 2:
            raise ValueError("channel counts must be >= 2 so the axis can split")
        if self.kernel < 1 or self.stride < 1 or self.padding < 0:
            raise ValueError("invalid kernel/stride/padding")

    def out_hw(self, h: int, w: int) -> Tuple[int, int]:
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        if oh <= 0 or ow <= 0:
            raise ValueError("convolution output collapsed to zero")
        return oh, ow


@dataclass
class CnnSpec:
    """A CONV-only network: input geometry plus a layer list."""

    in_channels: int
    height: int
    width: int
    layers: Sequence[ConvLayerSpec]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a CNN needs at least one layer")
        c, h, w = self.in_channels, self.height, self.width
        for idx, layer in enumerate(self.layers):
            if layer.in_channels != c:
                raise ValueError(
                    f"layer {idx} expects {layer.in_channels} channels, gets {c}"
                )
            h, w = layer.out_hw(h, w)
            c = layer.out_channels

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def layer_names(self) -> List[str]:
        return [f"cv{k}" for k in range(self.n_layers)]

    # the three phase kernels of layer k on (A, W, E) — the leaves of the
    # partitioned executor's recursion
    def forward(self, k: int, a: np.ndarray, w: np.ndarray, e) -> np.ndarray:
        layer = self.layers[k]
        return conv_forward(a, w, layer.stride, layer.padding)

    def input_grad(self, k: int, a: np.ndarray, w: np.ndarray,
                   e: np.ndarray) -> np.ndarray:
        layer = self.layers[k]
        return conv_input_grad(e, w, a.shape, layer.stride, layer.padding)

    def weight_grad(self, k: int, a: np.ndarray, w: np.ndarray,
                    e: np.ndarray) -> np.ndarray:
        layer = self.layers[k]
        return conv_weight_grad(a, e, w.shape, layer.stride, layer.padding)

    def geometries(self) -> List[Tuple[int, int, int]]:
        """(C, H, W) before each layer plus the final output geometry."""
        out = [(self.in_channels, self.height, self.width)]
        c, h, w = out[0]
        for layer in self.layers:
            h, w = layer.out_hw(h, w)
            c = layer.out_channels
            out.append((c, h, w))
        return out

    def init_weights(self, seed: int = 0) -> List[np.ndarray]:
        rng = np.random.default_rng(seed)
        weights = []
        for layer in self.layers:
            fan_in = layer.in_channels * layer.kernel * layer.kernel
            weights.append(
                rng.standard_normal(
                    (layer.in_channels, layer.out_channels, layer.kernel, layer.kernel)
                )
                / np.sqrt(fan_in)
            )
        return weights


# ----------------------------------------------------------------------
# im2col convolution primitives
# ----------------------------------------------------------------------
def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """(B, C, H, W) -> (B, OH, OW, C*K*K) patch matrix."""
    x = _pad(x, padding)
    b, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    cols = np.empty((b, oh, ow, c, kernel, kernel), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, :, :, i, j] = x[
                :, :, i : i + oh * stride : stride, j : j + ow * stride : stride
            ].transpose(0, 2, 3, 1)
    return cols.reshape(b, oh, ow, c * kernel * kernel)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patches back to (B, C, H, W)."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    cols = cols.reshape(b, oh, ow, c, kernel, kernel)
    out = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            out[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


def conv_forward(x: np.ndarray, w: np.ndarray, stride: int,
                 padding: int) -> np.ndarray:
    """F_l ⊗ W_l with kernels shaped (C_in, C_out, K, K)."""
    c_in, c_out, k, _ = w.shape
    cols = im2col(x, k, stride, padding)                      # B,OH,OW,CKK
    w_mat = w.transpose(0, 2, 3, 1).reshape(c_in * k * k, c_out)
    out = cols @ w_mat                                         # B,OH,OW,Cout
    return out.transpose(0, 3, 1, 2)


def conv_input_grad(dz: np.ndarray, w: np.ndarray,
                    x_shape: Tuple[int, int, int, int], stride: int,
                    padding: int) -> np.ndarray:
    """E_l = E_{l+1} ⊗ W^T : gradient w.r.t. the layer input."""
    c_in, c_out, k, _ = w.shape
    w_mat = w.transpose(0, 2, 3, 1).reshape(c_in * k * k, c_out)
    dz_mat = dz.transpose(0, 2, 3, 1)                          # B,OH,OW,Cout
    dcols = dz_mat @ w_mat.T                                    # B,OH,OW,CKK
    return col2im(dcols, x_shape, k, stride, padding)


def conv_weight_grad(x: np.ndarray, dz: np.ndarray, w_shape, stride: int,
                     padding: int) -> np.ndarray:
    """ΔW = F^T ⊗ E_{l+1} : gradient w.r.t. the kernel."""
    c_in, c_out, k, _ = w_shape
    cols = im2col(x, k, stride, padding)                       # B,OH,OW,CKK
    dz_mat = dz.transpose(0, 2, 3, 1)                           # B,OH,OW,Cout
    grad = np.tensordot(cols, dz_mat, axes=([0, 1, 2], [0, 1, 2]))  # CKK,Cout
    return grad.reshape(c_in, k, k, c_out).transpose(0, 3, 1, 2)


@dataclass
class ConvTrace:
    activations: List[np.ndarray]
    pre_activations: List[np.ndarray]
    errors: List[np.ndarray]
    gradients: List[np.ndarray]
    loss: float


def conv_reference_step(
    spec: CnnSpec,
    weights: Sequence[np.ndarray],
    x: np.ndarray,
    target: np.ndarray,
) -> ConvTrace:
    """One training step of the CONV network (ReLU hidden, linear last)."""
    n = spec.n_layers
    activations = [x]
    pre_activations: List[np.ndarray] = []
    for idx, (layer, w) in enumerate(zip(spec.layers, weights)):
        z = conv_forward(activations[-1], w, layer.stride, layer.padding)
        pre_activations.append(z)
        activations.append(relu(z) if idx < n - 1 else z)

    output = activations[-1]
    loss = 0.5 * float(np.sum((output - target) ** 2))

    errors: List[Optional[np.ndarray]] = [None] * n
    errors[n - 1] = output - target
    for idx in range(n - 2, -1, -1):
        layer = spec.layers[idx + 1]
        propagated = conv_input_grad(
            errors[idx + 1], weights[idx + 1],
            activations[idx + 1].shape, layer.stride, layer.padding,
        )
        errors[idx] = propagated * relu_grad(pre_activations[idx])

    gradients = [
        conv_weight_grad(activations[idx], errors[idx], weights[idx].shape,
                         spec.layers[idx].stride, spec.layers[idx].padding)
        for idx in range(n)
    ]
    return ConvTrace(
        activations=activations,
        pre_activations=pre_activations,
        errors=[e for e in errors if e is not None],
        gradients=gradients,
        loss=loss,
    )
