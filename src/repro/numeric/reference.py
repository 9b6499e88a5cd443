"""Reference (single-device) MLP training step in numpy.

This is the ground truth the partitioned executor is validated against:
a plain fully-connected network trained with the three tensor computing
phases of Section 2.1,

    forward:  F_{l+1} = f(F_l x W_l)
    backward: E_l     = (E_{l+1} x W_l^T) ⊙ f'(F_l x W_l)
    gradient: ΔW_l    = F_l^T x E_{l+1}

with ReLU activations on the hidden layers and a squared-error loss at the
output.  Everything is float64 so equality checks against the two-device
executor are tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class MlpSpec:
    """Layer widths of a fully-connected network: [d0, d1, ..., dn]."""

    widths: Sequence[int]

    def __post_init__(self) -> None:
        if len(self.widths) < 2:
            raise ValueError("an MLP needs at least one layer (two widths)")
        if any(w < 2 for w in self.widths):
            raise ValueError("all widths must be >= 2 so every axis can split")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def layer_names(self) -> List[str]:
        return [f"fc{k}" for k in range(self.n_layers)]

    def init_weights(self, seed: int = 0) -> List[np.ndarray]:
        rng = np.random.default_rng(seed)
        return [
            rng.standard_normal((self.widths[i], self.widths[i + 1]))
            / np.sqrt(self.widths[i])
            for i in range(self.n_layers)
        ]

    # the three phase kernels of layer k on (A, W, E) — the leaves of the
    # partitioned executor's recursion
    def forward(self, k: int, a: np.ndarray, w: np.ndarray, e) -> np.ndarray:
        return a @ w

    def input_grad(self, k: int, a: np.ndarray, w: np.ndarray,
                   e: np.ndarray) -> np.ndarray:
        return e @ w.T

    def weight_grad(self, k: int, a: np.ndarray, w: np.ndarray,
                    e: np.ndarray) -> np.ndarray:
        return a.T @ e


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(pre_activation: np.ndarray) -> np.ndarray:
    return (pre_activation > 0.0).astype(pre_activation.dtype)


@dataclass
class TrainingTrace:
    """Everything one training step produces (for comparison)."""

    activations: List[np.ndarray]   # F_0 .. F_n (post-activation)
    pre_activations: List[np.ndarray]  # Z_1 .. Z_n
    errors: List[np.ndarray]        # E_1 .. E_n (error at each layer output)
    gradients: List[np.ndarray]     # ΔW_1 .. ΔW_n
    loss: float


def reference_step(
    weights: Sequence[np.ndarray],
    x: np.ndarray,
    target: np.ndarray,
) -> TrainingTrace:
    """One full training step: forward, loss, backward, gradient.

    The last layer is linear (no ReLU); the loss is 0.5 * ||F_n - target||^2
    so the output error is simply F_n - target.
    """
    n = len(weights)
    activations = [x]
    pre_activations: List[np.ndarray] = []
    for idx, w in enumerate(weights):
        z = activations[-1] @ w
        pre_activations.append(z)
        activations.append(relu(z) if idx < n - 1 else z)

    output = activations[-1]
    loss = 0.5 * float(np.sum((output - target) ** 2))

    # errors[idx] is the gradient of the loss w.r.t. pre_activations[idx]
    errors: List[Optional[np.ndarray]] = [None] * n
    errors[n - 1] = output - target
    for idx in range(n - 2, -1, -1):
        propagated = errors[idx + 1] @ weights[idx + 1].T
        errors[idx] = propagated * relu_grad(pre_activations[idx])

    gradients = [activations[idx].T @ errors[idx] for idx in range(n)]
    return TrainingTrace(
        activations=activations,
        pre_activations=pre_activations,
        errors=[e for e in errors if e is not None],
        gradients=gradients,
        loss=loss,
    )


def numerical_gradients(
    weights: Sequence[np.ndarray],
    x: np.ndarray,
    target: np.ndarray,
    epsilon: float = 1e-6,
    max_entries: int = 24,
    seed: int = 1,
) -> List[List[Tuple[Tuple[int, int], float]]]:
    """Central-difference loss gradients at sampled weight entries.

    Used by the tests to certify the analytic backward/gradient phases; a
    full finite-difference sweep would be O(weights^2), so we sample.
    """

    def loss_of(ws) -> float:
        return reference_step(ws, x, target).loss

    rng = np.random.default_rng(seed)
    out: List[List[Tuple[Tuple[int, int], float]]] = []
    for layer_idx, w in enumerate(weights):
        entries: List[Tuple[Tuple[int, int], float]] = []
        n_samples = min(max_entries, w.size)
        flat_indices = rng.choice(w.size, size=n_samples, replace=False)
        for flat in flat_indices:
            i, j = np.unravel_index(flat, w.shape)
            bumped = [wk.copy() for wk in weights]
            bumped[layer_idx][i, j] += epsilon
            up = loss_of(bumped)
            bumped[layer_idx][i, j] -= 2 * epsilon
            down = loss_of(bumped)
            entries.append(((int(i), int(j)), (up - down) / (2 * epsilon)))
        out.append(entries)
    return out
