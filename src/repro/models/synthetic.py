"""Synthetic workload generator: random DNNs for fuzzing and sweeps.

The benchmark harness needs workloads beyond the nine fixed models — both
to fuzz the planner (random graphs exercise corner cases the zoo never
hits) and to sweep structural parameters (depth, width, FC/CONV mix,
residual density) independently.  Generators are deterministic in their
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..graph import (
    Add,
    BatchNorm,
    Conv2d,
    Flatten,
    Input,
    Linear,
    Network,
    Pool2d,
    ReLU,
)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the random generator."""

    n_conv_stages: int = 3          # conv stages (each may pool)
    convs_per_stage: int = 2
    n_fc_layers: int = 2
    base_channels: int = 16
    image_size: int = 32
    residual_probability: float = 0.0   # chance a stage becomes a residual block
    classes: int = 10

    def __post_init__(self) -> None:
        if self.n_conv_stages < 0 or self.n_fc_layers < 1:
            raise ValueError("need at least one FC layer and >= 0 conv stages")
        if not 0.0 <= self.residual_probability <= 1.0:
            raise ValueError("residual_probability must be in [0, 1]")
        if self.image_size < 2 ** max(self.n_conv_stages, 1):
            raise ValueError("image too small for the requested pooling depth")


def random_network(seed: int, config: Optional[SyntheticConfig] = None) -> Network:
    """Generate a random CNN+FC network; same seed, same network."""
    config = config or SyntheticConfig()
    rng = random.Random(seed)
    net = Network(
        f"synthetic-{seed}",
        Input("input", channels=3, height=config.image_size,
              width=config.image_size),
    )

    channels = 3
    size = config.image_size
    cursor = "input"
    conv_idx = 0

    for stage in range(config.n_conv_stages):
        out_channels = config.base_channels * (2 ** min(stage, 3))
        # one transition conv brings the channel count to the stage width
        conv_idx += 1
        kernel = rng.choice([1, 3, 5])
        cursor = net.add(
            Conv2d(f"cv{conv_idx}", channels, out_channels, kernel=kernel,
                   stride=1, padding=kernel // 2),
            inputs=[cursor],
        )
        channels = out_channels
        cursor = net.add(ReLU(f"relu{conv_idx}"), inputs=[cursor])

        # the stage body runs at constant width; optionally a residual block
        make_residual = rng.random() < config.residual_probability
        entry = cursor
        for _ in range(config.convs_per_stage - 1):
            conv_idx += 1
            kernel = rng.choice([1, 3, 5])
            cursor = net.add(
                Conv2d(f"cv{conv_idx}", channels, channels, kernel=kernel,
                       stride=1, padding=kernel // 2),
                inputs=[cursor],
            )
            cursor = net.add(BatchNorm(f"bn{conv_idx}"), inputs=[cursor])
            cursor = net.add(ReLU(f"relu{conv_idx}"), inputs=[cursor])
        if make_residual and cursor != entry:
            cursor = net.add(Add(f"add{stage}"), inputs=[cursor, entry])
            cursor = net.add(ReLU(f"relu_add{stage}"), inputs=[cursor])
        cursor = net.add(Pool2d(f"pool{stage}", kernel=2, stride=2),
                         inputs=[cursor])
        size //= 2

    cursor = net.add(Flatten("flatten"), inputs=[cursor])
    features = channels * size * size
    for f in range(1, config.n_fc_layers):
        width = rng.choice([64, 128, 256])
        cursor = net.add(Linear(f"fc{f}", features, width), inputs=[cursor])
        cursor = net.add(ReLU(f"relu_fc{f}"), inputs=[cursor])
        features = width
    net.add(Linear(f"fc{config.n_fc_layers}", features, config.classes),
            inputs=[cursor])
    return net


def random_chain_widths(seed: int, min_layers: int = 2, max_layers: int = 12,
                        min_width: int = 2, max_width: int = 4096) -> List[int]:
    """Random FC-chain widths for planner fuzzing (log-uniform widths)."""
    rng = random.Random(seed)
    n = rng.randint(min_layers, max_layers)
    widths = []
    for _ in range(n + 1):
        exponent = rng.uniform(0, 1)
        widths.append(
            int(min_width * (max_width / min_width) ** exponent)
        )
    return [max(w, min_width) for w in widths]


def mlp_network(widths: Sequence[int], name: str = "mlp") -> Network:
    """A plain FC chain with layers ``fc0 .. fc{n-1}`` and ReLUs between.

    The layer names match :class:`~repro.numeric.MlpSpec`'s, so a plan of
    this network runs on the numeric executor as is.
    """
    net = Network(name, Input("input", channels=widths[0]))
    for k in range(len(widths) - 1):
        net.add(Linear(f"fc{k}", widths[k], widths[k + 1]))
        if k < len(widths) - 2:
            net.add(ReLU(f"relu{k}"))
    return net
