"""Multi-branch (3+ path) models: stress tests for the Section 5.2 search.

ResNet forks into exactly two paths; the paper's multi-path method is
stated for arbitrarily many.  These models exercise that generality: each
block splits into three parallel convolution branches of different depths
plus an identity skip, all re-joined by element-wise addition (shapes kept
equal so Add is valid — a concat-free cousin of the Inception module).
"""

from __future__ import annotations

from ..graph import Add, BatchNorm, Conv2d, Flatten, Input, Linear, Network, Pool2d, ReLU


def _branch(net: Network, prefix: str, entry: str, channels: int,
            depth: int, kernel: int) -> str:
    """A chain of ``depth`` same-width convolutions."""
    cursor = entry
    for idx in range(1, depth + 1):
        cursor = net.add(
            Conv2d(f"{prefix}_cv{idx}", channels, channels, kernel=kernel,
                   stride=1, padding=kernel // 2),
            inputs=[cursor],
        )
        cursor = net.add(BatchNorm(f"{prefix}_bn{idx}"), inputs=[cursor])
        cursor = net.add(ReLU(f"{prefix}_relu{idx}"), inputs=[cursor])
    return cursor


def trident_block(net: Network, name: str, entry: str, channels: int,
                  with_skip: bool = True) -> str:
    """Three branches (1x1, one 3x3, two 3x3) plus an optional identity."""
    b1 = _branch(net, f"{name}_a", entry, channels, depth=1, kernel=1)
    b2 = _branch(net, f"{name}_b", entry, channels, depth=1, kernel=3)
    b3 = _branch(net, f"{name}_c", entry, channels, depth=2, kernel=3)
    inputs = [b1, b2, b3] + ([entry] if with_skip else [])
    join = net.add(Add(f"{name}_add"), inputs=inputs)
    return net.add(ReLU(f"{name}_relu"), inputs=[join])


def trident(n_blocks: int = 2, channels: int = 32,
            image_size: int = 32) -> Network:
    """A small N-way multi-branch CNN for the multi-path search tests."""
    if n_blocks < 1:
        raise ValueError("need at least one block")
    # named by its registry key, so a saved plan's network resolves
    net = Network(
        "trident",
        Input("input", channels=3, height=image_size, width=image_size),
    )
    cursor = net.add(Conv2d("stem", 3, channels, kernel=3, stride=1, padding=1))
    cursor = net.add(ReLU("stem_relu"), inputs=[cursor])
    size = image_size
    for block in range(1, n_blocks + 1):
        cursor = trident_block(net, f"t{block}", cursor, channels)
        cursor = net.add(Pool2d(f"pool{block}", kernel=2, stride=2),
                         inputs=[cursor])
        size //= 2
    cursor = net.add(Flatten("flatten"), inputs=[cursor])
    net.add(Linear("fc", channels * size * size, 10), inputs=[cursor])
    return net
