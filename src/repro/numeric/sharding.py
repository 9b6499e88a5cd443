"""Tensor sharding and two-party layouts for the numeric executor.

The analytic library works with fractional shares; the numeric validator
executes real matrices, so shares become integer split points.  These
helpers slice and reassemble numpy arrays along one axis and keep the
bookkeeping (which rows/columns a party owns) in one place.

A :class:`Layout` says how a boundary tensor is distributed over the two
parties of one split (Figure 1): replicated, batch-sharded or
feature-sharded.  The four layout functions give, per partition type, the
layout in which a layer consumes or produces its boundary tensors; counting
what a party owns under both the producer's and the consumer's layout is
what realizes Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.types import PartitionType
from ..plan.ir import LayerPartition

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


@dataclass(frozen=True)
class AxisShard:
    """A contiguous shard of one axis: device 0 gets [0, split), device 1
    gets [split, size)."""

    size: int
    split: int

    def __post_init__(self) -> None:
        if not 0 < self.split < self.size:
            raise ValueError(
                f"split must be strictly inside (0, {self.size}), got {self.split}"
            )

    @property
    def sizes(self) -> Tuple[int, int]:
        return self.split, self.size - self.split

    def slice_of(self, device: int) -> slice:
        if device == 0:
            return slice(0, self.split)
        if device == 1:
            return slice(self.split, self.size)
        raise ValueError(f"device must be 0 or 1, got {device}")


def split_point(size: int, ratio: float) -> int:
    """Integer split of ``size`` closest to ``ratio``, keeping both parts
    non-empty."""
    if size < 2:
        raise ValueError(f"cannot split an axis of size {size} two ways")
    point = int(round(size * ratio))
    return min(max(point, 1), size - 1)


def take(tensor: np.ndarray, shard: AxisShard, device: int, axis: int) -> np.ndarray:
    """The shard of ``tensor`` owned by ``device`` along ``axis``."""
    index = [slice(None)] * tensor.ndim
    index[axis] = shard.slice_of(device)
    return tensor[tuple(index)]


def reassemble(part0: np.ndarray, part1: np.ndarray, axis: int) -> np.ndarray:
    """Concatenate the two devices' shards back into the full tensor."""
    return np.concatenate([part0, part1], axis=axis)


# ----------------------------------------------------------------------
# layouts: how a boundary tensor of shape (B, D) is distributed
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Layout:
    """Distribution of a (B, D) matrix over the two devices.

    ``kind`` is ``"full"`` (replicated), ``"row"`` (batch-sharded) or
    ``"col"`` (feature-sharded); ``shard`` carries the split for the
    sharded kinds.
    """

    kind: str
    shard: Optional[AxisShard] = None

    def __post_init__(self) -> None:
        if self.kind not in ("full", "row", "col"):
            raise ValueError(f"unknown layout kind {self.kind!r}")
        if (self.kind == "full") != (self.shard is None):
            raise ValueError("full layouts carry no shard; sharded layouts must")

    def owned_extent(self, device: int, shape: Tuple[int, int]) -> Tuple[int, int]:
        """(rows, cols) of the region this device owns."""
        rows, cols = shape
        if self.kind == "full":
            return rows, cols
        assert self.shard is not None
        size = self.shard.sizes[device]
        return (size, cols) if self.kind == "row" else (rows, size)

    def device_part(self, full: np.ndarray, device: int) -> np.ndarray:
        if self.kind == "full":
            return full
        assert self.shard is not None
        axis = 0 if self.kind == "row" else 1
        return take(full, self.shard, device, axis)


def overlap_elements(a: Layout, b: Layout, device: int,
                     shape: Tuple[int, int]) -> int:
    """Elements of ``shape`` a device owns under BOTH layouts.

    Used to count re-sharding traffic: what a device needs under the new
    layout minus what it already holds under the old one.
    """
    rows, cols = shape

    def ranges(layout: Layout) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        if layout.kind == "full":
            return (0, rows), (0, cols)
        assert layout.shard is not None
        sl = layout.shard.slice_of(device)
        if layout.kind == "row":
            return (sl.start, sl.stop), (0, cols)
        return (0, rows), (sl.start, sl.stop)

    (r0a, r1a), (c0a, c1a) = ranges(a)
    (r0b, r1b), (c0b, c1b) = ranges(b)
    row_overlap = max(0, min(r1a, r1b) - max(r0a, r0b))
    col_overlap = max(0, min(c1a, c1b) - max(c0a, c0b))
    return row_overlap * col_overlap


def shard_for(part: LayerPartition, batch: int, d_in: int,
              d_out: int) -> AxisShard:
    """The integer split a layer's partition induces on its split axis."""
    if part.ptype is I:
        return AxisShard(batch, split_point(batch, part.ratio))
    if part.ptype is II:
        return AxisShard(d_in, split_point(d_in, part.ratio))
    return AxisShard(d_out, split_point(d_out, part.ratio))


def effective_alpha(part: LayerPartition, batch: int, d_in: int,
                    d_out: int) -> float:
    """The first party's share after snapping the ratio to an integer split."""
    shard = shard_for(part, batch, d_in, d_out)
    return shard.split / shard.size


def input_layout(part: LayerPartition, batch: int, d_in: int,
                 d_out: int) -> Layout:
    """Layout in which a layer consumes its input F_l (and holds A_l)."""
    shard = shard_for(part, batch, d_in, d_out)
    if part.ptype is I:
        return Layout("row", shard)
    if part.ptype is II:
        return Layout("col", shard)
    return Layout("full")


def output_layout(part: LayerPartition, batch: int, d_in: int,
                  d_out: int) -> Layout:
    """Layout in which a layer's output F_{l+1} materializes after forward
    (post psum-exchange for Type-II)."""
    shard = shard_for(part, batch, d_in, d_out)
    if part.ptype is I:
        return Layout("row", shard)
    if part.ptype is II:
        return Layout("full")
    return Layout("col", shard)


def error_consumer_layout(part: LayerPartition, batch: int, d_in: int,
                          d_out: int) -> Layout:
    """Layout in which a layer needs its output error E_{l+1}."""
    shard = shard_for(part, batch, d_in, d_out)
    if part.ptype is I:
        return Layout("row", shard)
    if part.ptype is II:
        return Layout("full")
    return Layout("col", shard)


def error_producer_layout(part: LayerPartition, batch: int, d_in: int,
                          d_out: int) -> Layout:
    """Layout of the propagated error P = E_{l+1} W^T after a layer's
    backward phase (post psum-exchange for Type-III)."""
    shard = shard_for(part, batch, d_in, d_out)
    if part.ptype is I:
        return Layout("row", shard)
    if part.ptype is II:
        return Layout("col", shard)
    return Layout("full")
