"""Sharded stages: a level's sub-problem as one fraction table.

The graph IR decomposes a network into series-parallel stages over
:class:`~repro.graph.layers.LayerWorkload` (:meth:`Network.stages`).  At
every pairing-tree node the hierarchical planner sees the same structure,
with each layer's tensors cut down by its ancestors' decisions.  Such a
sub-problem (:class:`ShardedStages`) has two parts:

* a :class:`Skeleton`, shared by every level of one plan: the fork/join
  structure over layer *rows*, each layer's base dimensions and op kind as
  numpy columns, each fork's first-layer row and each path's last-layer
  row;
* a ``(layers, 3)`` float64 array of the batch, D_i and D_o fractions each
  layer keeps after the enclosing levels' partitions — the per-dimension
  degrees FlexFlow uses to describe a layer's parallelization.

A child's sub-problem shares the skeleton; both children's tables are
one vectorized multiply (:meth:`ShardedStages.split`), and one table when
their cuts are equal.  :meth:`ShardedStages.key` keys the walk memo,
:meth:`ShardedStages.sizes` gives the search the per-layer tensor sizes
and FLOPs as columns, and :meth:`ShardedStages.workloads` is the one
per-layer accessor for every other reader.

A plan request names a registered model.  Every IR layer passes its
input's batch through unchanged (:mod:`repro.graph.layers`), so the
decomposition and every shape past dimension 0 are the same at every batch:
:func:`model_stages` decomposes each registered model once per process
(a :class:`ModelStages`), and a request fills in only its batch
(:meth:`ModelStages.root`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.layers import LayerWorkload
from ..graph.network import LayerStage, Network, ParallelStage, Stage
from ..models.registry import model_builder
from ..plan.ir import LevelPlan
from .cost_model import TYPE_INDEX
from .types import ShardedWorkload


class Fork(NamedTuple):
    """A fork/join region over layer rows; an empty path is an identity skip."""

    name: str
    #: per path, its stages: a layer's row or a nested :class:`Fork`
    paths: Tuple[Tuple[Union[int, "Fork"], ...], ...]
    #: the first layer's row: its input feature map is the fork tensor
    first: int
    #: per path, its last layer's row (``None`` for an identity skip)
    lasts: Tuple[Optional[int], ...]


class Skeleton:
    """What every level of one plan shares: structure, names and base columns.

    ``stages`` is the series-parallel stage list with each weighted layer
    replaced by its row; rows run in topological order (a fork's paths one
    after the other).  ``dims`` holds six float64 columns per row: B, D_i,
    D_o and the input, output and kernel spatial sizes.
    """

    __slots__ = ("stages", "names", "layers", "forks", "dims", "is_conv")

    def __init__(self, stages: Tuple[Union[int, Fork], ...],
                 layers: Tuple[LayerWorkload, ...], forks: Tuple[Fork, ...]):
        self.stages = stages
        self.layers = layers
        self.names: Tuple[str, ...] = tuple(w.name for w in layers)
        #: every fork, nested ones too
        self.forks = forks
        self.dims = np.array(
            [(w.batch, w.d_in, w.d_out, w.in_spatial, w.out_spatial,
              w.kernel_spatial) for w in layers], dtype=float,
        ).reshape(len(layers), 6).T.copy()
        self.is_conv = np.array([w.is_conv for w in layers], dtype=bool)

    def with_batch(self, batch: int) -> "Skeleton":
        """This skeleton at mini-batch ``batch``: new layer workloads and
        a copy of the columns with a new B row; the structure, names, forks
        and op kinds are this skeleton's own objects."""
        skeleton = object.__new__(Skeleton)
        skeleton.stages = self.stages
        skeleton.names = self.names
        skeleton.forks = self.forks
        skeleton.is_conv = self.is_conv
        skeleton.layers = tuple(w.with_batch(batch) for w in self.layers)
        skeleton.dims = self.dims.copy()
        skeleton.dims[0] = batch
        return skeleton


class Sizes(NamedTuple):
    """Per-row tensor sizes and FLOPs of a sub-problem (the paper's A(.))."""

    a_in: np.ndarray      # A(F_l) = A(E_l)
    a_out: np.ndarray     # A(F_{l+1}) = A(E_{l+1})
    a_weight: np.ndarray  # A(W_l) = A(ΔW_l)
    flops: np.ndarray     # the three training mat-muls (Table 6)
    #: the partial-sum tensor per row and type (Table 4), types in
    #: ``ALL_TYPES`` order: A(W_l), A(F_{l+1}), A(F_l)
    psum: np.ndarray


#: rows of the kept (B, D_i, D_o) columns and of ``Skeleton.dims`` that
#: :meth:`ShardedStages.sizes` multiplies per tensor, in ``Sizes.psum``
#: order: A(W) = D_i·D_o·kernel, A(F_{l+1}) = B·D_o·out, A(F_l) = B·D_i·in
_TENSOR_FIRST = np.array([1, 0, 0])
_TENSOR_SECOND = np.array([2, 2, 1])
_TENSOR_SPATIAL = slice(5, 2, -1)
#: the training phases in the scalar formula's order (forward, backward,
#: weight gradient) reduce over D_i, D_o and B, and produce the partial
#: sums of Type-II, -III and -I: per phase, its row of the kept columns
#: and of ``Sizes.psum``, and the spatial row of its reduction
_PHASES = np.array([1, 2, 0])
_PHASE_SPATIAL = np.array([5, 5, 4])


def _reduction_flops(reduction: np.ndarray) -> np.ndarray:
    """:func:`repro.core.types._reduction_flops`, per element."""
    return np.where(reduction >= 1.0, 2.0 * reduction - 1.0, reduction)


def _round_half_even(x: float) -> int:
    """``x``·10¹² rounded to an integer, ties to even, in exact arithmetic."""
    num, den = x.as_integer_ratio()
    quotient, remainder = divmod(num * 10**12, den)
    twice = 2 * remainder
    if twice > den or (twice == den and quotient & 1):
        quotient += 1
    return quotient


class ShardedStages:
    """One pairing-tree node's sub-problem: a skeleton and its fraction table.

    ``fractions[row]`` holds the shares of B, D_i and D_o layer ``row``
    retains after all enclosing levels, each in (0, 1]; the root
    sub-problem holds ones.  The walk memo and every plan share tables,
    so the array is made read-only, and a table keeps its memo key once
    computed (:meth:`key`).
    """

    __slots__ = ("skeleton", "fractions", "_key")

    def __init__(self, skeleton: Skeleton, fractions: np.ndarray):
        fractions.flags.writeable = False
        self.skeleton = skeleton
        self.fractions = fractions
        self._key: Optional[bytes] = None

    def __len__(self) -> int:
        return len(self.skeleton.layers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardedStages):
            return NotImplemented
        return (self.skeleton.stages == other.skeleton.stages
                and self.skeleton.layers == other.skeleton.layers
                and np.array_equal(self.fractions, other.fractions))

    def workloads(self) -> List[ShardedWorkload]:
        """Every layer's sharded workload, in row order."""
        return [ShardedWorkload(layer, *row) for layer, row
                in zip(self.skeleton.layers, self.fractions.tolist())]

    def sizes(self) -> Sizes:
        """Every layer's tensor sizes and FLOPs as columns.

        The three tensors, and the three phases' reductions, are each one
        ``(3, layers)`` product.  Each element repeats
        :class:`ShardedWorkload`'s scalar formulas in their operation
        order, so every value is bit-identical to the scalar one.
        """
        dims = self.skeleton.dims
        # B, D_i, D_o after the enclosing levels' cuts
        kept = dims[:3] * self.fractions.T
        psum = (kept[_TENSOR_FIRST] * kept[_TENSOR_SECOND]
                * dims[_TENSOR_SPATIAL])
        phases = psum[_PHASES] * _reduction_flops(
            kept[_PHASES] * dims[_PHASE_SPATIAL])
        a_weight, a_out, a_in = psum
        return Sizes(a_in, a_out, a_weight, phases[0] + phases[1] + phases[2],
                     psum.T)

    def split(self, level: LevelPlan
              ) -> Tuple["ShardedStages", "ShardedStages"]:
        """The sub-problems the two parties see below ``level``: (left, right).

        The left party keeps share α, the right β = 1-α, of the column each
        layer's type partitions.  Every layer must be assigned, at a ratio
        inside (0, 1), and every cut must stay inside (0, 1].  Both sides
        are cut in one multiply; when the two cuts are bitwise equal (every
        α is ½), both children are one table.
        """
        names = self.skeleton.names
        try:
            entries = list(map(level.assignment, names))
        except KeyError as missing:
            raise KeyError(f"no assignment for layer {missing.args[0]!r}") \
                from None
        alpha = np.array([entry.alpha for entry in entries], dtype=float)
        inside = (alpha > 0.0) & (alpha < 1.0)
        if not inside.all():
            row = int(np.argmin(inside))
            raise ValueError(f"ratio of layer {names[row]!r} must be in (0, 1), "
                             f"got {entries[row].alpha}")
        rows = np.arange(len(names))
        # a type cuts the dimension it partitions; the fraction columns
        # (B, D_i, D_o) follow ALL_TYPES, like the pack's type axis
        columns = [TYPE_INDEX[entry.ptype] for entry in entries]
        cut = self.fractions[rows, columns] * np.array((alpha, 1.0 - alpha))
        inside = (cut > 0.0) & (cut <= 1.0)
        if not inside.all():
            side, row = divmod(int(np.argmin(inside)), len(names))
            raise ValueError(f"fraction of layer {names[row]!r} must be in "
                             f"(0, 1], got {cut[side, row]}")
        fractions = self.fractions.copy()
        fractions[rows, columns] = cut[0]
        left = ShardedStages(self.skeleton, fractions)
        if cut[0].tobytes() == cut[1].tobytes():
            return left, left
        fractions = self.fractions.copy()
        fractions[rows, columns] = cut[1]
        return left, ShardedStages(self.skeleton, fractions)

    def shard(self, level: LevelPlan, side: str) -> "ShardedStages":
        """The sub-problem one party sees below ``level``: ``side`` is
        ``"left"`` (share α) or ``"right"`` (share β = 1-α) of
        :meth:`split`."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self.split(level)[side == "right"]

    def key(self) -> bytes:
        """The walk memo's key for this table (the skeleton is per walk).

        Two tables get one key exactly when every fraction is equal under
        Python's ``round(x, 12)``.  ``rint(x·10¹²)`` is that rounding
        wherever x·10¹² lies more than 10⁻³ from a half-integer: for
        x ≤ 1 the multiply errs by at most 6.1·10⁻⁵.  The few elements
        nearer a tie are rounded in exact integer arithmetic.  The key is
        the rounded integers' int64 bytes, computed once per table.
        """
        if self._key is None:
            scaled = self.fractions * 1e12
            rounded = np.rint(scaled)
            near_tie = np.abs(scaled - rounded) > 0.499
            if near_tie.any():
                flat = self.fractions.ravel()
                out = rounded.ravel()
                for index in np.flatnonzero(near_tie):
                    out[index] = _round_half_even(float(flat[index]))
            self._key = rounded.astype(np.int64).tobytes()
        return self._key


def _build(stages: Sequence[Stage], layers: List[LayerWorkload],
           forks: List[Fork]) -> Tuple[Union[int, Fork], ...]:
    """``stages`` with each layer replaced by its row; appends every layer
    and every fork to the lists it is given."""
    out: List[Union[int, Fork]] = []
    for stage in stages:
        if isinstance(stage, LayerStage):
            out.append(len(layers))
            layers.append(stage.workload)
        elif isinstance(stage, ParallelStage):
            first = len(layers)
            paths = []
            lasts = []
            for path in stage.paths:
                paths.append(_build(path, layers, forks))
                lasts.append(len(layers) - 1 if paths[-1] else None)
            if first == len(layers):
                raise ValueError(
                    f"parallel stage {stage.name!r} has no weighted layers")
            fork = Fork(stage.name, tuple(paths), first, tuple(lasts))
            forks.append(fork)
            out.append(fork)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown stage kind {type(stage).__name__}")
    return tuple(out)


def to_sharded_stages(stages: Sequence[Stage]) -> ShardedStages:
    """The root sub-problem of a network's stages: its skeleton at fractions 1."""
    layers: List[LayerWorkload] = []
    forks: List[Fork] = []
    structure = _build(stages, layers, forks)
    skeleton = Skeleton(structure, tuple(layers), tuple(forks))
    return ShardedStages(skeleton, np.ones((len(layers), 3)))


#: models kept per process by :func:`model_stages`, least recently used
#: out: a name registered again leaves its old function's entry behind
MODEL_CACHE_SIZE = 256


class ModelStages:
    """What every request for one registered model shares, built once.

    ``digest`` is the network's structural fingerprint
    (:meth:`Network.fingerprint`, the ``network`` field of a request's
    key); ``skeleton`` is the root sub-problem's skeleton at batch 1;
    ``name`` is the network's own name, which its plans carry.  An entry
    holds structure and no cost, and nothing writes to it once built, so
    every shard thread reads it without a lock.
    """

    __slots__ = ("name", "digest", "skeleton")

    def __init__(self, network: Network):
        self.name = network.name
        self.digest = network.fingerprint()
        self.skeleton = to_sharded_stages(network.stages(1)).skeleton
        self.skeleton.dims.flags.writeable = False
        self.skeleton.is_conv.flags.writeable = False

    def root(self, batch: int) -> ShardedStages:
        """The root sub-problem at ``batch``: equal to
        ``to_sharded_stages(network.stages(batch))``, with no shape
        inference and no decomposition."""
        skeleton = self.skeleton.with_batch(batch)
        return ShardedStages(skeleton, np.ones((len(skeleton.layers), 3)))


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def _model_stages(builder: Callable[[], Network]) -> ModelStages:
    return ModelStages(builder())


def model_stages(name: str) -> ModelStages:
    """The :class:`ModelStages` of the model registered under ``name``.

    Built on the first call for the registered function, and kept: the key
    is that function, so a name registered again under another function
    misses, and registering the first function again finds its old entry.
    Two threads that make the first call at once may both build; their
    entries are equal, so no lock is taken.  An error from building or
    decomposing the model (a :class:`~repro.graph.network.GraphError`) is
    raised on every call and never kept.
    """
    return _model_stages(model_builder(name))


def flatten_to_chain(stages: ShardedStages) -> ShardedStages:
    """Linearize a series-parallel sub-problem into a plain chain.

    This is how the HyPar baseline sees multi-path networks (it "can only
    handle DNN architectures with linear structure", Section 1): layers are
    visited in topological order and fork/join structure is discarded.
    """
    skeleton = stages.skeleton
    if skeleton.forks:
        skeleton = Skeleton(tuple(range(len(skeleton.layers))),
                            skeleton.layers, ())
    return ShardedStages(skeleton, stages.fractions)
