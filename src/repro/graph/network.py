"""DNN graph container: a DAG of layers plus the structure the planner needs.

Two views of a network coexist here:

* the **full DAG** over every layer (weighted or not) — used for shape
  inference and validation;
* the **stage decomposition** — a series-parallel skeleton over weighted
  layers only, which is what the AccPar search (Section 5) operates on.
  Element-wise and shape-only layers are folded away because they are
  computed in place (Section 3.1) and carry no partitionable kernel.

A stage is either a single weighted layer (:class:`LayerStage`) or a
fork/join region (:class:`ParallelStage`) whose paths are themselves stage
lists — the multi-path pattern of Figure 4.  Nested forks (which do not occur
in the paper's model zoo but are legal) are handled recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .layers import Add, FeatureMap, Input, Layer, LayerWorkload


@dataclass(frozen=True)
class LayerStage:
    """One weighted layer in the planner's chain."""

    workload: LayerWorkload

    @property
    def name(self) -> str:
        return self.workload.name


@dataclass(frozen=True)
class ParallelStage:
    """A fork/join region: parallel paths of stages between two cut points.

    An empty path represents an identity skip connection.
    """

    paths: Tuple[Tuple["Stage", ...], ...]
    name: str = "parallel"

    def __post_init__(self) -> None:
        if len(self.paths) < 2:
            raise ValueError("a ParallelStage needs at least two paths")


Stage = Union[LayerStage, ParallelStage]


def iter_stage_workloads(stages: Sequence[Stage]) -> Iterable[LayerWorkload]:
    """All weighted-layer workloads in a stage list, in topological order."""
    for stage in stages:
        if isinstance(stage, LayerStage):
            yield stage.workload
        else:
            for path in stage.paths:
                yield from iter_stage_workloads(path)


def count_stage_layers(stages: Sequence[Stage]) -> int:
    return sum(1 for _ in iter_stage_workloads(stages))


class GraphError(ValueError):
    """Raised for malformed network graphs."""


class Network:
    """A directed acyclic graph of named layers.

    Layers are appended with :meth:`add`; by default each layer consumes the
    previously-added one, so linear networks read like a plain ``Sequential``.
    Fork/join topologies pass explicit ``inputs``.
    """

    def __init__(self, name: str, input_layer: Input):
        self.name = name
        self._layers: Dict[str, Layer] = {}
        self._preds: Dict[str, List[str]] = {}
        self._succs: Dict[str, List[str]] = {}
        self._last: Optional[str] = None
        self._input_name = input_layer.name
        self._register(input_layer, [])

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _register(self, layer: Layer, inputs: List[str]) -> None:
        if layer.name in self._layers:
            raise GraphError(f"duplicate layer name {layer.name!r} in network {self.name!r}")
        self._layers[layer.name] = layer
        self._preds[layer.name] = list(inputs)
        self._succs[layer.name] = []
        for parent in inputs:
            if parent not in self._layers:
                raise GraphError(f"unknown input layer {parent!r} for {layer.name!r}")
            self._succs[parent].append(layer.name)
        self._last = layer.name

    def add(self, layer: Layer, inputs: Optional[Sequence[str]] = None) -> str:
        """Append ``layer``; returns its name for later wiring."""
        if inputs is None:
            if self._last is None:
                raise GraphError("network has no layers to chain from")
            inputs = [self._last]
        if isinstance(layer, Input):
            raise GraphError("a network has exactly one Input layer")
        if not inputs:
            raise GraphError(f"layer {layer.name!r} must consume at least one input")
        self._register(layer, list(inputs))
        return layer.name

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def input_name(self) -> str:
        return self._input_name

    def layer(self, name: str) -> Layer:
        return self._layers[name]

    def layer_names(self) -> List[str]:
        return list(self._layers)

    def predecessors(self, name: str) -> List[str]:
        return list(self._preds[name])

    def successors(self, name: str) -> List[str]:
        return list(self._succs[name])

    def __len__(self) -> int:
        return len(self._layers)

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    @property
    def output_name(self) -> str:
        """The unique sink of the DAG."""
        sinks = [n for n, s in self._succs.items() if not s]
        if len(sinks) != 1:
            raise GraphError(f"network {self.name!r} has {len(sinks)} sinks, expected 1")
        return sinks[0]

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        indeg = {n: len(p) for n, p in self._preds.items()}
        ready = [n for n, d in indeg.items() if d == 0]
        order: List[str] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in self._succs[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._layers):
            raise GraphError(f"network {self.name!r} contains a cycle")
        return order

    def infer_shapes(self, batch: int) -> Dict[str, FeatureMap]:
        """Output feature map of every layer for the given mini-batch size."""
        input_layer = self._layers[self._input_name]
        assert isinstance(input_layer, Input)
        shapes: Dict[str, FeatureMap] = {self._input_name: input_layer.feature_map(batch)}
        for name in self.topological_order():
            if name == self._input_name:
                continue
            layer = self._layers[name]
            in_shapes = [shapes[p] for p in self._preds[name]]
            if isinstance(layer, Add):
                shapes[name] = layer.infer_many(in_shapes)
            else:
                if len(in_shapes) != 1:
                    raise GraphError(
                        f"layer {name!r} has {len(in_shapes)} inputs but is not a join layer"
                    )
                shapes[name] = layer.infer(in_shapes[0])
        return shapes

    def workloads(self, batch: int) -> List[LayerWorkload]:
        """Cost-model workloads of all weighted layers, topologically ordered."""
        shapes = self.infer_shapes(batch)
        result = []
        for name in self.topological_order():
            layer = self._layers[name]
            if layer.weighted:
                (pred,) = self._preds[name]
                workload = layer.workload(shapes[pred])
                assert workload is not None
                result.append(workload)
        return result

    # ------------------------------------------------------------------
    # series-parallel stage decomposition
    # ------------------------------------------------------------------
    def _immediate_post_dominators(self) -> Dict[str, Optional[str]]:
        """ipdom per node, via the classic iterative algorithm on the reverse DAG."""
        order = self.topological_order()
        sink = self.output_name
        index = {n: i for i, n in enumerate(order)}
        ipdom: Dict[str, Optional[str]] = {n: None for n in order}
        ipdom[sink] = sink

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] < index[b]:
                    nxt = ipdom[a]
                    assert nxt is not None
                    a = nxt
                while index[b] < index[a]:
                    nxt = ipdom[b]
                    assert nxt is not None
                    b = nxt
            return a

        changed = True
        while changed:
            changed = False
            for node in reversed(order):
                if node == sink:
                    continue
                succs = [s for s in self._succs[node] if ipdom[s] is not None]
                if not succs:
                    continue
                new = succs[0]
                for succ in succs[1:]:
                    new = intersect(new, succ)
                if ipdom[node] != new:
                    ipdom[node] = new
                    changed = True
        ipdom[sink] = None
        return ipdom

    def stages(self, batch: int) -> List[Stage]:
        """Decompose the network into the planner's series-parallel stages.

        The graph must be two-terminal series-parallel over its fork/join
        structure (every fork's paths stay disjoint until the matching join);
        graphs where paths overlap — e.g. two forks emanating from the same
        node with different joins — raise :class:`GraphError`.
        """
        shapes = self.infer_shapes(batch)
        ipdom = self._immediate_post_dominators()

        def workload_of(name: str) -> LayerWorkload:
            layer = self._layers[name]
            (pred,) = self._preds[name]
            workload = layer.workload(shapes[pred])
            assert workload is not None
            return workload

        def walk(node: Optional[str], stop: Optional[str]) -> List[Stage]:
            """Stages from ``node`` (inclusive) up to ``stop`` (exclusive)."""
            out: List[Stage] = []
            while node is not None and node != stop:
                layer = self._layers[node]
                if layer.weighted:
                    out.append(LayerStage(workload_of(node)))
                succs = self._succs[node]
                if not succs:
                    node = None
                elif len(succs) == 1:
                    node = succs[0]
                else:
                    join = ipdom[node]
                    if join is None:
                        raise GraphError(
                            f"fork at {node!r} never re-joins before the network sink"
                        )
                    paths = tuple(tuple(walk(s, join)) for s in succs)
                    # Only materialize a ParallelStage when at least one path
                    # carries a weighted layer; an all-identity fork (e.g. a
                    # tensor consumed twice by element-wise ops) is a no-op
                    # for the planner.
                    if any(path for path in paths):
                        out.append(ParallelStage(paths=paths, name=f"fork@{node}"))
                    node = join
            return out

        result = walk(self._input_name, None)

        seen: set = set()
        duplicates = set()
        for workload in iter_stage_workloads(result):
            if workload.name in seen:
                duplicates.add(workload.name)
            seen.add(workload.name)
        if duplicates:
            raise GraphError(
                f"network {self.name!r} is not series-parallel decomposable: "
                f"layers {sorted(duplicates)} are shared between fork paths"
            )
        missing = {name for name, layer in self._layers.items()
                   if layer.weighted} - seen
        if missing:
            raise GraphError(
                f"network {self.name!r}: stage decomposition missed layers "
                f"{sorted(missing)}"
            )
        return result

    def fingerprint(self, batch: int = 1) -> str:
        """Stable content hash of the graph structure and its shapes.

        Covers the network name, every layer's class and wiring, and the
        per-layer output feature maps at ``batch`` — so two registrations of
        the same model name with different architectures hash differently,
        which is what makes the plan-service cache safe against model
        redefinition.  ``batch`` defaults to 1 because shapes at any fixed
        batch identify the architecture; request batch is hashed separately
        by the service.
        """
        from ..digest import stable_digest

        shapes = self.infer_shapes(batch)
        layers = [
            {
                "name": name,
                "kind": type(self._layers[name]).__name__,
                "inputs": self._preds[name],
                "shape": list(shapes[name].shape),
            }
            for name in self.topological_order()
        ]
        return stable_digest({"name": self.name, "layers": layers})

    def describe(self, batch: int) -> str:
        """Human-readable per-layer summary (name, type, output shape)."""
        shapes = self.infer_shapes(batch)
        lines = [f"Network {self.name!r} (batch={batch})"]
        for name in self.topological_order():
            layer = self._layers[name]
            fm = shapes[name]
            tag = type(layer).__name__
            lines.append(f"  {name:<16} {tag:<18} -> {fm.shape}")
        return "\n".join(lines)
