"""Entry points reproducing each figure of the paper's evaluation (Section 6).

Every function returns the raw data and a rendered ASCII artifact; the
``benchmarks/`` suite wraps these with pytest-benchmark and prints the
artifacts so paper-vs-measured comparisons can be recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines import SCHEME_ORDER
from ..core.types import PartitionType
from ..hardware.presets import PAPER_BATCH, heterogeneous_array, homogeneous_array
from ..models.registry import PAPER_MODELS
from .harness import RunResult, SpeedupTable, run_scheme, sweep
from .reporting import format_table


def figure5_heterogeneous(
    models: Optional[Sequence[str]] = None,
    batch: int = PAPER_BATCH,
    n_v2: int = 128,
    n_v3: int = 128,
    levels: Optional[int] = None,
) -> SpeedupTable:
    """Figure 5: DP/OWT/HyPar/AccPar on the 128×TPU-v2 + 128×TPU-v3 array."""
    array = heterogeneous_array(n_v2, n_v3)
    return sweep(models or PAPER_MODELS, array, SCHEME_ORDER, batch, levels)


def figure6_homogeneous(
    models: Optional[Sequence[str]] = None,
    batch: int = PAPER_BATCH,
    n: int = 128,
    levels: Optional[int] = None,
) -> SpeedupTable:
    """Figure 6: the same sweep on a homogeneous 128×TPU-v3 array."""
    array = homogeneous_array(n)
    return sweep(models or PAPER_MODELS, array, SCHEME_ORDER, batch, levels)


@dataclass
class AlexnetTypesResult:
    """Figure 7 data: per hierarchy level, AccPar's type per weighted layer."""

    layer_names: List[str]
    per_level: List[Dict[str, PartitionType]]

    def rendered(self) -> str:
        headers = ["level"] + self.layer_names
        rows = []
        for idx, level in enumerate(self.per_level, start=1):
            rows.append(
                [str(idx)] + [level[name].value for name in self.layer_names]
            )
        return format_table(headers, rows,
                            title="AccPar partition types per layer (Alexnet)")


def figure7_alexnet_types(
    batch: int = 128,
    n: int = 128,
    levels: int = 7,
) -> AlexnetTypesResult:
    """Figure 7: selected partition types for Alexnet's weighted layers.

    The paper uses 7 hierarchy levels and batch size 128.
    """
    result = run_scheme("alexnet", "accpar", homogeneous_array(n), batch, levels)
    per_level = result.planned.layer_types_by_level()
    ordered_names = [
        w.name for w in _ordered_workloads(result)
    ]
    filtered = [
        {name: types[name] for name in ordered_names} for types in per_level
    ]
    return AlexnetTypesResult(layer_names=ordered_names, per_level=filtered)


def _ordered_workloads(result: RunResult):
    return result.planned.stages.workloads()


@dataclass
class HierarchySweepResult:
    """Figure 8 data: speedup vs hierarchy level, per scheme."""

    levels: List[int]
    speedups: Dict[str, List[float]]  # scheme -> one value per level

    def rendered(self) -> str:
        headers = ["h"] + [s for s in self.speedups]
        rows = []
        for idx, h in enumerate(self.levels):
            rows.append(
                [str(h)] + [f"{self.speedups[s][idx]:.2f}x" for s in self.speedups]
            )
        return format_table(headers, rows,
                            title="Speedup vs hierarchy level (Vgg19, heterogeneous)")


def figure8_hierarchy_sweep(
    model: str = "vgg19",
    levels: Sequence[int] = tuple(range(2, 10)),
    batch: int = PAPER_BATCH,
) -> HierarchySweepResult:
    """Figure 8: scalability with hierarchy levels h = 2..9 on Vgg19.

    A hierarchy of ``h`` levels partitions tensors into 2^h shards, which
    needs a 2^h-board array: half TPU-v2, half TPU-v3 (the heterogeneous
    configuration).  Speedups at each h are normalized to DP at the same h,
    matching the per-array normalization of Section 6.
    """
    speedups: Dict[str, List[float]] = {s: [] for s in SCHEME_ORDER}
    for h in levels:
        half = 2 ** (h - 1)
        array = heterogeneous_array(half, half)
        times = {
            s: run_scheme(model, s, array, batch, levels=h).time
            for s in SCHEME_ORDER
        }
        for s in SCHEME_ORDER:
            speedups[s].append(times["dp"] / times[s])
    return HierarchySweepResult(levels=list(levels), speedups=speedups)
