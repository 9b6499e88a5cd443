"""Plan diagnostics: where does the time go?

Tools a user needs to *trust* a plan: per-layer cost breakdowns at the root
split (compute vs intra vs inter, with the chosen type and ratio), and the
simulated communication volume per hierarchy level.  All ASCII-rendered for
terminals and logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.cost_model import PairCostModel
from ..core.planner import PlannedExecution
from ..core.types import PartitionType
from ..plan.ir import LayerPartition
from ..sim.executor import SimReport
from .reporting import format_table


@dataclass(frozen=True)
class LayerCostRow:
    """Root-level cost components of one layer (slower-party seconds)."""

    name: str
    ptype: PartitionType
    ratio: float
    compute: float
    intra: float
    inter: float

    @property
    def total(self) -> float:
        return self.compute + self.intra + self.inter


def root_level_breakdown(planned: PlannedExecution) -> List[LayerCostRow]:
    """Per-layer compute / intra / inter costs at the root split.

    Uses the same cost model the planner used (equal treatment), evaluated
    at the plan's chosen types and ratios; times are the slower party's.
    """
    if planned.plan.level_plan is None:
        raise ValueError("plan has no levels to analyze")
    tree = planned.tree
    assert tree.left is not None and tree.right is not None
    model = PairCostModel(tree.left.group, tree.right.group,
                          planned.dtype_bytes)
    assignments = planned.root_level_plan.assignments

    rows: List[LayerCostRow] = []
    prev: Optional[PartitionType] = None
    for sw in planned.stages.workloads():
        lp: LayerPartition = assignments[sw.name]
        cp_i, cp_j = model.compute_costs(sw, lp.ptype, lp.ratio)
        intra_i, intra_j = model.intra_costs(sw, lp.ptype)
        inter_i, inter_j = model.inter_costs(sw.a_input_fm(), prev, lp.ptype,
                                             lp.ratio)
        rows.append(
            LayerCostRow(
                name=sw.name,
                ptype=lp.ptype,
                ratio=lp.ratio,
                compute=max(cp_i, cp_j),
                intra=max(intra_i, intra_j),
                inter=max(inter_i, inter_j),
            )
        )
        prev = lp.ptype
    return rows


def render_breakdown(rows: List[LayerCostRow], title: str = "") -> str:
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.name,
                row.ptype.value,
                f"{row.ratio:.3f}",
                f"{row.compute * 1e6:.1f}",
                f"{row.intra * 1e6:.1f}",
                f"{row.inter * 1e6:.1f}",
                f"{row.total * 1e6:.1f}",
            ]
        )
    total = sum(r.total for r in rows)
    table_rows.append(
        ["TOTAL", "", "", "", "", "", f"{total * 1e6:.1f}"]
    )
    return format_table(
        ["layer", "type", "alpha", "compute us", "intra us", "inter us", "total us"],
        table_rows,
        title=title or "Root-level cost breakdown (slower party)",
    )


def dominant_layers(rows: List[LayerCostRow], top: int = 5) -> List[LayerCostRow]:
    """The layers contributing the most root-level cost."""
    return sorted(rows, key=lambda r: r.total, reverse=True)[:top]


def render_level_summary(report: SimReport, title: str = "") -> str:
    """Per-level communication summary of a simulated run."""
    rows = []
    for lv in report.levels:
        rows.append(
            [
                str(lv.level),
                f"{lv.comm_time * 1e3:.3f}",
                f"{lv.net_bytes_left / 1e6:.2f}",
                f"{lv.net_bytes_right / 1e6:.2f}",
            ]
        )
    rows.append(["leaf", f"{report.leaf_time * 1e3:.3f}", "-", "-"])
    rows.append(["total", f"{report.total_time * 1e3:.3f}", "-", "-"])
    return format_table(
        ["level", "time ms", "MB left", "MB right"],
        rows,
        title=title or "Simulated per-level communication",
    )


@dataclass(frozen=True)
class WhatIfRow:
    """Root-level cost of flipping one layer to each alternative type."""

    name: str
    chosen: PartitionType
    costs: Dict[PartitionType, float]  # total chain cost per forced type

    @property
    def regret_of_worst_choice(self) -> float:
        return max(self.costs.values()) / self.costs[self.chosen]


def layer_type_sensitivity(planned: PlannedExecution) -> List[WhatIfRow]:
    """What-if analysis: re-run the root-level search with each layer's type
    pinned to each alternative, everything else free.

    Answers "how much does this layer's decision matter?" — a flat row
    means the layer is insensitive; a steep one explains the plan.
    """
    from ..core.dp_vectorized import search_stages
    from ..core.types import ALL_TYPES

    if planned.plan.level_plan is None:
        raise ValueError("plan has no levels to analyze")
    tree = planned.tree
    assert tree.left is not None and tree.right is not None
    model = PairCostModel(tree.left.group, tree.right.group,
                          planned.dtype_bytes)
    chosen = {
        name: lp.ptype
        for name, lp in planned.root_level_plan.layer_assignments().items()
    }

    rows: List[WhatIfRow] = []
    for target in chosen:
        costs: Dict[PartitionType, float] = {}
        for forced in ALL_TYPES:
            result = search_stages(
                planned.stages,
                model,
                space_fn=lambda w, t=forced, n=target: (
                    (t,) if w.name == n else tuple(ALL_TYPES)
                ),
            )
            costs[forced] = result.cost
        rows.append(WhatIfRow(name=target, chosen=chosen[target], costs=costs))
    return rows


def render_what_if(rows: List[WhatIfRow], title: str = "") -> str:
    from ..core.types import ALL_TYPES

    table_rows = []
    for row in rows:
        best = min(row.costs.values())
        cells = [row.name, row.chosen.value]
        for t in ALL_TYPES:
            marker = "*" if t is row.chosen else ""
            cells.append(f"{row.costs[t] / best:.3f}{marker}")
        table_rows.append(cells)
    return format_table(
        ["layer", "chosen"] + [f"pin {t.value}" for t in ALL_TYPES],
        table_rows,
        title=title or "What-if: relative chain cost when pinning each layer",
    )


def type_histogram(planned: PlannedExecution) -> Dict[PartitionType, int]:
    """Partition-type counts across every level of the plan."""
    counts = {t: 0 for t in PartitionType}
    for level in planned.level_plans():
        for t, n in level.type_counts().items():
            counts[t] += n
    return counts
