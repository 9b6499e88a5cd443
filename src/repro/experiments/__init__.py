"""Experiment harness and figure reproduction entry points."""

from .pareto import (
    CostLandscape,
    baseline_assignments,
    enumerate_landscape,
)
from .faults import (
    StragglerOutcome,
    degrade_tree,
    straggler_experiment,
    throttle_spec,
)
from .sensitivity import (
    OptimizerImpact,
    SweepSeries,
    batch_sweep,
    bandwidth_sweep,
    latency_sweep,
    optimizer_sweep,
    scale_network_bandwidth,
)
from .svg import grouped_bar_svg, line_chart_svg
from .analysis import (
    LayerCostRow,
    WhatIfRow,
    layer_type_sensitivity,
    render_what_if,
    dominant_layers,
    render_breakdown,
    render_level_summary,
    root_level_breakdown,
    type_histogram,
)
from .figures import (
    AlexnetTypesResult,
    HierarchySweepResult,
    figure5_heterogeneous,
    figure6_homogeneous,
    figure7_alexnet_types,
    figure8_hierarchy_sweep,
)
from .harness import (
    RunResult,
    SpeedupTable,
    geometric_mean,
    run_scheme,
    sweep,
)
from .reporting import (
    format_bar_chart,
    format_grouped_bars,
    format_speedup_table,
    format_table,
    scheme_label,
)

__all__ = [
    "CostLandscape",
    "baseline_assignments",
    "enumerate_landscape",
    "StragglerOutcome",
    "WhatIfRow",
    "degrade_tree",
    "layer_type_sensitivity",
    "render_what_if",
    "straggler_experiment",
    "throttle_spec",
    "OptimizerImpact",
    "SweepSeries",
    "batch_sweep",
    "bandwidth_sweep",
    "latency_sweep",
    "grouped_bar_svg",
    "line_chart_svg",
    "optimizer_sweep",
    "scale_network_bandwidth",
    "LayerCostRow",
    "dominant_layers",
    "render_breakdown",
    "render_level_summary",
    "root_level_breakdown",
    "type_histogram",
    "AlexnetTypesResult",
    "HierarchySweepResult",
    "RunResult",
    "SpeedupTable",
    "figure5_heterogeneous",
    "figure6_homogeneous",
    "figure7_alexnet_types",
    "figure8_hierarchy_sweep",
    "format_bar_chart",
    "format_grouped_bars",
    "format_speedup_table",
    "format_table",
    "geometric_mean",
    "run_scheme",
    "scheme_label",
    "sweep",
]
