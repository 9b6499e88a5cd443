"""AccPar core: partition algebra, cost model, search and planners."""

from .brute_force import brute_force_chain
from .greedy import greedy_chain
from .cost_model import PairCostModel, inter_layer_elements
from .dp_vectorized import search_stages
from .hierarchy import collect_level_plans, plan_tree
from .planner import AccParPlanner, PartitionScheme, PlannedExecution, Planner
from .ratio import solve_balanced_ratio
from .quantize import (
    QuantizationError,
    QuantizationReport,
    quantize_plan,
    quantize_ratio,
)
from .serialize import (
    PlanFormatError,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from .verify import PlanVerificationError, verify_planned
from .stages import ShardedStages, flatten_to_chain, to_sharded_stages
from ..plan.ir import HierarchicalPlan, LayerPartition, LevelPlan, SearchResult
from .types import (
    ALL_TYPES,
    HYPAR_TYPES,
    PartitionType,
    Phase,
    PSUM_PHASE,
    REPLICATED_TENSOR,
    PARTITIONED_DIM,
    ShardedWorkload,
)

__all__ = [
    "QuantizationError",
    "QuantizationReport",
    "quantize_plan",
    "quantize_ratio",
    "PlanFormatError",
    "PlanVerificationError",
    "load_plan",
    "plan_from_dict",
    "plan_to_dict",
    "save_plan",
    "verify_planned",
    "ALL_TYPES",
    "AccParPlanner",
    "HYPAR_TYPES",
    "HierarchicalPlan",
    "LayerPartition",
    "LevelPlan",
    "PARTITIONED_DIM",
    "PSUM_PHASE",
    "PairCostModel",
    "PartitionScheme",
    "PartitionType",
    "Phase",
    "PlannedExecution",
    "Planner",
    "REPLICATED_TENSOR",
    "SearchResult",
    "ShardedStages",
    "ShardedWorkload",
    "brute_force_chain",
    "greedy_chain",
    "collect_level_plans",
    "flatten_to_chain",
    "inter_layer_elements",
    "plan_tree",
    "search_stages",
    "solve_balanced_ratio",
    "to_sharded_stages",
]
