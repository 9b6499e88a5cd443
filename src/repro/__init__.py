"""repro — a reproduction of AccPar (HPCA 2020).

AccPar is a principled, systematic method for partitioning the tensors of
DNN *training* across arrays of heterogeneous deep-learning accelerators.
This package implements the complete system described in the paper:

* the complete three-type tensor-partitioning space (Section 3);
* the computation + communication cost model (Section 4);
* the layer-wise dynamic-programming search with multi-path support and
  flexible heterogeneous partitioning ratios (Section 5);
* the baselines it is compared against — data parallelism, "One Weird
  Trick" and HyPar;
* a trace-driven performance simulator of TPU-v2/TPU-v3 accelerator arrays
  (Section 6.1) and the experiment harness regenerating the paper's
  evaluation figures.

Quickstart::

    from repro import AccParPlanner, build_model, heterogeneous_array, evaluate

    planner = AccParPlanner(heterogeneous_array())
    planned = planner.plan(build_model("vgg19"), batch=512)
    report = evaluate(planned)
    print(report.total_time, report.throughput)
"""

from .baselines import SCHEME_ORDER, SCHEMES, get_scheme
from .core import (
    ALL_TYPES,
    AccParPlanner,
    HYPAR_TYPES,
    HierarchicalPlan,
    LayerPartition,
    LevelPlan,
    PairCostModel,
    PartitionScheme,
    PartitionType,
    Phase,
    PlannedExecution,
    Planner,
    ShardedWorkload,
)
from .graph import (
    Add,
    BatchNorm,
    Conv2d,
    Dropout,
    FeatureMap,
    Flatten,
    GlobalAvgPool,
    Input,
    LayerWorkload,
    Linear,
    Network,
    Pool2d,
    ReLU,
    TensorShape,
    validate_network,
)
from .hardware import (
    AcceleratorGroup,
    AcceleratorSpec,
    TPU_V2,
    TPU_V3,
    bisection_tree,
    heterogeneous_array,
    homogeneous_array,
    make_group,
)
from .models import PAPER_MODELS, available_models, build_model, register_model
from .plan import (
    JoinAlignment,
    LayerAssignment,
    PathExit,
    available_backends,
    get_backend,
    plan_diff,
    validate_plan,
)
from .service import (
    MetricsRegistry,
    PlanCache,
    PlanRequest,
    PlanResponse,
    PlanService,
)
from .sim import EngineConfig, MemoryReport, SimReport, evaluate

__version__ = "1.0.0"

__all__ = [
    "ALL_TYPES",
    "AcceleratorGroup",
    "AcceleratorSpec",
    "AccParPlanner",
    "Add",
    "BatchNorm",
    "Conv2d",
    "Dropout",
    "EngineConfig",
    "FeatureMap",
    "Flatten",
    "GlobalAvgPool",
    "HYPAR_TYPES",
    "HierarchicalPlan",
    "Input",
    "JoinAlignment",
    "LayerAssignment",
    "LayerPartition",
    "LayerWorkload",
    "LevelPlan",
    "PathExit",
    "Linear",
    "MemoryReport",
    "MetricsRegistry",
    "Network",
    "PAPER_MODELS",
    "PlanCache",
    "PlanRequest",
    "PlanResponse",
    "PlanService",
    "PairCostModel",
    "PartitionScheme",
    "PartitionType",
    "Phase",
    "PlannedExecution",
    "Planner",
    "Pool2d",
    "ReLU",
    "SCHEME_ORDER",
    "SCHEMES",
    "SimReport",
    "ShardedWorkload",
    "TPU_V2",
    "TPU_V3",
    "TensorShape",
    "available_backends",
    "available_models",
    "bisection_tree",
    "build_model",
    "evaluate",
    "get_backend",
    "get_scheme",
    "plan_diff",
    "validate_plan",
    "heterogeneous_array",
    "homogeneous_array",
    "make_group",
    "register_model",
    "validate_network",
    "__version__",
]
