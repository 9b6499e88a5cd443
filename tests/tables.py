"""Sub-problem tables at chosen fractions, for tests.

Imports nothing beyond ``repro`` and numpy, so the CI jobs without
``hypothesis`` can import it.
"""

import numpy as np

from repro.core.stages import ShardedStages, to_sharded_stages
from repro.core.types import ShardedWorkload
from repro.graph.network import LayerStage, ParallelStage


def table(stages) -> ShardedStages:
    """The sub-problem of a stage list whose layers may be sharded.

    ``stages`` is a graph stage list; a layer stage holding a
    :class:`ShardedWorkload` puts that workload's fractions in its row,
    one holding a plain ``LayerWorkload`` puts ones.
    """
    rows = []

    def unshard(sub):
        out = []
        for stage in sub:
            if isinstance(stage, ParallelStage):
                out.append(ParallelStage(
                    tuple(tuple(unshard(path)) for path in stage.paths),
                    stage.name))
                continue
            workload = stage.workload
            if isinstance(workload, ShardedWorkload):
                rows.append((workload.batch_frac, workload.din_frac,
                             workload.dout_frac))
                stage = LayerStage(workload.base)
            else:
                rows.append((1.0, 1.0, 1.0))
            out.append(stage)
        return out

    skeleton = to_sharded_stages(unshard(stages)).skeleton
    return ShardedStages(skeleton,
                         np.array(rows, dtype=float).reshape(len(rows), 3))
