"""Random asymmetric pairing trees execute exactly, FC and CONV alike.

Every node of a hypothesis-drawn tree (depth <= 3, leaves anywhere) picks
its own type and ratio per layer, the shape heterogeneous planner trees
take.  One training step under the tree must match the single-device
reference, and the executor must report the tree's true leaf count.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.hierarchy import collect_level_plans
from repro.core.types import ALL_TYPES
from repro.numeric import (
    CnnSpec,
    ConvLayerSpec,
    MlpSpec,
    PartitionedExecutor,
    conv_reference_step,
    reference_step,
)
from repro.plan import HierarchicalPlan, LayerAssignment, LevelPlan

# every split axis is >= 32, so three 0.25 / 0.75 splits never exhaust one
MLP = MlpSpec([32, 40, 32])
MLP_BATCH = 32
CNN = CnnSpec(32, 3, 3, [ConvLayerSpec(32, 32, kernel=3, padding=1),
                         ConvLayerSpec(32, 40, kernel=1)])
CNN_BATCH = 32


def trees(layer_names, depth):
    """Pairing trees of at most ``depth`` levels, drawn node by node."""
    leaf = st.just(HierarchicalPlan(None))
    if depth == 0:
        return leaf
    level = st.lists(
        st.tuples(st.sampled_from(ALL_TYPES), st.sampled_from([0.25, 0.5, 0.75])),
        min_size=len(layer_names), max_size=len(layer_names),
    ).map(lambda parts: LevelPlan(
        LayerAssignment(name, ptype, ratio)
        for name, (ptype, ratio) in zip(layer_names, parts)
    ))
    child = trees(layer_names, depth - 1)
    return st.one_of(leaf, st.builds(HierarchicalPlan, level, child, child))


def max_divergence(ref, trace) -> float:
    return max(
        max(float(np.max(np.abs(a - b)))
            for a, b in zip(ref.activations, trace.activations)),
        max(float(np.max(np.abs(a - b)))
            for a, b in zip(ref.gradients, trace.gradients)),
        abs(ref.loss - trace.loss),
    )


def n_leaves(tree) -> int:
    # a full binary tree has one more leaf than it has splits
    return len(collect_level_plans(tree)) + 1


class TestRandomTrees:
    @settings(deadline=None, max_examples=30)
    @given(trees(MLP.layer_names, 3), st.integers(min_value=0, max_value=3))
    def test_fc_tree_exact(self, tree, seed):
        weights = MLP.init_weights(seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((MLP_BATCH, MLP.widths[0]))
        target = rng.standard_normal((MLP_BATCH, MLP.widths[-1]))
        trace = PartitionedExecutor(MLP, weights, tree, MLP_BATCH).step(x, target)
        assert max_divergence(reference_step(weights, x, target), trace) < 1e-9
        assert trace.n_leaf_devices == n_leaves(tree)

    @settings(deadline=None, max_examples=20)
    @given(trees(CNN.layer_names, 3), st.integers(min_value=0, max_value=3))
    def test_conv_tree_exact(self, tree, seed):
        weights = CNN.init_weights(seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((CNN_BATCH, CNN.in_channels, CNN.height,
                                 CNN.width))
        target = rng.standard_normal((CNN_BATCH, *CNN.geometries()[-1]))
        trace = PartitionedExecutor(CNN, weights, tree, CNN_BATCH).step(x, target)
        ref = conv_reference_step(CNN, weights, x, target)
        assert max_divergence(ref, trace) < 1e-9
        assert trace.n_leaf_devices == n_leaves(tree)
