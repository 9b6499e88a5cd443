"""Tests of the multi-level (2^h devices) numeric executor.

Validates the recursive scheme of Section 5.1 end-to-end: nested partition
types compose to the exact single-device result, and the per-level
partial-sum traffic matches the analytic accounting (most importantly: pure
data parallelism pays the full gradient exchange at every level).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import PartitionType
from repro.numeric.executor import PartitionedExecutor
from repro.numeric.reference import MlpSpec, reference_step
from repro.plan import LayerPartition

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III

SPEC = MlpSpec([16, 16, 16])
BATCH = 16


def run_both(level_types, ratio=0.5, spec=SPEC, batch=BATCH, seed=0):
    """level_types: list over levels of per-layer type lists."""
    rng = np.random.default_rng(seed)
    weights = spec.init_weights(seed)
    x = rng.standard_normal((batch, spec.widths[0]))
    target = rng.standard_normal((batch, spec.widths[-1]))
    ref = reference_step(weights, x, target)
    plans = [
        [LayerPartition(t, ratio) for t in per_layer]
        for per_layer in level_types
    ]
    hier = PartitionedExecutor(spec, weights, plans, batch).step(x, target)
    return ref, hier


def max_divergence(ref, hier) -> float:
    grad = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(ref.gradients, hier.gradients)
    )
    act = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(ref.activations, hier.activations)
    )
    return max(grad, act, abs(ref.loss - hier.loss))


class TestExactness:
    @pytest.mark.parametrize("t1,t2", list(itertools.product((I, II, III),
                                                             repeat=2)))
    def test_two_levels_uniform_types(self, t1, t2):
        """Four devices: level-1 type x level-2 type, all 9 combinations."""
        ref, hier = run_both([[t1, t1], [t2, t2]])
        assert hier.n_leaf_devices == 4
        assert max_divergence(ref, hier) < 1e-9

    def test_three_levels_mixed(self):
        """Eight devices with a different type mix per level and layer."""
        ref, hier = run_both([[I, II], [II, III], [III, I]])
        assert hier.n_leaf_devices == 8
        assert max_divergence(ref, hier) < 1e-9

    def test_four_levels_deep(self):
        spec = MlpSpec([32, 32, 32])
        ref, hier = run_both([[I, I], [II, II], [III, III], [I, II]],
                             spec=spec, batch=32)
        assert hier.n_leaf_devices == 16
        assert max_divergence(ref, hier) < 1e-9

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.75])
    def test_asymmetric_ratios(self, ratio):
        ref, hier = run_both([[II, III], [I, I]], ratio=ratio)
        assert max_divergence(ref, hier) < 1e-9

    def test_zero_levels_is_reference(self):
        ref, hier = run_both([])
        assert hier.n_leaf_devices == 1
        assert max_divergence(ref, hier) == 0.0

    def test_plan_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            PartitionedExecutor(SPEC, SPEC.init_weights(),
                                [[LayerPartition(I, 0.5)]], BATCH)


class TestPerLevelTraffic:
    def test_data_parallel_pays_full_weights_every_level(self):
        """The DP baseline's defining cost: at EVERY level, every node
        exchanges the full (unsharded) ΔW — 2^l nodes x 2 x A(W)."""
        levels = 3
        _, hier = run_both([[I, I]] * levels)
        a_w = 16 * 16
        totals = hier.comm.per_level_totals()
        for level in range(levels):
            nodes = 2 ** level
            assert totals[level] == nodes * 2 * a_w * 2  # 2 layers

    def test_model_partition_shrinks_with_depth(self):
        """Under all-Type-II, the forward psum at level l is the sharded
        F_{l+1}: halved input dim does not change A(F), but the deeper
        levels' tensors shrink once combined with batch splits."""
        _, hier = run_both([[II, II], [I, I], [II, II]])
        totals = hier.comm.per_level_totals()
        # level 2's Type-II psums act on quarter-size F (B halved by the
        # level-1 Type-I split) but are paid by 4 nodes: equal to level 0
        # in total, so per-node traffic shrank 4x
        per_node_l0 = totals[0] / 1
        per_node_l2 = totals[2] / 4
        assert per_node_l2 == pytest.approx(per_node_l0 / 2)

    def test_type_iii_logs_backward_psums(self):
        _, hier = run_both([[III, III]])
        keyed = hier.comm.intra
        # layer 0 propagates no error to the input, so only fc1 psums...
        # but the hierarchical executor computes E_0 only if a previous
        # layer exists; layer fc1's backward psum must be present
        assert (0, "fc1") in keyed

    def test_free_structure_no_psum_for_pure_concat_types(self):
        """A plan whose every phase is concat-combined (no psum) logs no
        traffic: impossible — every type psums in exactly one phase; verify
        instead that each (level, layer) appears at most once per phase."""
        _, hier = run_both([[I, II]])
        for (level, layer), elements in hier.comm.intra.items():
            assert min(elements) > 0


class TestPropertyBased:
    @settings(deadline=None, max_examples=20)
    @given(
        st.lists(
            st.tuples(st.sampled_from([I, II, III]),
                      st.sampled_from([I, II, III])),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from([0.25, 0.5]),
    )
    def test_random_level_plans_exact(self, level_types, ratio):
        # dimensions sized so three 0.25-splits never exhaust an axis
        spec = MlpSpec([32, 32, 32])
        ref, hier = run_both([list(t) for t in level_types], ratio=ratio,
                             spec=spec, batch=32)
        assert max_divergence(ref, hier) < 1e-9

    def test_exhausted_axis_raises_cleanly(self):
        """Splitting a dimension below one element is a clear error, not a
        silent wrong answer."""
        with pytest.raises(ValueError, match="cannot split"):
            run_both([[I, I]] * 5, ratio=0.25)  # batch 16 exhausts
