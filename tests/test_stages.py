"""Unit tests for the sharded-stage table: conversion and level sharding."""

import numpy as np
import pytest

from repro.core.stages import (Fork, ShardedStages, Sizes, flatten_to_chain,
                                to_sharded_stages)
from repro.core.types import PartitionType
from repro.graph.network import ParallelStage
from repro.models import build_model
from repro.plan.ir import LayerAssignment, LevelPlan

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


@pytest.fixture
def resnet_stages():
    return to_sharded_stages(build_model("resnet18").stages(batch=32))


@pytest.fixture
def chain_stages():
    return to_sharded_stages(build_model("alexnet").stages(batch=32))


def uniform_level(stages, ptype, alpha):
    return LevelPlan([LayerAssignment(name, ptype, alpha)
                      for name in stages.skeleton.names])


class TestConversion:
    def test_unsharded_fractions_are_one(self, chain_stages):
        assert chain_stages.fractions.shape == (len(chain_stages), 3)
        assert (chain_stages.fractions == 1.0).all()
        for sw in chain_stages.workloads():
            assert sw.batch_frac == 1.0
            assert sw.din_frac == 1.0
            assert sw.dout_frac == 1.0

    def test_structure_preserved(self, resnet_stages):
        parallels = [s for s in resnet_stages.skeleton.stages
                     if isinstance(s, Fork)]
        assert len(parallels) == 8

    def test_workload_order_matches_network(self, chain_stages):
        names = [sw.name for sw in chain_stages.workloads()]
        expected = [w.name for w in build_model("alexnet").workloads(32)]
        assert names == expected
        assert list(chain_stages.skeleton.names) == expected

    def test_sizes_match_the_scalar_workloads(self, resnet_stages):
        level = uniform_level(resnet_stages, II, 0.3)
        stages = resnet_stages.shard(level, "right").shard(
            uniform_level(resnet_stages, I, 0.7), "left")
        sizes = stages.sizes()
        for row, sw in enumerate(stages.workloads()):
            assert sizes.a_in[row] == sw.a_input_fm()
            assert sizes.a_out[row] == sw.a_output_fm()
            assert sizes.a_weight[row] == sw.a_weight()
            assert sizes.flops[row] == sw.flops_total()


def column_sizes(stages):
    """``stages.sizes()`` as one formula per column (the reference)."""
    batch, d_in, d_out, in_spatial, out_spatial, kernel_spatial = \
        stages.skeleton.dims
    fractions = stages.fractions
    batch = batch * fractions[:, 0]
    d_in = d_in * fractions[:, 1]
    d_out = d_out * fractions[:, 2]
    a_in = batch * d_in * in_spatial
    a_out = batch * d_out * out_spatial
    a_weight = d_in * d_out * kernel_spatial

    def reduction_flops(reduction):
        return np.where(reduction >= 1.0, 2.0 * reduction - 1.0, reduction)

    flops = (a_out * reduction_flops(d_in * kernel_spatial)
             + a_in * reduction_flops(d_out * kernel_spatial)
             + a_weight * reduction_flops(batch * out_spatial))
    return Sizes(a_in, a_out, a_weight, flops,
                 np.stack([a_weight, a_out, a_in], axis=1))


class TestSizeColumns:
    """The ``(3, layers)`` products equal the column formulas bit for bit."""

    @pytest.mark.parametrize("model", ["alexnet", "resnet18", "trident"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_fractions(self, model, seed):
        rng = np.random.default_rng(seed)
        root = to_sharded_stages(build_model(model).stages(batch=64))
        shape = root.fractions.shape
        # uniform shares, exact powers of two and tiny ones, which move
        # reductions to either side of 1
        fractions = np.choose(rng.integers(0, 3, shape), (
            rng.uniform(0.0, 1.0, shape) + 1e-12,
            2.0 ** -rng.integers(0, 12, shape).astype(float),
            rng.uniform(1e-9, 1e-3, shape)))
        stages = ShardedStages(root.skeleton, fractions)
        for got, want in zip(stages.sizes(), column_sizes(stages)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestForkRows:
    def test_chain(self, chain_stages):
        names = chain_stages.skeleton.names
        assert names[0] == "cv1"
        assert names[-1] == "fc3"
        assert not chain_stages.skeleton.forks

    def test_within_parallel_stage(self, resnet_stages):
        skeleton = resnet_stages.skeleton
        fork = next(s for s in skeleton.stages if isinstance(s, Fork))
        assert skeleton.names[fork.first].endswith("_cv1")
        for path, last in zip(fork.paths, fork.lasts):
            assert (last is None) == (not path)
            if path:
                assert last == max(r for r in path if isinstance(r, int))

    def test_fork_without_layers_raises(self):
        with pytest.raises(ValueError, match="no weighted layers"):
            to_sharded_stages([ParallelStage(paths=((), ()), name="hollow")])


class TestShard:
    def test_left_right_partition_dimension(self, chain_stages):
        level = uniform_level(chain_stages, I, 0.25)
        left = chain_stages.shard(level, "left")
        right = chain_stages.shard(level, "right")
        for l, r, base in zip(left.workloads(), right.workloads(),
                              chain_stages.workloads()):
            assert l.batch == pytest.approx(0.25 * base.batch)
            assert r.batch == pytest.approx(0.75 * base.batch)

    def test_type_specific_dimension(self, chain_stages):
        left = chain_stages.shard(uniform_level(chain_stages, II, 0.5), "left")
        for l, base in zip(left.workloads(), chain_stages.workloads()):
            assert l.d_in == pytest.approx(0.5 * base.d_in)
            assert l.batch == base.batch

    def test_product_order_is_fraction_times_share(self, chain_stages):
        # the walk multiplies a layer's fraction by its share, once per level
        level = uniform_level(chain_stages, III, 0.3)
        right = chain_stages.shard(level, "right").shard(level, "right")
        assert (right.fractions[:, 2] == (1.0 - 0.3) * (1.0 - 0.3)).all()
        assert (right.fractions[:, :2] == 1.0).all()

    def test_parent_table_is_not_modified(self, chain_stages):
        chain_stages.shard(uniform_level(chain_stages, I, 0.5), "left")
        assert (chain_stages.fractions == 1.0).all()

    def test_tables_are_read_only(self, chain_stages):
        child = chain_stages.shard(uniform_level(chain_stages, I, 0.5), "left")
        for table in (chain_stages, child):
            with pytest.raises(ValueError):
                table.fractions[0, 0] = 0.25

    def test_missing_assignment_raises(self, chain_stages):
        with pytest.raises(KeyError, match="cv1"):
            chain_stages.shard(LevelPlan(), "left")

    def test_invalid_side_raises(self, chain_stages):
        with pytest.raises(ValueError, match="side"):
            chain_stages.shard(uniform_level(chain_stages, I, 0.5), "middle")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_ratio_outside_the_open_interval_raises(self, chain_stages, alpha):
        with pytest.raises(ValueError, match="ratio"):
            chain_stages.shard(uniform_level(chain_stages, I, alpha), "left")

    def test_fraction_underflow_raises(self, chain_stages):
        level = uniform_level(chain_stages, I, 1e-200)
        once = chain_stages.shard(level, "left")
        with pytest.raises(ValueError, match="fraction"):
            once.shard(level, "left")

    def test_parallel_structure_sharded(self, resnet_stages):
        left = resnet_stages.shard(uniform_level(resnet_stages, I, 0.5), "left")
        assert left.skeleton is resnet_stages.skeleton
        for sw in left.workloads():
            assert sw.batch_frac == pytest.approx(0.5)


class TestFlattenToChain:
    def test_resnet_flattens_to_all_layers(self, resnet_stages):
        chain = flatten_to_chain(resnet_stages)
        assert not chain.skeleton.forks
        assert chain.skeleton.stages == tuple(range(21))
        assert chain.fractions is resnet_stages.fractions

    def test_chain_is_identity_for_linear(self, chain_stages):
        chain = flatten_to_chain(chain_stages)
        assert chain.skeleton is chain_stages.skeleton

    def test_parallel_stage_needs_two_paths(self):
        with pytest.raises(ValueError):
            ParallelStage(paths=((),))


class TestEquality:
    def test_equal_tables_compare_equal(self, chain_stages):
        again = to_sharded_stages(build_model("alexnet").stages(batch=32))
        assert again == chain_stages
        half = chain_stages.shard(uniform_level(chain_stages, I, 0.5), "left")
        assert half != chain_stages
        assert np.array_equal(half.fractions[:, 0], np.full(len(half), 0.5))
