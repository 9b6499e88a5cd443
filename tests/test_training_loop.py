"""Multi-step training: partitioned and reference loops must coincide.

The strongest end-to-end claim of Section 3's algebra: a whole training run
(not just one step) on two devices with any type assignment matches the
single-device run exactly, under every update rule of Section 2.1, and the
loss actually goes down.
"""

import itertools

import pytest

from repro.core.types import PartitionType
from repro.numeric import MlpSpec
from repro.plan import LayerPartition
from repro.training.loop import (
    compare_runs,
    synthetic_task,
    train_partitioned,
    train_reference,
)

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III

SPEC = MlpSpec([8, 12, 8, 4])
BATCH = 16


@pytest.fixture(scope="module")
def task():
    return synthetic_task(SPEC, BATCH, seed=0)


class TestLossDecreases:
    @pytest.mark.parametrize(
        "optimizer,kwargs",
        [("sgd", {}), ("momentum", {}), ("adam", {"lr": 0.02})],
    )
    def test_reference_learns(self, task, optimizer, kwargs):
        x, target = task
        run = train_reference(SPEC, x, target, steps=40, optimizer=optimizer,
                              **kwargs)
        assert run.final_loss < run.losses[0] * 0.5

    def test_partitioned_learns(self, task):
        x, target = task
        plan = [LayerPartition(I, 0.5), LayerPartition(II, 0.5),
                LayerPartition(III, 0.5)]
        run = train_partitioned(SPEC, plan, x, target, steps=40)
        assert run.final_loss < run.losses[0] * 0.5


class TestPartitionedMatchesReference:
    @pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
    def test_mixed_plan_all_optimizers(self, task, optimizer):
        x, target = task
        plan = [LayerPartition(II, 0.5), LayerPartition(III, 0.5),
                LayerPartition(I, 0.5)]
        ref = train_reference(SPEC, x, target, steps=25, optimizer=optimizer)
        par = train_partitioned(SPEC, plan, x, target, steps=25,
                                optimizer=optimizer)
        assert compare_runs(ref, par) < 1e-8
        for a, b in zip(ref.losses, par.losses):
            assert a == pytest.approx(b, rel=1e-10)

    @pytest.mark.parametrize("t0,t1,t2",
                             list(itertools.product((I, II, III), repeat=3)))
    def test_every_type_combination_with_momentum(self, task, t0, t1, t2):
        x, target = task
        plan = [LayerPartition(t0, 0.5), LayerPartition(t1, 0.5),
                LayerPartition(t2, 0.5)]
        ref = train_reference(SPEC, x, target, steps=8, optimizer="momentum")
        par = train_partitioned(SPEC, plan, x, target, steps=8,
                                optimizer="momentum")
        assert compare_runs(ref, par) < 1e-8

    def test_asymmetric_ratio_training(self, task):
        x, target = task
        plan = [LayerPartition(I, 0.25), LayerPartition(II, 0.75),
                LayerPartition(III, 0.25)]
        ref = train_reference(SPEC, x, target, steps=15)
        par = train_partitioned(SPEC, plan, x, target, steps=15)
        assert compare_runs(ref, par) < 1e-8


class TestSyntheticTask:
    def test_task_is_deterministic(self):
        x1, t1 = synthetic_task(SPEC, BATCH, seed=5)
        x2, t2 = synthetic_task(SPEC, BATCH, seed=5)
        assert (x1 == x2).all() and (t1 == t2).all()

    def test_task_shapes(self, task):
        x, target = task
        assert x.shape == (BATCH, 8)
        assert target.shape == (BATCH, 4)


class TestConvTrainingLoop:
    @pytest.fixture(scope="class")
    def conv_setup(self):
        from repro.numeric.conv_reference import CnnSpec, ConvLayerSpec
        from repro.training.loop import conv_synthetic_task

        spec = CnnSpec(4, 8, 8, [ConvLayerSpec(4, 6, kernel=3, padding=1),
                                 ConvLayerSpec(6, 4, kernel=3, padding=1)])
        x, target = conv_synthetic_task(spec, batch=4)
        return spec, x, target

    def test_conv_reference_learns(self, conv_setup):
        from repro.training.loop import train_reference_conv

        spec, x, target = conv_setup
        run = train_reference_conv(spec, x, target, steps=30, lr=0.002)
        assert run.final_loss < run.losses[0] * 0.7

    @pytest.mark.parametrize("optimizer", ["sgd", "momentum"])
    def test_conv_partitioned_matches_reference(self, conv_setup, optimizer):
        from repro.training.loop import (
            train_partitioned,
            train_reference_conv,
        )

        spec, x, target = conv_setup
        plan = [LayerPartition(II, 0.5), LayerPartition(III, 0.5)]
        ref = train_reference_conv(spec, x, target, steps=10,
                                   optimizer=optimizer, lr=0.002)
        par = train_partitioned(spec, plan, x, target, steps=10,
                                optimizer=optimizer, lr=0.002)
        assert compare_runs(ref, par) < 1e-8
        for a, b in zip(ref.losses, par.losses):
            assert a == pytest.approx(b, rel=1e-10)
