"""Unit tests for the content-addressed fingerprints behind the plan cache."""

import dataclasses

import pytest

from repro.digest import stable_digest
from repro.graph import Input, Linear, Network
from repro.hardware import AcceleratorSpec, heterogeneous_array, make_group
from repro.hardware.presets import TPU_V2, TPU_V3
from repro.models import build_model
from repro.service import PlanRequest


class TestStableDigest:
    def test_deterministic(self):
        payload = {"b": [1, 2.5], "a": "x"}
        assert stable_digest(payload) == stable_digest(payload)

    def test_key_order_irrelevant(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_short_hex(self):
        digest = stable_digest("anything")
        assert len(digest) == 16
        int(digest, 16)  # valid hex


class TestSpecFingerprint:
    def test_equal_specs_equal_fingerprints(self):
        clone = AcceleratorSpec(
            name=TPU_V2.name,
            flops=TPU_V2.flops,
            memory_bytes=TPU_V2.memory_bytes,
            memory_bandwidth=TPU_V2.memory_bandwidth,
            network_bandwidth=TPU_V2.network_bandwidth,
        )
        assert clone.fingerprint() == TPU_V2.fingerprint()

    def test_any_field_changes_fingerprint(self):
        base = TPU_V2.fingerprint()
        for change in (
            {"name": "other"},
            {"flops": TPU_V2.flops * 2},
            {"memory_bytes": TPU_V2.memory_bytes + 1},
            {"memory_bandwidth": TPU_V2.memory_bandwidth + 1},
            {"network_bandwidth": TPU_V2.network_bandwidth + 1},
        ):
            assert dataclasses.replace(TPU_V2, **change).fingerprint() != base

    def test_distinct_boards_differ(self):
        assert TPU_V2.fingerprint() != TPU_V3.fingerprint()


class TestGroupFingerprint:
    def test_same_members_same_fingerprint(self):
        assert (heterogeneous_array(2, 2).fingerprint()
                == heterogeneous_array(2, 2).fingerprint())

    def test_size_changes_fingerprint(self):
        assert (heterogeneous_array(2, 2).fingerprint()
                != heterogeneous_array(2, 4).fingerprint())

    def test_homogeneous_vs_heterogeneous(self):
        assert (make_group(TPU_V3, 4).fingerprint()
                != heterogeneous_array(2, 2).fingerprint())


class TestNetworkFingerprint:
    def test_same_model_same_fingerprint(self):
        assert (build_model("alexnet").fingerprint()
                == build_model("alexnet").fingerprint())

    def test_models_differ(self):
        names = ["lenet", "alexnet", "vgg11", "resnet18"]
        prints = {build_model(n).fingerprint() for n in names}
        assert len(prints) == len(names)

    def test_structure_not_just_name(self):
        def tiny(width):
            net = Network("same-name", Input("in", channels=8))
            net.add(Linear("fc", 8, width))
            return net

        assert tiny(16).fingerprint() != tiny(32).fingerprint()

    def test_batch_argument_changes_hash(self):
        net = build_model("lenet")
        assert net.fingerprint(1) != net.fingerprint(2)


class TestPlanRequestFingerprint:
    def setup_method(self):
        self.array = heterogeneous_array(2, 2)

    def request(self, **overrides):
        kwargs = dict(model="alexnet", array=self.array, batch=64)
        kwargs.update(overrides)
        return PlanRequest(**kwargs)

    def test_independent_instances_agree(self):
        assert self.request().fingerprint() == self.request().fingerprint()

    def test_every_knob_changes_key(self):
        base = self.request().fingerprint()
        variants = [
            self.request(model="vgg11"),
            self.request(batch=128),
            self.request(scheme="hypar"),
            self.request(dtype_bytes=4),
            self.request(levels=1),
            self.request(space=("I", "II")),
            self.request(ratio_mode="equal"),
            self.request(array=heterogeneous_array(2, 4)),
        ]
        keys = {v.fingerprint() for v in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_model_name_case_insensitive(self):
        assert (self.request(model="AlexNet").fingerprint()
                == self.request(model="alexnet").fingerprint())

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            PlanRequest(model="alexnet", array=self.array, batch=0)

    def test_every_exact_dp_spelling_shares_one_fingerprint(self):
        spellings = ("dp", "DP", "accpar", "exact", "dp-vectorized",
                     "dp_vectorized", "dpv", "vectorized")
        requests = [self.request(backend=b) for b in spellings]
        assert {r.backend for r in requests} == {"dp"}
        keys = {r.fingerprint() for r in requests}
        assert len(keys) == 1
        assert self.request(backend="greedy").fingerprint() not in keys
        # no backend keeps its own key: the scheme's default may evolve
        assert self.request().fingerprint() not in keys

    def test_backend_aliases_canonicalize(self):
        assert self.request(backend="brute_force").backend == "brute-force"
        assert self.request(backend="Fixed").backend == "fixed-type"

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown search backend"):
            self.request(backend="simulated-annealing")


class TestProfileFingerprintSeparation:
    """Calibrated and analytic plans must never share a cache entry."""

    def setup_method(self):
        self.array = heterogeneous_array(2, 2)

    def request(self, **overrides):
        kwargs = dict(model="alexnet", array=self.array, batch=64)
        kwargs.update(overrides)
        return PlanRequest(**kwargs)

    def calibrated(self, rate=90e12):
        from repro.hardware.profile import CalibratedProfile, SpecProfile

        return CalibratedProfile(name="t", specs=(
            SpecProfile(spec="tpu-v2", compute_rates=(("default", rate),)),
            SpecProfile(spec="tpu-v3", compute_rates=(("default", 2 * rate),)),
        ))

    def test_calibrated_differs_from_analytic(self):
        assert (self.request(profile=self.calibrated()).fingerprint()
                != self.request().fingerprint())

    def test_distinct_profiles_distinct_keys(self):
        a = self.request(profile=self.calibrated(90e12)).fingerprint()
        b = self.request(profile=self.calibrated(80e12)).fingerprint()
        assert a != b

    def test_equal_profiles_share_key(self):
        assert (self.request(profile=self.calibrated()).fingerprint()
                == self.request(profile=self.calibrated()).fingerprint())

    def test_explicit_analytic_canonicalizes_to_none(self):
        from repro.hardware.profile import ANALYTIC

        explicit = self.request(profile=ANALYTIC)
        assert explicit.profile is None
        assert explicit.fingerprint() == self.request().fingerprint()
