"""Unit tests for the pluggable hardware-profile layer.

Covers the :mod:`repro.hardware.profile` contract: validation of
:class:`SpecProfile` documents, the log-linear bandwidth-efficiency
interpolation, group-level aggregation, ``repro.hardware.profile/v1``
round-trips (including the committed golden fixture), mismatch errors,
and :func:`resolve_profile` coercion.
"""

import json
import math
import pathlib

import pytest

from repro.hardware import TPU_V2, TPU_V3, heterogeneous_array, make_group
from repro.hardware.profile import (
    ANALYTIC,
    PROFILE_SCHEMA,
    AnalyticProfile,
    CalibratedProfile,
    ProfileError,
    ProfileMismatchError,
    SpecProfile,
    load_profile,
    profile_from_doc,
    profile_to_doc,
    resolve_profile,
    save_profile,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "profiles_v1"


def simple_profile(**overrides) -> CalibratedProfile:
    kwargs = dict(
        name="test",
        specs=(
            SpecProfile(
                spec="tpu-v2",
                compute_rates=(("default", 90e12), ("fc", 40e12)),
                bandwidth_efficiency=((1e4, 0.5), (1e7, 0.9)),
                transfer_latency_s=1e-5,
            ),
            SpecProfile(
                spec="tpu-v3",
                compute_rates=(("default", 230e12),),
            ),
        ),
    )
    kwargs.update(overrides)
    return CalibratedProfile(**kwargs)


class TestSpecProfileValidation:
    def test_needs_default_rate(self):
        with pytest.raises(ProfileError, match="default"):
            SpecProfile(spec="x", compute_rates=(("conv", 1e12),))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ProfileError, match="positive"):
            SpecProfile(spec="x", compute_rates=(("default", 0.0),))

    def test_rejects_negative_latency(self):
        with pytest.raises(ProfileError, match="latency"):
            SpecProfile(spec="x", compute_rates=(("default", 1e12),),
                        transfer_latency_s=-1e-6)

    def test_rejects_bad_efficiency_point(self):
        with pytest.raises(ProfileError, match="efficiency"):
            SpecProfile(spec="x", compute_rates=(("default", 1e12),),
                        bandwidth_efficiency=((1e6, 1.5),))
        with pytest.raises(ProfileError, match="efficiency"):
            SpecProfile(spec="x", compute_rates=(("default", 1e12),),
                        bandwidth_efficiency=((0.0, 0.5),))

    @pytest.mark.parametrize("field, overrides", [
        ("compute rate", {"compute_rates": (("default", math.inf),)}),
        ("compute rate", {"compute_rates": (("default", math.nan),)}),
        ("compute rate", {"compute_rates": (("default", True),)}),
        ("compute rate", {"compute_rates": (("default", 1e12),
                                            ("fc", "1e12"))}),
        ("transfer_latency_s", {"transfer_latency_s": math.inf}),
        ("transfer_latency_s", {"transfer_latency_s": math.nan}),
        ("transfer_latency_s", {"transfer_latency_s": True}),
        ("memory_bandwidth_scale", {"memory_bandwidth_scale": math.nan}),
        ("memory_bandwidth_scale", {"memory_bandwidth_scale": math.inf}),
        ("bandwidth efficiency", {"bandwidth_efficiency": ((math.inf, 0.5),)}),
        ("bandwidth efficiency", {"bandwidth_efficiency": ((math.nan, 0.5),)}),
        ("bandwidth efficiency", {"bandwidth_efficiency": ((1e6, math.nan),)}),
    ])
    def test_rejects_non_finite_values_naming_the_field(self, field,
                                                        overrides):
        kwargs = {"spec": "x", "compute_rates": (("default", 1e12),),
                  **overrides}
        with pytest.raises(ProfileError, match=field):
            SpecProfile(**kwargs)

    def test_curve_points_sorted_by_size(self):
        sp = SpecProfile(spec="x", compute_rates=(("default", 1e12),),
                         bandwidth_efficiency=((1e6, 0.7), (1e3, 0.4)))
        assert sp.bandwidth_efficiency == ((1e3, 0.4), (1e6, 0.7))

    def test_unknown_kind_falls_back_to_default(self):
        sp = SpecProfile(spec="x",
                         compute_rates=(("default", 1e12), ("fc", 5e11)))
        assert sp.compute_rate("fc") == 5e11
        assert sp.compute_rate("conv") == 1e12
        assert sp.compute_rate() == 1e12


class TestEfficiencyInterpolation:
    sp = SpecProfile(spec="x", compute_rates=(("default", 1e12),),
                     bandwidth_efficiency=((1e3, 0.4), (1e6, 0.8)))

    def test_clamps_below_and_above(self):
        assert self.sp.efficiency(1.0) == 0.4
        assert self.sp.efficiency(1e9) == 0.8

    def test_exact_points(self):
        assert self.sp.efficiency(1e3) == 0.4
        assert self.sp.efficiency(1e6) == pytest.approx(0.8)

    def test_log_linear_midpoint(self):
        # geometric midpoint of the sizes -> arithmetic midpoint of the effs
        mid = math.sqrt(1e3 * 1e6)
        assert self.sp.efficiency(mid) == pytest.approx(0.6)

    def test_empty_curve_is_unit_efficiency(self):
        flat = SpecProfile(spec="x", compute_rates=(("default", 1e12),))
        assert flat.efficiency(123.0) == 1.0


class TestAnalyticProfile:
    def test_returns_group_peaks_unchanged(self):
        group = heterogeneous_array(2, 2)
        assert ANALYTIC.compute_rate(group) == group.flops
        assert ANALYTIC.network_bandwidth(group) == group.network_bandwidth
        assert ANALYTIC.memory_bandwidth(group) == group.memory_bandwidth
        assert ANALYTIC.transfer_latency_s(group) == 0.0

    def test_validates_any_array(self):
        ANALYTIC.validate_array(heterogeneous_array(2, 2))  # no raise

    def test_equality_and_fingerprint_stable(self):
        assert AnalyticProfile() == ANALYTIC
        assert AnalyticProfile().fingerprint() == ANALYTIC.fingerprint()


class TestCalibratedAggregation:
    def test_group_rate_sums_members(self):
        profile = simple_profile()
        group = make_group(TPU_V2, 4)
        assert profile.compute_rate(group) == pytest.approx(4 * 90e12)
        assert profile.compute_rate(group, "fc") == pytest.approx(4 * 40e12)

    def test_mixed_group_sums_per_member(self):
        profile = simple_profile()
        group = heterogeneous_array(2, 3)
        assert profile.compute_rate(group) == pytest.approx(
            2 * 90e12 + 3 * 230e12)

    def test_latency_is_slowest_member(self):
        profile = simple_profile()
        assert profile.transfer_latency_s(heterogeneous_array(1, 1)) == 1e-5
        assert profile.transfer_latency_s(make_group(TPU_V3, 2)) == 0.0

    def test_bandwidth_applies_efficiency(self):
        profile = simple_profile()
        group = make_group(TPU_V2, 2)
        small = profile.network_bandwidth(group, 1e3)
        large = profile.network_bandwidth(group, 1e8)
        assert small == pytest.approx(group.network_bandwidth * 0.5)
        assert large == pytest.approx(group.network_bandwidth * 0.9)
        # None = asymptotic (last curve point)
        assert profile.network_bandwidth(group) == pytest.approx(large)

    def test_duplicate_spec_rejected(self):
        sp = SpecProfile(spec="tpu-v2", compute_rates=(("default", 1e12),))
        with pytest.raises(ProfileError, match="duplicate"):
            CalibratedProfile(name="dup", specs=(sp, sp))

    def test_empty_profile_rejected(self):
        with pytest.raises(ProfileError, match="no specs"):
            CalibratedProfile(name="empty", specs=())


class TestMismatch:
    def test_validate_array_names_missing_and_covered(self):
        profile = simple_profile(specs=(
            SpecProfile(spec="tpu-v3", compute_rates=(("default", 1e12),)),
        ))
        with pytest.raises(ProfileMismatchError) as err:
            profile.validate_array(heterogeneous_array(1, 1))
        assert "tpu-v2" in str(err.value)
        assert "covered: tpu-v3" in str(err.value)

    def test_group_rate_on_uncovered_spec_raises(self):
        profile = simple_profile(specs=(
            SpecProfile(spec="tpu-v3", compute_rates=(("default", 1e12),)),
        ))
        with pytest.raises(ProfileMismatchError):
            profile.compute_rate(make_group(TPU_V2, 2))


class TestRoundTrip:
    def test_doc_round_trip_preserves_fingerprint(self):
        profile = simple_profile()
        doc = profile_to_doc(profile)
        again = profile_from_doc(json.loads(json.dumps(doc)))
        assert again == profile
        assert again.fingerprint() == profile.fingerprint()

    def test_file_round_trip(self, tmp_path):
        profile = simple_profile()
        path = tmp_path / "p.json"
        save_profile(profile, path)
        assert load_profile(path) == profile

    def test_golden_fixture_loads(self):
        profile = load_profile(FIXTURES / "golden.json")
        assert profile.name == "golden"
        assert profile.spec_names() == ("tpu-v2", "tpu-v3")
        assert profile.spec_compute_rate(TPU_V2, "fc") == 40e12
        assert profile.spec_compute_rate(TPU_V3, "conv") == 250e12
        assert dict(profile.meta)["source"] == "golden fixture"
        # the serialized document is canonical: re-serializing the loaded
        # profile reproduces the committed bytes
        doc = json.loads((FIXTURES / "golden.json").read_text())
        assert profile_to_doc(profile) == doc

    def test_golden_fixture_fingerprint_pinned(self):
        # fingerprints feed cache keys; silent drift would invalidate (or
        # worse, alias) every persisted plan keyed on this content
        profile = load_profile(FIXTURES / "golden.json")
        assert profile.fingerprint() == "9a1c19c5db2e016a"

    def test_analytic_round_trips_to_singleton(self):
        doc = profile_to_doc(ANALYTIC)
        assert doc["kind"] == "analytic"
        assert profile_from_doc(doc) is ANALYTIC

    def test_rejects_wrong_schema(self):
        with pytest.raises(ProfileError, match="schema"):
            profile_from_doc({"schema": "nope", "kind": "calibrated"})

    def test_rejects_unknown_kind(self):
        with pytest.raises(ProfileError, match="kind"):
            profile_from_doc({"schema": PROFILE_SCHEMA, "kind": "mystic"})

    @pytest.mark.parametrize("field, entry", [
        ("transfer_latency_s", {"transfer_latency_s": math.inf}),
        ("transfer_latency_s", {"transfer_latency_s": math.nan}),
        ("compute rate", {"compute_rates": {"default": math.inf}}),
        ("memory_bandwidth_scale", {"memory_bandwidth_scale": math.nan}),
        ("bandwidth efficiency", {"bandwidth_efficiency": [[math.inf, 0.5]]}),
        ("compute rate", {"compute_rates": {"default": True}}),
        ("compute rate", {"compute_rates": {"default": "4.5e13"}}),
        ("transfer_latency_s", {"transfer_latency_s": False}),
        ("bandwidth efficiency", {"bandwidth_efficiency": [[True, 0.5]]}),
    ])
    def test_rejects_non_finite_document_values(self, field, entry):
        """Python's ``json`` reads ``Infinity`` and ``NaN``; neither, nor a
        bool or a string, makes a rate, a latency, a scale or a size."""
        doc = profile_to_doc(simple_profile())
        doc["specs"]["tpu-v2"] = {"compute_rates": {"default": 9e13},
                                  **entry}
        doc = json.loads(json.dumps(doc))
        with pytest.raises(ProfileError, match=field) as refused:
            profile_from_doc(doc)
        assert "tpu-v2" in str(refused.value)

    def test_rejects_specless_document(self):
        with pytest.raises(ProfileError, match="specs"):
            profile_from_doc({"schema": PROFILE_SCHEMA, "kind": "calibrated",
                              "name": "x", "specs": {}})


class TestResolveProfile:
    def test_none_and_name_resolve_analytic(self):
        assert resolve_profile(None) is ANALYTIC
        assert resolve_profile("analytic") is ANALYTIC
        assert resolve_profile("ANALYTIC") is ANALYTIC

    def test_profile_passes_through(self):
        profile = simple_profile()
        assert resolve_profile(profile) is profile

    def test_dict_parses_as_document(self):
        profile = simple_profile()
        assert resolve_profile(profile_to_doc(profile)) == profile

    def test_path_loads_file(self, tmp_path):
        profile = simple_profile()
        path = tmp_path / "p.json"
        save_profile(profile, path)
        assert resolve_profile(str(path)) == profile

    def test_bad_json_file_is_a_profile_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProfileError, match="not valid JSON"):
            resolve_profile(str(path))

    def test_unresolvable_type_raises(self):
        with pytest.raises(ProfileError, match="cannot resolve"):
            resolve_profile(42)
