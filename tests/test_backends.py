"""Unit tests for the pluggable search-backend registry (repro.plan.backends)."""

import pytest

from repro.core.cost_model import PairCostModel
from repro.core.stages import to_sharded_stages
from repro.core.types import ALL_TYPES, PartitionType
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage, ParallelStage
from repro.hardware import TPU_V2, TPU_V3, make_group
from repro.plan.backends import (
    BruteForceSearchBackend,
    available_backends,
    canonical_backend_name,
    get_backend,
    register_backend,
)
from repro.plan.ir import SearchResult

I, II, III = PartitionType.TYPE_I, PartitionType.TYPE_II, PartitionType.TYPE_III


def fc_stage(name, batch=16, d_in=32, d_out=32):
    w = LayerWorkload(name, batch, d_in, d_out, (1, 1), (1, 1), (1, 1), False)
    return LayerStage(w)


@pytest.fixture
def model():
    return PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1),
                         ratio_mode="balanced")


@pytest.fixture
def chain():
    return to_sharded_stages([fc_stage(f"l{i}") for i in range(4)])


class TestRegistry:
    def test_four_canonical_backends(self):
        assert available_backends() == [
            "brute-force", "dp", "fixed-type", "greedy"
        ]

    def test_aliases_resolve_to_canonical(self):
        assert get_backend("accpar").name == "dp"
        assert get_backend("exact").name == "dp"
        assert get_backend("dp-vectorized").name == "dp"
        assert get_backend("dp_vectorized").name == "dp"
        assert get_backend("dpv").name == "dp"
        assert get_backend("vectorized").name == "dp"
        assert get_backend("brute_force").name == "brute-force"
        assert get_backend("bruteforce").name == "brute-force"
        assert get_backend("fixed").name == "fixed-type"
        assert get_backend("fixed_type").name == "fixed-type"

    def test_lookup_is_case_insensitive(self):
        assert get_backend("DP").name == "dp"
        assert get_backend("Greedy").name == "greedy"

    def test_canonical_backend_name(self):
        assert canonical_backend_name("dp") == "dp"
        assert canonical_backend_name("DPV") == "dp"
        assert canonical_backend_name("exact") == "dp"
        with pytest.raises(KeyError, match="unknown search backend"):
            canonical_backend_name("simulated-annealing")

    def test_level_plan_counter_canonicalizes_aliases(self, chain):
        # every spelling of the exact DP must feed one Prometheus series,
        # not fragment per requested spelling
        from collections import Counter

        from repro.core.hierarchy import plan_tree
        from repro.core.planner import PartitionScheme
        from repro.hardware import AcceleratorGroup
        from repro.hardware.cluster import bisection_tree

        tree = bisection_tree(AcceleratorGroup((TPU_V3, TPU_V2)), 1)
        spellings = ("dp", "accpar", "exact", "dpv", "dp_vectorized",
                     "dp-vectorized", "vectorized")
        tally = Counter()
        for spelling in spellings:
            plan_tree(tree, chain, PartitionScheme(backend=spelling), 2, tally)
        assert tally["level_plans_dp"] == len(spellings)
        assert tally["level_plans_dp_vectorized"] == 0

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="brute-force.*dp.*fixed-type.*greedy"):
            get_backend("simulated-annealing")

    def test_each_lookup_returns_fresh_instance(self):
        assert get_backend("dp") is not get_backend("dp")

    def test_custom_backend_registration(self, monkeypatch):
        from repro.plan import backends as mod

        monkeypatch.setattr(mod, "_REGISTRY", dict(mod._REGISTRY))
        monkeypatch.setattr(mod, "_ALIASES", dict(mod._ALIASES))

        class Pinned:
            name = "pin-ii"

            def search(self, stages, model, space=ALL_TYPES, space_fn=None):
                return get_backend("dp").search(
                    stages, model, space, space_fn=lambda w: (II,)
                )

        register_backend("pin-ii", Pinned, aliases=("pinned",))
        assert "pin-ii" in available_backends()
        assert get_backend("pinned").name == "pin-ii"


class TestBackendSearch:
    def test_dp_covers_all_layers(self, model, chain):
        result = get_backend("dp").search(chain, model)
        assert isinstance(result, SearchResult)
        assert set(result.types()) == {f"l{i}" for i in range(4)}

    def test_vectorized_spellings_are_the_dp_backend(self, model, chain):
        dp = get_backend("dp").search(chain, model)
        vec = get_backend("dp-vectorized").search(chain, model)
        assert type(get_backend("dp-vectorized")) is type(get_backend("dp"))
        assert vec == dp

    def test_greedy_never_beats_dp(self, model, chain):
        dp = get_backend("dp").search(chain, model)
        greedy = get_backend("greedy").search(chain, model)
        assert dp.cost <= greedy.cost + 1e-12

    def test_brute_force_matches_dp_on_small_chain(self, model, chain):
        dp = get_backend("dp").search(chain, model)
        brute = get_backend("brute-force").search(chain, model)
        assert brute.cost == pytest.approx(dp.cost, rel=1e-9)

    def test_brute_force_refuses_long_chains(self, model):
        chain = to_sharded_stages([fc_stage(f"l{i}") for i in range(13)])
        with pytest.raises(ValueError, match="dp"):
            get_backend("brute-force").search(chain, model)

    def test_brute_force_cap_is_configurable(self, model):
        chain = to_sharded_stages([fc_stage(f"l{i}") for i in range(5)])
        with pytest.raises(ValueError):
            BruteForceSearchBackend(max_layers=4).search(chain, model)

    def test_fixed_type_pins_type_i(self, model, chain):
        result = get_backend("fixed-type").search(chain, model)
        assert set(result.types().values()) == {I}

    def test_fixed_type_space_fn_takes_precedence(self, model, chain):
        result = get_backend("fixed-type").search(
            chain, model, space_fn=lambda w: (III,)
        )
        assert set(result.types().values()) == {III}

    def test_greedy_linearizes_fork_join(self, model):
        region = ParallelStage(
            paths=((fc_stage("p0a"), fc_stage("p0b")), (fc_stage("p1a"),)),
            name="blk",
        )
        result = get_backend("greedy").search(
            to_sharded_stages([fc_stage("pre"), region, fc_stage("post")]), model
        )
        assert {"pre", "p0a", "p0b", "p1a", "post"} <= set(result.types())

    def test_space_restriction_respected(self, model, chain):
        # fixed-type is excluded: its Type-I pin deliberately wins
        # over the level's searchable space
        for name in ("dp", "greedy", "brute-force"):
            result = get_backend(name).search(chain, model, space=(II,))
            assert set(result.types().values()) == {II}, name

    def test_fixed_type_pin_wins_over_space(self, model, chain):
        result = get_backend("fixed-type").search(chain, model, space=(II,))
        assert set(result.types().values()) == {I}
