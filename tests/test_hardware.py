"""Unit tests for the hardware model: specs, groups, presets, pairing tree."""

import pytest

from repro.core.planner import AccParPlanner
from repro.digest import stable_digest
from repro.hardware import (
    AcceleratorGroup,
    AcceleratorSpec,
    TPU_V2,
    TPU_V3,
    bisection_tree,
    describe_tree,
    heterogeneous_array,
    homogeneous_array,
    make_group,
    max_hierarchy_levels,
    merge_groups,
)
from repro.hardware import accelerator, cluster, presets
from repro.hardware.presets import ARRAY_CACHE_SIZE, MAX_BOARDS, parse_array
from repro.models import build_model
from repro.service.server import request_from_doc


class TestSpecs:
    def test_tpu_v2_table7(self):
        assert TPU_V2.flops == 180e12
        assert TPU_V2.memory_bytes == 64 * 2**30
        assert TPU_V2.memory_bandwidth == 2400e9
        assert TPU_V2.network_bandwidth == 1e9  # 8 Gb/s

    def test_tpu_v3_table7(self):
        assert TPU_V3.flops == 420e12
        assert TPU_V3.memory_bytes == 128 * 2**30
        assert TPU_V3.memory_bandwidth == 4800e9
        assert TPU_V3.network_bandwidth == 2e9  # 16 Gb/s

    def test_v3_is_stronger_everywhere(self):
        assert TPU_V3.flops > TPU_V2.flops
        assert TPU_V3.network_bandwidth > TPU_V2.network_bandwidth

    def test_invalid_spec_raises(self):
        with pytest.raises(ValueError):
            AcceleratorSpec("bad", flops=0, memory_bytes=1, memory_bandwidth=1,
                            network_bandwidth=1)

    def test_str_mentions_name(self):
        assert "tpu-v2" in str(TPU_V2)


class TestGroups:
    def test_aggregation_sums(self):
        g = make_group(TPU_V2, 4)
        assert g.flops == 4 * TPU_V2.flops
        assert g.network_bandwidth == 4 * TPU_V2.network_bandwidth
        assert g.memory_bytes == 4 * TPU_V2.memory_bytes
        assert g.memory_bandwidth == 4 * TPU_V2.memory_bandwidth

    def test_empty_group_raises(self):
        with pytest.raises(ValueError):
            AcceleratorGroup(())

    def test_make_group_rejects_zero(self):
        with pytest.raises(ValueError):
            make_group(TPU_V2, 0)

    def test_homogeneity(self):
        assert make_group(TPU_V2, 3).is_homogeneous
        assert not heterogeneous_array(2, 2).is_homogeneous

    def test_signature_is_order_insensitive(self):
        a = merge_groups(make_group(TPU_V2, 2), make_group(TPU_V3, 2))
        b = merge_groups(make_group(TPU_V3, 2), make_group(TPU_V2, 2))
        assert a.signature() == b.signature()

    def test_merge_sizes(self):
        g = merge_groups(make_group(TPU_V2, 3), make_group(TPU_V3, 5))
        assert g.size == 8


class TestPresets:
    def test_heterogeneous_default_is_128_plus_128(self):
        arr = heterogeneous_array()
        assert arr.size == 256
        assert dict(arr.signature()) == {"tpu-v2": 128, "tpu-v3": 128}

    def test_homogeneous_default(self):
        arr = homogeneous_array()
        assert arr.size == 128
        assert arr.is_homogeneous


class TestSharedArrays:
    """One array text is parsed into one group, which hashes its members
    once per process."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        presets._shared_group.cache_clear()

    def test_one_text_twice_is_one_group_hashed_once(self, monkeypatch):
        payloads = []

        def counting(payload):
            payloads.append(payload)
            return stable_digest(payload)

        monkeypatch.setattr(accelerator, "stable_digest", counting)
        first = parse_array("tpu-v2:3,tpu-v3:5")
        second = parse_array("tpu-v2:3,tpu-v3:5")
        assert first is second
        assert first.fingerprint() == second.fingerprint()
        group_payloads = [p for p in payloads if isinstance(p, list)]
        assert len(group_payloads) == 1

    def test_spellings_of_hetero_share_one_group_and_fingerprint(self):
        texts = ("hetero", " HETERO ", "tpu-v2:128,tpu-v3:128")
        groups = [parse_array(text) for text in texts]
        assert all(group is heterogeneous_array() for group in groups)
        # the cached digest is the member-list digest it always was
        assert groups[0].fingerprint() == stable_digest(
            [m.fingerprint() for m in groups[0].members])
        fingerprints = {
            request_from_doc({"model": "alexnet", "array": text}).fingerprint()
            for text in texts}
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("text, message", [
        ("tpu-v2:0", "board count 0 is not a positive integer"),
        ("tpu-v9:1", "unknown accelerator 'tpu-v9'"),
        (f"tpu-v2:{MAX_BOARDS},tpu-v3:1",
         f"array of {MAX_BOARDS + 1} boards exceeds the limit "
         f"of {MAX_BOARDS}"),
    ])
    def test_refused_on_every_request_and_never_cached(self, text, message):
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError, match=message) as info:
                parse_array(text)
            messages.add(str(info.value))
            with pytest.raises(ValueError, match=message) as info:
                request_from_doc({"model": "alexnet", "array": text})
            messages.add(str(info.value))
        assert len(messages) == 1
        assert presets._shared_group.cache_info().currsize == 0

    def test_too_many_components_are_refused_before_any_is_read(self):
        # every component names at least one board, so a text of more
        # components than the cap is refused by its length alone
        text = ",".join(["tpu-v9:1"] * (MAX_BOARDS + 1))
        with pytest.raises(ValueError) as info:
            parse_array(text)
        assert str(info.value) == (
            f"array of at least {MAX_BOARDS + 1} boards exceeds the limit "
            f"of {MAX_BOARDS}")
        assert parse_array(",".join(["tpu-v2:1"] * MAX_BOARDS)).size == \
            MAX_BOARDS

    def test_the_cache_holds_at_most_its_bound(self):
        for count in range(1, ARRAY_CACHE_SIZE + 11):
            assert parse_array(f"tpu-v3:{count}").size == count
        assert presets._shared_group.cache_info().currsize <= ARRAY_CACHE_SIZE
        # an evicted array is built again, equal to the first one
        assert parse_array("tpu-v3:1") == make_group(TPU_V3, 1)


class TestBisectionTree:
    def test_heterogeneous_first_split_separates_types(self):
        tree = bisection_tree(heterogeneous_array(4, 4), levels=1)
        assert tree.left is not None and tree.right is not None
        assert tree.left.group.is_homogeneous
        assert tree.right.group.is_homogeneous
        names = {tree.left.group.members[0].name, tree.right.group.members[0].name}
        assert names == {"tpu-v2", "tpu-v3"}

    def test_faster_type_goes_left(self):
        tree = bisection_tree(heterogeneous_array(4, 4), levels=1)
        assert tree.left.group.members[0].name == "tpu-v3"

    def test_full_depth(self):
        tree = bisection_tree(heterogeneous_array(4, 4), levels=10)
        assert tree.depth() == 3  # 8 accelerators -> 3 levels
        assert len(list(tree.leaves())) == 8
        assert all(leaf.group.size == 1 for leaf in tree.leaves())

    def test_requested_levels_cap(self):
        tree = bisection_tree(homogeneous_array(8), levels=2)
        assert tree.depth() == 2
        assert all(leaf.group.size == 2 for leaf in tree.leaves())

    def test_zero_levels(self):
        tree = bisection_tree(homogeneous_array(4), levels=0)
        assert tree.is_leaf

    def test_negative_levels_raise(self):
        with pytest.raises(ValueError):
            bisection_tree(homogeneous_array(4), levels=-1)

    def test_odd_sizes_split_unevenly_but_fully(self):
        tree = bisection_tree(homogeneous_array(3), levels=5)
        assert len(list(tree.leaves())) == 3

    def test_uneven_heterogeneous_split_at_type_boundary(self):
        tree = bisection_tree(heterogeneous_array(2, 6), levels=1)
        sizes = sorted([tree.left.group.size, tree.right.group.size])
        assert sizes == [2, 6]
        assert tree.left.group.is_homogeneous
        assert tree.right.group.is_homogeneous

    def test_internal_node_count(self):
        tree = bisection_tree(homogeneous_array(8), levels=3)
        assert len(list(tree.internal_nodes())) == 7

    def test_max_hierarchy_levels(self):
        assert max_hierarchy_levels(homogeneous_array(128)) == 7
        assert max_hierarchy_levels(heterogeneous_array()) == 8

    def test_depth_cache_is_bounded(self):
        from repro.hardware.cluster import TREE_CACHE_SIZE, _depth

        _depth.cache_clear()
        for count in range(1, TREE_CACHE_SIZE + 9):
            max_hierarchy_levels(homogeneous_array(count))
        assert _depth.cache_info().currsize == TREE_CACHE_SIZE

    def test_levels_increase_down_the_tree(self):
        tree = bisection_tree(homogeneous_array(4), levels=2)
        assert tree.level == 0
        assert tree.left.level == 1
        assert tree.left.left.level == 2

    def test_describe_tree_renders(self):
        tree = bisection_tree(heterogeneous_array(2, 2), levels=2)
        text = describe_tree(tree)
        assert "tpu-v2" in text and "tpu-v3" in text

    def test_invalid_children_pairing(self):
        from repro.hardware.cluster import GroupNode

        with pytest.raises(ValueError):
            GroupNode(group=homogeneous_array(2), left=GroupNode(homogeneous_array(1)))


class TestSplitPolicies:
    def test_interleaved_split_mixes_types(self):
        from repro.hardware.cluster import bisection_tree

        tree = bisection_tree(heterogeneous_array(4, 4), levels=1,
                              policy="interleaved")
        assert not tree.left.group.is_homogeneous
        assert not tree.right.group.is_homogeneous
        assert dict(tree.left.group.signature()) == {"tpu-v2": 2, "tpu-v3": 2}

    def test_unknown_policy_raises(self):
        from repro.hardware.cluster import bisection_tree

        with pytest.raises(ValueError, match="split policy"):
            bisection_tree(homogeneous_array(4), levels=1, policy="random")

    def test_interleaved_on_homogeneous_equivalent_sizes(self):
        from repro.hardware.cluster import bisection_tree

        tree = bisection_tree(homogeneous_array(8), levels=3,
                              policy="interleaved")
        assert tree.depth() == 3
        assert len(list(tree.leaves())) == 8


class TestPairingTreeLookups:
    """A repeat request on one shared array answers its pairing tree and
    depth from the group, without sorting its members."""

    @pytest.mark.parametrize("text", ["hetero", "homo", "tpu-v2:2,tpu-v3:2"])
    def test_second_request_sorts_nothing(self, monkeypatch, text):
        array = parse_array(text)
        AccParPlanner(array).plan(build_model("lenet"), 16)
        sorts = []

        def counting_sorted(*args, **kwargs):
            sorts.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(cluster, "sorted", counting_sorted, raising=False)
        tree = bisection_tree(array, max_hierarchy_levels(array))
        planned = AccParPlanner(parse_array(text)).plan(build_model("lenet"),
                                                        32)
        assert sorts == []
        assert planned.tree is tree

    def test_equal_arrays_built_apart_share_one_tree(self):
        first = AcceleratorGroup((TPU_V3, TPU_V2, TPU_V3))
        second = AcceleratorGroup((TPU_V3, TPU_V2, TPU_V3))
        assert first is not second
        assert bisection_tree(first, 2) is bisection_tree(second, 2)
        assert bisection_tree(first, 1) is not bisection_tree(first, 2)
        assert bisection_tree(first, 2, "interleaved") is not \
            bisection_tree(first, 2)
