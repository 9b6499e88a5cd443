"""Oracle tests for the canonical plan encoder, ``plan_to_json``.

The plan document stores each distinct subtree object once.  On the zoo,
its text must equal the plain encoding,
``json.dumps(plan_to_dict(p), sort_keys=True, separators=(",", ":"))``.
Random trees that share subtrees, and reuse a level plan over other
children, must read back through the v3 node reader as the same tree,
shared exactly where the original was.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.serialize import (
    _plan_from_nodes,
    _root_depth,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    save_plan,
)
from repro.core.types import PartitionType
from repro.plan import plan_diff
from repro.plan.ir import (
    HierarchicalPlan,
    JoinAlignment,
    LayerAssignment,
    LevelPlan,
    PathExit,
)
from tests.plan_zoo import ZOO, ZOO_IDS, canonical, count_nodes, plan


class TestZooOracle:
    @pytest.mark.parametrize("model,array,scheme,backend", ZOO, ids=ZOO_IDS)
    def test_byte_equal_to_plain_encoding(self, model, array, scheme,
                                          backend):
        planned = plan(model, array, scheme, backend)
        assert plan_to_json(planned) == canonical(plan_to_dict(planned))

    @pytest.mark.parametrize("model,array,scheme,backend", ZOO, ids=ZOO_IDS)
    def test_extra_keys_sort_into_place(self, model, array, scheme, backend):
        planned = plan(model, array, scheme, backend)
        extra = {"fingerprint": "ab" * 32, "zz": [1, 2], "aa": None}
        assert plan_to_json(planned, **extra) == \
            canonical({**plan_to_dict(planned), **extra})

    def test_extra_plan_key_wins_like_a_dict_merge(self):
        planned = plan("lenet")
        assert plan_to_json(planned, plan=None) == \
            canonical({**plan_to_dict(planned), "plan": None})

    def test_zoo_covers_multipath_entries(self):
        document = json.loads(plan_to_json(plan("resnet18",
                                                "tpu-v2:4,tpu-v3:4")))
        root = document["nodes"][document["plan"]]
        kinds = {key for entry in root["entries"]
                 for key in ("layer", "join", "exit") if key in entry}
        assert kinds == {"layer", "join", "exit"}

    def test_zoo_covers_shared_subtrees(self):
        total, distinct = count_nodes(plan("alexnet", "hetero").plan)
        assert (total, distinct) == (255, 15)

    def test_each_distinct_subtree_encoded_once(self, monkeypatch):
        import repro.core.serialize as serialize

        planned = plan("alexnet", "hetero")
        encoded = []
        entry_to_dict = serialize._entry_to_dict
        monkeypatch.setattr(serialize, "_entry_to_dict",
                            lambda e: encoded.append(e) or entry_to_dict(e))
        plan_to_json(planned)
        distinct = {id(level): len(level.entries)
                    for level in planned.level_plans()}
        assert len(encoded) == sum(distinct.values())

    def test_plain_document_round_trip(self):
        planned = plan("alexnet", "hetero")
        reloaded = plan_from_dict(json.loads(plan_to_json(planned)))
        assert plan_diff(planned.plan, reloaded.plan) == []

    def test_plan_file_is_the_canonical_text(self, tmp_path):
        planned = plan("resnet18")
        path = tmp_path / "plan.json"
        save_plan(planned, path)
        assert path.read_text() == plan_to_json(planned)
        assert plan_diff(planned.plan, load_plan(path).plan) == []


# --- random plan trees -------------------------------------------------

TYPES = list(PartitionType)

# names exercise the encoder's string escaping: quotes, backslashes,
# control characters and non-ASCII text
names = st.text(min_size=1, max_size=8)
alphas = st.floats(min_value=1e-9, max_value=1 - 1e-9)
costs = st.one_of(
    st.floats(allow_nan=False),
    st.integers(min_value=-2**70, max_value=2**70),
)


@st.composite
def level_plans(draw):
    entries = []
    for name in draw(st.lists(names, max_size=4, unique=True)):
        entries.append(LayerAssignment(name, draw(st.sampled_from(TYPES)),
                                       draw(alphas)))
    for stage in draw(st.lists(names, max_size=2, unique=True)):
        for index in range(draw(st.integers(0, 2))):
            entries.append(PathExit(stage, index, draw(st.sampled_from(TYPES)),
                                    draw(alphas)))
        entries.append(JoinAlignment(stage, draw(st.sampled_from(TYPES)),
                                     draw(alphas)))
    return LevelPlan(entries, cost=draw(costs), scheme=draw(names))


@st.composite
def plan_trees(draw):
    """A random plan tree whose children are fresh or reused subtrees.

    Every node draws its level plan from a shared set of one or two, so a
    level plan is often reused over other children, and the writer must
    share node records by node, not by level plan.
    """
    levels = draw(st.lists(level_plans(), min_size=1, max_size=2))
    pool = [HierarchicalPlan(level_plan=None)]

    def child():  # mostly an earlier node (or the leaf), sometimes None
        if draw(st.integers(0, 4)) == 0:
            return None
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(2, 6))):
        left, right = child(), child()
        if draw(st.integers(0, 3)) == 0:
            right = left  # a subtree shared by both halves
        pool.append(HierarchicalPlan(level_plan=draw(st.sampled_from(levels)),
                                     left=left, right=right))
    return pool[-1]


@pytest.fixture(scope="module")
def template():
    return plan("lenet")


def assert_round_trips(template, tree):
    """``tree``'s document text reads back as the same tree, with a node
    object shared exactly where ``tree`` shares one; a ``None`` child and
    a leaf node both read back as the leaf."""
    text = plan_to_json(dataclasses.replace(template, plan=tree))
    document = json.loads(text)
    assert _root_depth(document["nodes"], document["plan"]) == tree.depth()
    rebuilt = _plan_from_nodes(document["nodes"], document["plan"],
                               template.scheme)
    forward, backward = {}, {}
    stack = [(tree, rebuilt)]
    while stack:
        original, loaded = stack.pop()
        if original is None or original.level_plan is None:
            assert loaded.level_plan is None
            continue
        assert loaded.level_plan == original.level_plan
        assert forward.setdefault(id(original), id(loaded)) == id(loaded)
        assert backward.setdefault(id(loaded), id(original)) == id(original)
        stack.extend(((original.left, loaded.left),
                      (original.right, loaded.right)))
    assert count_nodes(rebuilt) == count_nodes(tree)
    assert plan_to_json(dataclasses.replace(template, plan=rebuilt)) == text


def test_nodes_sharing_a_level_plan_keep_their_own_children(template):
    level = LevelPlan([LayerAssignment("fc", TYPES[0], 0.5)], cost=1.0,
                      scheme="accpar")
    inner = HierarchicalPlan(level_plan=level)
    outer = HierarchicalPlan(level_plan=level, left=inner)
    root = HierarchicalPlan(level_plan=level, left=inner, right=outer)
    assert_round_trips(template, root)


@settings(deadline=None, max_examples=150)
@given(tree=plan_trees())
def test_random_trees_byte_equal(template, tree):
    assert_round_trips(template, tree)
