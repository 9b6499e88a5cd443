"""Oracle tests for the canonical plan encoder, ``plan_to_json``.

``plan_to_json`` encodes each distinct subtree object once; the oracle is
the plain encoding of the whole expanded document,
``json.dumps(plan_to_dict(p), sort_keys=True, separators=(",", ":"))``,
which the two must match byte for byte.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import get_scheme
from repro.cli import parse_array
from repro.core.planner import Planner
from repro.core.serialize import (
    load_plan,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    save_plan,
)
from repro.core.types import PartitionType
from repro.models import build_model
from repro.plan import plan_diff
from repro.plan.ir import (
    HierarchicalPlan,
    JoinAlignment,
    LayerAssignment,
    LevelPlan,
    PathExit,
)


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def plan(model, array="tpu-v2:2,tpu-v3:2", scheme="accpar", backend=None,
         batch=64):
    return Planner(parse_array(array), get_scheme(scheme, backend=backend)) \
        .plan(build_model(model), batch)


def count_nodes(root):
    """(tree nodes, distinct node objects) of a plan tree's internal nodes."""
    seen, total = set(), 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None or node.level_plan is None:
            continue
        total += 1
        seen.add(id(node))
        stack.extend((node.left, node.right))
    return total, len(seen)


ZOO = [
    # chain models
    ("lenet", "tpu-v2:2,tpu-v3:2", "accpar", None),
    ("alexnet", "hetero", "accpar", None),
    ("vgg19", "homo", "accpar", None),
    # multipath models: JoinAlignment / PathExit entries
    ("resnet18", "tpu-v2:4,tpu-v3:4", "accpar", None),
    ("trident", "tpu-v2:2,tpu-v3:2", "accpar", None),
    # unbalanced pairing trees
    ("alexnet", "tpu-v3:3", "accpar", None),
    ("resnet18", "tpu-v2:3,tpu-v3:2", "accpar", None),
    # the other schemes and the greedy backend
    ("alexnet", "tpu-v2:4,tpu-v3:4", "accpar", "greedy"),
    ("resnet18", "tpu-v2:2,tpu-v3:2", "accpar", "greedy"),
    ("vgg11", "tpu-v2:4,tpu-v3:4", "owt", None),
    ("vgg11", "tpu-v2:4,tpu-v3:4", "hypar", None),
    ("lenet", "tpu-v2:2,tpu-v3:2", "dp", None),
]
ZOO_IDS = ["-".join(filter(None, case)) for case in ZOO]


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
        kinds = {key for entry in document["plan"]["entries"]
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

    A node may also reuse another node's level plan over other children,
    so the encoder's memo must key on the node, not on its level plan.
    """
    pool = [HierarchicalPlan(level_plan=None)]
    for _ in range(draw(st.integers(0, 5))):
        children = st.one_of(st.sampled_from(pool), st.just(None))
        left, right = draw(children), draw(children)
        if draw(st.booleans()):
            right = left  # a subtree shared by both halves
        levels = [node.level_plan for node in pool if node.level_plan]
        level = draw(st.one_of(level_plans(), st.sampled_from(levels))
                     if levels else level_plans())
        pool.append(HierarchicalPlan(level_plan=level, left=left,
                                     right=right))
    return pool[-1]


@pytest.fixture(scope="module")
def template():
    return plan("lenet")


def test_nodes_sharing_a_level_plan_keep_their_own_children(template):
    level = LevelPlan([LayerAssignment("fc", TYPES[0], 0.5)], cost=1.0,
                      scheme="accpar")
    inner = HierarchicalPlan(level_plan=level)
    outer = HierarchicalPlan(level_plan=level, left=inner)
    root = HierarchicalPlan(level_plan=level, left=inner, right=outer)
    planned = dataclasses.replace(template, plan=root)
    assert plan_to_json(planned) == canonical(plan_to_dict(planned))


@settings(deadline=None, max_examples=150)
@given(tree=plan_trees())
def test_random_trees_byte_equal(template, tree):
    planned = dataclasses.replace(template, plan=tree)
    assert plan_to_json(planned) == canonical(plan_to_dict(planned))
