"""The walk memo's table key, the memo's hit counts and what planning builds.

The hierarchy walk memoizes sub-problems on ``(group signature, depth,
ShardedStages.key())``.  The key must merge exactly the tables whose
fractions agree under Python's ``round(x, 12)``, the rounding the memo has
always used: sibling tables differ in their last ulps, and keying on the
exact bytes merges none of them.  This module imports no ``hypothesis``,
so the CI job that checks plan equivalence without it runs it too.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.hierarchy import plan_tree
from repro.core.planner import PartitionScheme, Planner
from repro.core.stages import ShardedStages, to_sharded_stages
from repro.core.types import ShardedWorkload
from repro.baselines import get_scheme
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware.cluster import bisection_tree, max_hierarchy_levels
from repro.hardware.presets import parse_array
from repro.models import build_model


#: a one-layer skeleton; the key reads only the fractions
ONE_LAYER = to_sharded_stages([LayerStage(
    LayerWorkload("fc", 8, 8, 8, (1, 1), (1, 1), (1, 1), False))]).skeleton


def key_of(*rows):
    """The key of a table with these fraction rows over one-layer skeletons."""
    skeleton = ONE_LAYER if len(rows) == 1 else to_sharded_stages([
        LayerStage(LayerWorkload(f"l{i}", 8, 8, 8, (1, 1), (1, 1), (1, 1),
                                 False)) for i in range(len(rows))]).skeleton
    return ShardedStages(skeleton, np.array(rows, dtype=float)).key()


def assert_merges_like_round(values):
    """Two values share a key exactly when ``round(x, 12)`` merges them."""
    keys = [key_of((x, 1.0, 1.0)) for x in values]
    rounded = [round(x, 12) for x in values]
    assert len(set(keys)) == len(set(rounded)) == len(set(zip(keys, rounded)))


def random_fractions(rng, count):
    """Fractions the way a walk makes them: products of shares in (0, 1)."""
    out = []
    for _ in range(count):
        x = 1.0
        for _ in range(rng.randint(0, 8)):
            x *= rng.choice((rng.random(), 0.5, 0.25, 1.0 - rng.random()))
        out.append(x if x > 0.0 else 1.0)
    return out


def with_neighbours(values, ulps=1):
    """Each value with the floats up to ``ulps`` steps either side of it."""
    out = []
    for x in values:
        below = above = x
        out.append(x)
        for _ in range(ulps):
            below = float(np.nextafter(below, 0.0))
            above = float(np.nextafter(above, 2.0))
            out += [below, above]
    return [x for x in out if 0.0 < x <= 1.0]


#: x·10¹² is exactly k + ½ for x = odd / 2¹³ (10¹² = 2¹²·5¹²)
TIES = [k / 2 ** 13 for k in range(1, 2 ** 13, 2)]


class TestKeyMatchesPythonRound:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_fractions(self, seed):
        rng = random.Random(seed)
        values = ([rng.random() or 1.0 for _ in range(1500)]
                  + random_fractions(rng, 1500)
                  + [rng.uniform(0.0, 1e-11) or 1e-12 for _ in range(200)]
                  + [1.0])
        # sibling products differ in their last ulps
        assert_merges_like_round(with_neighbours(values, ulps=2))

    def test_exact_ties_and_their_neighbours(self):
        assert 2 ** -13 * 10 ** 12 == 122070312.5
        # the rounded values on either side of each tie join the set, so a
        # tie resolved the wrong way merges with the wrong neighbour
        near = [n / 1e12 for t in TIES[:512]
                for n in (int(t * 1e12), int(t * 1e12) + 1)]
        assert_merges_like_round(with_neighbours(TIES) + near)

    def test_sibling_fractions_merge(self):
        a, b = 0.015625000000000010, 0.015625000000000003
        assert a != b
        assert round(a, 12) == round(b, 12)
        assert key_of((a, 1.0, 1.0)) == key_of((b, 1.0, 1.0))
        assert key_of((1.0, 0.5, a), (a, a, 1.0)) == \
            key_of((1.0, 0.5, b), (b, a, 1.0))

    def test_keys_differ_where_round_differs(self):
        rng = random.Random(7)
        for _ in range(2000):
            x = rng.random()
            y = x + rng.choice((1e-12, 5e-13, 2e-16, 1e-9))
            if y > 1.0:
                continue
            same_round = round(x, 12) == round(y, 12)
            assert (key_of((x, 1.0, 1.0)) == key_of((y, 1.0, 1.0))) \
                == same_round, (x, y)
        # one differing element anywhere makes the whole key differ
        assert key_of((0.5, 0.5, 0.5), (0.25, 0.25, 0.25)) != \
            key_of((0.5, 0.5, 0.5), (0.25, 0.25, 0.25 + 1e-12))


def walk_counts(model, array, scheme=None):
    array = parse_array(array)
    tree = bisection_tree(array, max_hierarchy_levels(array), "type-separated")
    tally = Counter()
    plan_tree(tree, to_sharded_stages(build_model(model).stages(256)),
              scheme or PartitionScheme(), 2, tally)
    return {name: tally[name] for name in ("hierarchy_memo_hits",
                                           "hierarchy_memo_misses",
                                           "ratio_solves", "step_calls")}


class TestMemoCounts:
    """Walk memo hits and misses, pinned from the per-object key."""

    @pytest.mark.parametrize("model, array, expected", [
        ("alexnet", "homo", (6, 7, 504, 448)),
        ("resnet18", "tpu-v2:4,tpu-v3:4", (2, 5, 945, 840)),
        ("vgg19", "hetero", (12, 15, 2565, 2280)),
        ("resnet50", "hetero", (12, 15, 7290, 6480)),
    ])
    def test_pinned(self, model, array, expected):
        counts = walk_counts(model, array)
        assert (counts["hierarchy_memo_hits"], counts["hierarchy_memo_misses"],
                counts["ratio_solves"], counts["step_calls"]) == expected


class TestPlanningBuildsNoWorkloads:
    """The search reads the table's columns: no level of a plan builds a
    per-layer workload object."""

    @pytest.mark.parametrize("scheme", ["accpar", "dp", "owt", "hypar",
                                        "greedy"])
    def test_no_sharded_workload_is_built(self, monkeypatch, scheme):
        built = []
        init = ShardedWorkload.__post_init__

        def counted(self):
            built.append(self.name)
            init(self)

        monkeypatch.setattr(ShardedWorkload, "__post_init__", counted)
        planner = Planner(parse_array("tpu-v2:4,tpu-v3:4"), get_scheme(scheme))
        planned = planner.plan(build_model("resnet18"), 64)
        assert planned.plan.depth() == 3
        assert built == []
