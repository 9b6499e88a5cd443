"""v1 serialize migration against committed fixture files.

The fixtures in ``tests/fixtures/plans_v1/`` were written by the
pre-refactor serializer (format_version 1: flat ``assignments`` dicts with
``@join:``/``@exit:`` magic keys).  They are frozen: the reader must keep
loading them bit-identically through the migration shim forever, and the
plans they encode pin the AccPar search's decisions across refactors.
"""

import json
from pathlib import Path

import pytest

from repro.core.planner import Planner
from repro.core.serialize import (
    PlanFormatError,
    load_plan,
    plan_from_dict,
    plan_to_dict,
)
from repro.baselines import get_scheme
from repro.models import build_model
from repro.plan import plan_diff, validate_plan
from repro.plan.ir import JoinAlignment, LayerAssignment, PathExit

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "plans_v1"
FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))
FIXTURE_IDS = [p.stem for p in FIXTURE_FILES]


def build_any(name):
    return build_model("trident" if name.startswith("trident") else name)


def count_magic_keys(document):
    joins = exits = 0

    def walk(node):
        nonlocal joins, exits
        if node is None:
            return
        for key in node.get("assignments", {}):
            if key.startswith("@" + "join:"):
                joins += 1
            elif key.startswith("@" + "exit:"):
                exits += 1
        walk(node.get("left"))
        walk(node.get("right"))

    walk(document["plan"])
    return joins, exits


def entries_per_node(plan):
    out = []

    def walk(node, path):
        if node is None:
            return
        out.append((path, None if node.level_plan is None
                    else node.level_plan.entries))
        walk(node.left, path + "L")
        walk(node.right, path + "R")

    walk(plan, "root")
    return out


class TestFixturesAreGenuineV1:
    def test_fixture_set_is_committed(self):
        assert len(FIXTURE_FILES) == 5

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=FIXTURE_IDS)
    def test_format_version_is_one(self, path):
        assert json.loads(path.read_text())["format_version"] == 1

    def test_multibranch_fixtures_contain_magic_keys(self):
        """The fixtures must actually exercise the @join:/@exit: migration."""
        doc = json.loads((FIXTURES / "resnet18_homo_accpar.json").read_text())
        joins, exits = count_magic_keys(doc)
        assert joins > 0 and exits > 0


class TestV1Migration:
    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=FIXTURE_IDS)
    def test_v1_fixture_loads_and_validates(self, path):
        planned = load_plan(path, network_builder=build_any)
        network = build_any(planned.network_name)
        assert validate_plan(planned.plan, network, planned.batch) == []

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=FIXTURE_IDS)
    def test_every_magic_key_becomes_one_typed_entry(self, path):
        document = json.loads(path.read_text())
        joins, exits = count_magic_keys(document)
        planned = load_plan(path, network_builder=build_any)
        typed_joins = typed_exits = layers = 0
        for level in planned.level_plans():
            typed_joins += len(level.joins())
            typed_exits += len(level.path_exits())
            layers += len(level.layers())
        assert typed_joins == joins
        assert typed_exits == exits
        # nothing is silently dropped: every v1 key maps to an entry
        total_keys = sum(
            len(node)
            for node in _assignment_dicts(document["plan"])
        )
        assert layers + typed_joins + typed_exits == total_keys

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=FIXTURE_IDS)
    def test_v1_loads_identical_to_its_v3_reencoding(self, path):
        """The property the format guarantees: migrate(v1) == read(write(v3))."""
        from_v1 = load_plan(path, network_builder=build_any)
        v3_document = plan_to_dict(from_v1)
        assert v3_document["format_version"] == 3
        from_v3 = plan_from_dict(v3_document, network_builder=build_any)
        assert entries_per_node(from_v1.plan) == entries_per_node(from_v3.plan)
        assert plan_diff(from_v1.plan, from_v3.plan) == []

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=FIXTURE_IDS)
    def test_v3_reencoding_has_no_magic_keys(self, path):
        planned = load_plan(path, network_builder=build_any)
        text = json.dumps(plan_to_dict(planned))
        assert ("@" + "join:") not in text
        assert ("@" + "exit:") not in text

    def test_malformed_exit_key_is_a_format_error(self):
        document = json.loads(
            (FIXTURES / "alexnet_hetero_accpar.json").read_text()
        )
        document["plan"]["assignments"]["@" + "exit:block:notanumber"] = {
            "type": "I", "ratio": 0.5,
        }
        with pytest.raises(PlanFormatError, match="path-exit"):
            plan_from_dict(document)


class TestAccParRegression:
    """Pre-refactor AccPar decisions, pinned by the committed fixtures:
    today's planner must reproduce them with identical types and ratios
    equal within 1e-9."""

    @pytest.mark.parametrize(
        "stem", ["alexnet_hetero_accpar", "vgg19_hetero_accpar",
                 "resnet18_homo_accpar", "trident_hetero_accpar"]
    )
    def test_replanning_matches_fixture(self, stem):
        path = FIXTURES / f"{stem}.json"
        fixture = load_plan(path, network_builder=build_any)
        levels = json.loads(path.read_text())["levels"]
        replanned = Planner(
            fixture.tree.group, get_scheme("accpar"), levels=levels
        ).plan(build_any(fixture.network_name), fixture.batch)
        diffs = plan_diff(fixture.plan, replanned.plan)
        assert diffs == [], "\n".join(str(d) for d in diffs)

    def test_greedy_fixture_matches_replan(self):
        path = FIXTURES / "lenet_hetero_greedy.json"
        fixture = load_plan(path)
        levels = json.loads(path.read_text())["levels"]
        replanned = Planner(
            fixture.tree.group, get_scheme("greedy"), levels=levels
        ).plan(build_model(fixture.network_name), fixture.batch)
        assert plan_diff(fixture.plan, replanned.plan) == []


def _assignment_dicts(node):
    if node is None:
        return
    yield node.get("assignments", {})
    yield from _assignment_dicts(node.get("left"))
    yield from _assignment_dicts(node.get("right"))
