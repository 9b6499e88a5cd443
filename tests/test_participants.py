"""Each participant owns its spans and its planner counts.

A fleet's shards, threads beside the frontend or processes of their own,
each report only the spans and the search work of the requests they
served; the frontend reports only its own ``fleet.item`` spans.
"""

import json
from collections import Counter

import pytest

from tests.test_serve_ingress import run_cli_serve

ARRAY = "tpu-v2:2,tpu-v3:2"
MODELS = ("lenet", "alexnet", "vgg11")
STATS = json.dumps({"op": "stats"})
TRACE = json.dumps({"op": "trace"})

#: the two shard modes; process shards are spawned, hence slow
MODES = ["thread", pytest.param("process", marks=pytest.mark.slow)]


def plan_line(model):
    return json.dumps({"model": model, "array": ARRAY, "batch": 64})


def serve(argv, lines, monkeypatch, capsys):
    """``repro serve --cache-dir '' ARGV`` fed ``lines``; its replies."""
    code, replies, _ = run_cli_serve(["--cache-dir", "", *argv], lines,
                                     monkeypatch, capsys)
    assert code == 0
    return replies


def work(counts):
    """Planner counts without the timings, which differ run to run."""
    return {name: value for name, value in counts.items()
            if not name.endswith("_ns")}


@pytest.mark.parametrize("mode", MODES)
def test_every_shard_span_is_labelled_with_its_shard(mode, monkeypatch,
                                                     capsys):
    plan, trace = serve(["--shards", "2", "--shard-mode", mode, "--trace"],
                        [plan_line("lenet"), TRACE], monkeypatch, capsys)
    assert plan["ok"] and trace["ok"]
    labels = Counter((span["name"] == "fleet.item", span["process"])
                     for span in trace["spans"])
    assert set(labels) == {(True, "frontend"),
                           (False, f"shard-{plan['shard']}")}
    assert labels[True, "frontend"] == 1
    names = {span["name"] for span in trace["spans"]}
    assert {"service.request", "service.plan_exact", "hierarchy.plan",
            "dp.search"} <= names


def test_a_single_process_counts_every_plan(monkeypatch, capsys):
    *plans, stats = serve([], [plan_line(m) for m in MODELS] + [STATS],
                          monkeypatch, capsys)
    assert all(plan["ok"] for plan in plans)
    planner = stats["stats"]["planner"]
    assert (planner["level_plans_dp"], planner["step_calls"]) == (9, 576)


@pytest.mark.parametrize("mode", MODES)
def test_each_shard_counts_only_its_own_plans(mode, monkeypatch, capsys):
    *plans, stats = serve(["--shards", "2", "--shard-mode", mode],
                          [plan_line(m) for m in MODELS] + [STATS],
                          monkeypatch, capsys)
    owned = {name: [] for name in stats["shards"]}
    for model, plan in zip(MODELS, plans):
        assert plan["ok"] and plan["source"] == "planned"
        owned[plan["shard"]].append(model)

    alone = {}
    for model in MODELS:
        *_, single = serve([], [plan_line(model), STATS], monkeypatch, capsys)
        alone[model] = Counter(work(single["stats"]["planner"]))

    total = Counter()
    for name, snap in stats["shards"].items():
        expected = sum((alone[model] for model in owned[name]), Counter())
        assert work(snap["planner"]) == dict(expected), name
        total.update(snap["planner"])
    assert (total["level_plans_dp"], total["step_calls"]) == (9, 576)
