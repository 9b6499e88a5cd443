"""Search-cost bench: the O(N) DP vs the O(3^N) brute force (Section 5.1).

Certifies optimality on chains where brute force is feasible and measures
the wall-time gap, plus the DP's linear scaling on long chains.
"""

import time

import pytest

from repro.core.brute_force import brute_force_chain
from repro.core.cost_model import PairCostModel
from repro.core.dp_vectorized import search_stages
from repro.core.stages import to_sharded_stages
from repro.experiments.reporting import format_table
from repro.graph.layers import LayerWorkload
from repro.graph.network import LayerStage
from repro.hardware import TPU_V2, TPU_V3, make_group

from conftest import save_artifact


def chain(n_layers, batch=64, width=512):
    stages = []
    for idx in range(n_layers):
        w = LayerWorkload(f"fc{idx}", batch, width, width, (1, 1), (1, 1),
                          (1, 1), False)
        stages.append(LayerStage(w))
    return to_sharded_stages(stages)


@pytest.fixture
def model():
    return PairCostModel(make_group(TPU_V3, 1), make_group(TPU_V2, 1))


@pytest.mark.benchmark(group="search")
def test_dp_optimality_and_speed_vs_brute_force(benchmark, model, results_dir):
    stages = chain(9)

    dp = benchmark(lambda: search_stages(stages, model))

    t0 = time.perf_counter()
    bf = brute_force_chain(stages, model)
    bf_seconds = time.perf_counter() - t0

    assert dp.cost == pytest.approx(bf.cost, rel=1e-9)

    t0 = time.perf_counter()
    search_stages(stages, model)
    dp_seconds = time.perf_counter() - t0

    text = format_table(
        ["layers", "DP time", "brute-force time", "speedup", "same optimum"],
        [["9", f"{dp_seconds * 1e3:.2f} ms", f"{bf_seconds * 1e3:.2f} ms",
          f"{bf_seconds / max(dp_seconds, 1e-9):.1f}x", "yes"]],
        title="Search: Eq. 9 dynamic program vs exhaustive enumeration",
    )
    save_artifact(results_dir, "search_dp_vs_bruteforce.txt", text)


@pytest.mark.benchmark(group="search")
def test_dp_scales_linearly(benchmark, model, results_dir):
    """Doubling the chain roughly doubles DP time (O(N |T|^2))."""

    def run_long():
        return search_stages(chain(128), model)

    result = benchmark(run_long)
    assert len(result.assignments) == 128

    timings = []
    for n in (32, 64, 128):
        t0 = time.perf_counter()
        search_stages(chain(n), model)
        timings.append((n, time.perf_counter() - t0))

    rows = [[str(n), f"{t * 1e3:.2f} ms"] for n, t in timings]
    save_artifact(
        results_dir,
        "search_scaling.txt",
        format_table(["layers", "DP time"], rows, title="DP search scaling"),
    )
    # superlinear blowup would indicate the DP is not O(N)
    t32 = timings[0][1]
    t128 = timings[2][1]
    assert t128 < t32 * 16


@pytest.mark.benchmark(group="search")
def test_greedy_vs_dp_quality(benchmark, model, results_dir):
    """Quantify the DP's advantage over a myopic greedy with identical step
    costs: same optimum on easy chains, measurable gap on adversarial ones."""
    from repro.core.greedy import greedy_chain

    adversarial = []
    for dims, batch in [((4096, 4000, 8), 4), ((2048, 2000, 16), 4)]:
        stages = []
        for idx in range(len(dims) - 1):
            w = LayerWorkload(f"fc{idx}", batch, dims[idx], dims[idx + 1],
                              (1, 1), (1, 1), (1, 1), False)
            stages.append(LayerStage(w))
        adversarial.append((dims, to_sharded_stages(stages)))

    def run_all():
        out = {}
        for dims, stages in adversarial:
            dp = search_stages(stages, model)
            greedy = greedy_chain(stages, model)
            out[dims] = greedy.cost / dp.cost
        return out

    gaps = benchmark(run_all)

    rows = [[str(dims), f"{gap:.3f}x"] for dims, gap in gaps.items()]
    save_artifact(
        results_dir,
        "search_greedy_gap.txt",
        format_table(["chain widths", "greedy cost / DP cost"], rows,
                     title="Myopic greedy vs Eq. 9 DP (adversarial chains)"),
    )
    assert max(gaps.values()) > 1.2
