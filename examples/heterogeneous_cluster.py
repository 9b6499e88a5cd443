"""Planning across a custom heterogeneous cluster.

Scenario from the paper's motivation (Section 2.3): a datacenter keeps its
older accelerator generation in service next to a new one.  Here we mix
three generations with different compute densities and link bandwidths and
watch how AccPar's Eq. 10 ratios shift work toward the faster groups, while
the equal-ratio baselines idle them.

Run:
    python examples/heterogeneous_cluster.py
"""

from repro import (
    SCHEME_ORDER,
    SCHEMES,
    AcceleratorSpec,
    Planner,
    build_model,
    evaluate,
    make_group,
)
from repro.hardware import merge_groups

# a fictional three-generation fleet (rates in FLOP/s and bytes/s)
GEN_A = AcceleratorSpec("gen-a", flops=100e12, memory_bytes=32 * 2**30,
                        memory_bandwidth=1200e9, network_bandwidth=0.5e9)
GEN_B = AcceleratorSpec("gen-b", flops=200e12, memory_bytes=64 * 2**30,
                        memory_bandwidth=2400e9, network_bandwidth=1e9)
GEN_C = AcceleratorSpec("gen-c", flops=400e12, memory_bytes=128 * 2**30,
                        memory_bandwidth=4800e9, network_bandwidth=2e9)


def main() -> None:
    cluster = merge_groups(
        make_group(GEN_A, 8), make_group(GEN_B, 8), make_group(GEN_C, 16)
    )
    network = build_model("resnet50")
    batch = 256

    print(f"cluster: {cluster}")
    print(f"model:   {network.name}, batch {batch}\n")

    times = {}
    for scheme_name in SCHEME_ORDER:
        planned = Planner(cluster, SCHEMES[scheme_name]).plan(network, batch)
        report = evaluate(planned)
        times[scheme_name] = report.total_time
        print(f"{scheme_name:>7}: {report.total_time * 1e3:8.2f} ms/iter   "
              f"speedup vs DP: {times['dp'] / report.total_time:5.2f}x")

    # inspect the ratios AccPar chose at the top split (gen-c vs the rest)
    planned = Planner(cluster, SCHEMES["accpar"]).plan(network, batch)
    root = planned.root_level_plan
    ratios = sorted(
        {round(lp.ratio, 3) for lp in root.layer_assignments().values()}
    )
    left = planned.tree.left.group
    right = planned.tree.right.group
    print(f"\nroot split: {left}  vs  {right}")
    print(f"alpha values chosen across layers: {ratios}")
    print("(compute-proportional share of the left group would be "
          f"{left.flops / (left.flops + right.flops):.3f})")


if __name__ == "__main__":
    main()
