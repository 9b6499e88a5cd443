"""Close the loop: run -> measure -> calibrate -> predict.

Datasheet rates (Table 7) overstate achievable throughput, and a whole
array behaves like one black box with *effective* aggregate rates.  This
example collects measured probes from a few jobs on the "real" array, fits
array-level effective compute and network rates by least squares, and then
predicts the iteration time of a workload it has never seen — the
capacity-planning workflow a production deployment of AccPar would use.

Run:
    python examples/calibration_loop.py
"""

from repro import AcceleratorSpec, Planner, build_model, evaluate, get_scheme, make_group
from repro.calib import calibrate, probe_from_run

# what the hardware actually delivers per board (the planner never sees this
# directly — only measured end-to-end times)
REALITY = AcceleratorSpec(
    name="board",
    flops=140e12,
    memory_bytes=64 * 2**30,
    memory_bandwidth=2400e9,
    network_bandwidth=1.1e9,
)
ARRAY = make_group(REALITY, 8)


def run_job(model: str, scheme: str, batch: int):
    """'Run' a job on the real array; return (probe, measured seconds)."""
    planned = Planner(ARRAY, get_scheme(scheme)).plan(build_model(model), batch)
    report = evaluate(planned)
    return probe_from_run(planned, report), report.total_time


def main() -> None:
    # 1. measured probes from diverse past jobs
    history = [
        run_job("lenet", "dp", 256),
        run_job("alexnet", "dp", 256),
        run_job("alexnet", "accpar", 256),
        run_job("vgg11", "accpar", 256),
        run_job("resnet18", "hypar", 256),
    ]
    probes = [p for p, _ in history]

    # 2. fit array-level effective rates:  T = flops/c_eff + bytes/b_eff
    result = calibrate(probes)
    print(f"calibrated from {result.n_probes} measured jobs:")
    print(f"  effective array compute : {result.effective_flops / 1e12:8.1f} TFLOPS")
    print(f"  effective array network : "
          f"{result.effective_network_bandwidth / 1e9:8.2f} GB/s")
    print(f"  fit residual            : {result.residual_rms * 1e3:.4f} ms RMS")

    # 3. predict a workload the fit has never seen
    unseen_probe, actual = run_job("vgg19", "accpar", 256)
    predicted = (
        unseen_probe.flops / result.effective_flops
        + unseen_probe.network_bytes / result.effective_network_bandwidth
    )
    error = abs(predicted - actual) / actual * 100
    print("\nheld-out prediction (vgg19 / accpar):")
    print(f"  predicted: {predicted * 1e3:8.2f} ms/iter")
    print(f"  measured : {actual * 1e3:8.2f} ms/iter  ({error:.1f}% error)")

    # naive datasheet prediction for contrast: peak rates, zero comm model
    datasheet = unseen_probe.flops / ARRAY.flops
    print(f"  datasheet (peak FLOPS, free network): {datasheet * 1e3:8.2f} ms/iter "
          f"({abs(datasheet - actual) / actual * 100:.0f}% error)")


if __name__ == "__main__":
    main()
