"""Command-line interface: plan, simulate, sweep and reproduce figures.

Examples::

    python -m repro models
    python -m repro describe --model alexnet --batch 64
    python -m repro plan --model vgg19 --array hetero --out plan.json
    python -m repro plan --model vgg19 --backend greedy --out fast.json
    python -m repro plan-diff plan.json fast.json
    python -m repro simulate --plan plan.json
    python -m repro simulate --model resnet50 --scheme hypar --array tpu-v3:16
    python -m repro sweep --models alexnet,vgg11 --array hetero
    python -m repro figure --which fig7
    python -m repro warm --models alexnet,vgg11 --array hetero
    echo '{"model": "alexnet", "array": "hetero"}' | python -m repro serve
    python -m repro serve --shards 2 --port 7070
    python -m repro fleet-stats --port 7070 --format prometheus
    python -m repro warm --models alexnet,vgg11 --port 7070
    python -m repro service-stats --format prometheus
    python -m repro profile alexnet --out trace.json
    python -m repro simulate --model alexnet --trace sim_trace.json
    python -m repro simulate --model alexnet --telemetry-dir tele/
    python -m repro telemetry export --calibration --dir tele/ --out cal.json
    python -m repro calibrate cal.json --out profile.json
    python -m repro plan --model vgg19 --profile profile.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
from typing import List, Optional, Sequence

from .baselines import SCHEME_ORDER, get_scheme
from .core.planner import Planner
from .core.serialize import PlanFormatError, load_plan, save_plan
from .core.verify import PlanVerificationError, verify_planned
from .experiments.analysis import (
    render_breakdown,
    render_level_summary,
    root_level_breakdown,
)
from .experiments.figures import (
    figure5_heterogeneous,
    figure6_homogeneous,
    figure7_alexnet_types,
    figure8_hierarchy_sweep,
)
from .experiments.harness import sweep
from .experiments.reporting import format_speedup_table
from .hardware import presets
from .hardware.accelerator import AcceleratorGroup
from .hardware.cluster import describe_tree
from .hardware.profile import ProfileError
from .models.registry import available_models, build_model
from .plan import available_backends, canonical_backend_name, plan_diff
from .sim.executor import evaluate

#: default disk tier for the plan service commands (serve / warm / service-stats)
DEFAULT_CACHE_DIR = ".plan-cache"

#: the default of every ``--telemetry-dir`` and telemetry ``--dir`` flag
TELEMETRY_ENV = "REPRO_TELEMETRY_DIR"

#: serve flags that only mean something to a fleet (``--shards N``)
FLEET_ONLY_FLAGS = ("--port", "--host", "--shard-mode", "--restart",
                    "--chaos", "--heartbeat-interval", "--failure-threshold",
                    "--retry")


def parse_array(text: str) -> AcceleratorGroup:
    """``--array``: :func:`repro.hardware.presets.parse_array` for argparse."""
    try:
        return presets.parse_array(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_backend(text: str) -> str:
    """Parse a ``--backend`` value: a registered name or alias, canonicalized."""
    try:
        return canonical_backend_name(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AccPar (HPCA 2020) planner, simulator and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    telemetry_dir = os.environ.get(TELEMETRY_ENV)

    def add_backend_option(p) -> None:
        p.add_argument(
            "--backend", type=parse_backend, default=None, metavar="NAME",
            help=f"search backend, one of {{{','.join(available_backends())}}} "
                 "or an alias (default: the scheme's own, the exact DP)",
        )

    def add_profile_option(p) -> None:
        p.add_argument(
            "--profile", default=None, metavar="PATH",
            help="hardware profile JSON ('repro calibrate' output); costs "
                 "use its calibrated effective rates instead of peak "
                 "datasheet numbers ('analytic' = the peak default)",
        )

    sub.add_parser("models", help="list the model zoo")

    p = sub.add_parser("describe", help="print a model's layers and shapes")
    p.add_argument("--model", required=True)
    p.add_argument("--batch", type=int, default=32)

    p = sub.add_parser("plan", help="plan a model on an array")
    p.add_argument("--model", required=True)
    p.add_argument("--array", type=parse_array, default="hetero")
    p.add_argument("--scheme", choices=SCHEME_ORDER, default="accpar")
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--out", default=None, help="write the plan as JSON")
    p.add_argument("--breakdown", action="store_true",
                   help="print the root-level cost breakdown")
    add_backend_option(p)
    add_profile_option(p)

    p = sub.add_parser(
        "plan-diff",
        help="compare two plan JSON files decision-by-decision",
    )
    p.add_argument("plan_a", help="first plan JSON file")
    p.add_argument("plan_b", help="second plan JSON file")
    p.add_argument("--rel-tol", type=float, default=None,
                   help="relative tolerance for ratio comparison "
                        "(default: 1e-9)")

    p = sub.add_parser("simulate", help="simulate a plan or plan+simulate")
    p.add_argument("--plan", default=None, help="JSON plan from 'plan --out'")
    p.add_argument("--model", default=None)
    p.add_argument("--array", type=parse_array, default="hetero")
    p.add_argument("--scheme", choices=SCHEME_ORDER, default="accpar")
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--trace", default=None,
                   help="write the simulated critical-path Chrome trace here")
    p.add_argument("--telemetry-dir", default=telemetry_dir,
                   help="record per-op timing events to this durable "
                        "telemetry store (see 'repro telemetry export "
                        "--calibration'; default: $REPRO_TELEMETRY_DIR)")
    add_backend_option(p)
    add_profile_option(p)

    p = sub.add_parser(
        "profile",
        help="trace one planning run: Chrome trace JSON + self-time table",
    )
    p.add_argument("model", help="model name (see 'repro models')")
    p.add_argument("--array", type=parse_array, default="hetero")
    p.add_argument("--scheme", choices=SCHEME_ORDER, default="accpar")
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="write the planner-execution Chrome trace here")
    p.add_argument("--sim-trace", default=None,
                   help="also write the simulated-iteration Chrome trace here")
    add_backend_option(p)

    p = sub.add_parser("sweep", help="speedup table over models and schemes")
    p.add_argument("--models", required=True,
                   help="comma-separated model names")
    p.add_argument("--array", type=parse_array, default="hetero")
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--levels", type=int, default=None)

    p = sub.add_parser("figure", help="reproduce one of the paper's figures")
    p.add_argument("--which", required=True,
                   choices=["fig5", "fig6", "fig7", "fig8"])

    p = sub.add_parser("validate", help="verify a plan JSON file")
    p.add_argument("--plan", required=True)
    p.add_argument("--optimizer", choices=["sgd", "momentum", "adam"],
                   default="sgd")

    p = sub.add_parser(
        "serve",
        help="serve plan requests as JSON lines on stdin/stdout, or as a "
             "sharded TCP fleet with --shards",
    )
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="disk cache tier directory ('' disables persistence)")
    p.add_argument("--capacity", type=int, default=128,
                   help="in-memory LRU capacity (plans)")
    p.add_argument("--workers", type=int, default=None,
                   help="planning worker threads (default: CPU count)")
    p.add_argument("--shards", type=int, default=0,
                   help="run a fleet of N plan-service shards behind an "
                        "asyncio frontend (0 = classic single process)")
    # the fleet-only flags below leave no attribute when omitted
    # (argparse.SUPPRESS), so serve can refuse them without --shards
    p.add_argument("--port", type=int, default=argparse.SUPPRESS,
                   help="fleet mode: TCP port for the frontend (0 = "
                        "ephemeral; omit to keep serving stdin/stdout)")
    p.add_argument("--host", default=argparse.SUPPRESS,
                   help="fleet mode: frontend bind address (default "
                        "127.0.0.1)")
    p.add_argument("--shard-mode", choices=["thread", "process"],
                   default=argparse.SUPPRESS,
                   help="fleet mode: shards as threads in this process "
                        "(the default) or as isolated OS processes")
    p.add_argument("--trace", action="store_true",
                   help="collect spans for the 'trace' op (in a fleet: on "
                        "the frontend and every shard)")
    p.add_argument("--restart", action="store_true", default=argparse.SUPPRESS,
                   help="fleet mode (process shards): supervise crashed "
                        "shard processes and restart them with backoff")
    p.add_argument("--chaos", default=argparse.SUPPRESS, metavar="SPEC",
                   help="fleet mode: enable the deterministic fault "
                        "injector on every shard, e.g. "
                        "'seed=42,drop=0.05,delay=0.1,delay_ms=20,"
                        "corrupt=0.01' (also unlocks the chaos_kill / "
                        "chaos_freeze wire ops); each shard gets its own "
                        "seeded controller and perturbs only its own "
                        "frames. NEVER in production")
    p.add_argument("--heartbeat-interval", type=float,
                   default=argparse.SUPPRESS,
                   help="fleet mode: seconds between frontend health "
                        "probes of each shard (default 1; 0 disables)")
    p.add_argument("--failure-threshold", type=int, default=argparse.SUPPRESS,
                   help="fleet mode: consecutive probe/request failures "
                        "before a shard leaves the routing ring (default 3)")
    p.add_argument("--retry", default=argparse.SUPPRESS, metavar="SPEC",
                   help="fleet mode: the frontend's transport retry "
                        "budget, e.g. 'attempts=3,base=0.02,max=0.1,"
                        "seed=0' (omitted keys keep the defaults; "
                        "attempts=1 disables retries so transport errors "
                        "fail over immediately)")
    p.add_argument("--telemetry-dir", default=telemetry_dir,
                   help="durable request telemetry: append JSONL event "
                        "segments under this directory (fleet mode uses "
                        "frontend/ and shard-<name>/ subdirectories; "
                        "default: $REPRO_TELEMETRY_DIR)")
    p.add_argument("--slo", default=None, metavar="SPEC",
                   help="SLO targets for the burn-rate gauges, e.g. "
                        "'latency_ms=250,objective=0.99,window_fast_s=300,"
                        "window_slow_s=3600' (omitted keys keep the "
                        "defaults)")
    add_profile_option(p)

    p = sub.add_parser("warm", help="pre-populate the plan cache")
    p.add_argument("--models", required=True,
                   help="comma-separated model names")
    p.add_argument("--array", default="hetero",
                   help="array spec (e.g. hetero, homo, tpu-v3:16)")
    p.add_argument("--scheme", choices=SCHEME_ORDER, default="accpar")
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p.add_argument("--capacity", type=int, default=128)
    p.add_argument("--port", type=int, default=None,
                   help="warm a running fleet frontend at this port instead "
                        "of a local cache (replicates to every shard)")
    p.add_argument("--host", default="127.0.0.1",
                   help="fleet frontend host (with --port)")
    add_backend_option(p)
    add_profile_option(p)

    p = sub.add_parser(
        "calibrate",
        help="fit a repro.hardware.profile/v1 JSON from a telemetry "
             "calibration export",
    )
    p.add_argument("export",
                   help="calibration export JSON, from 'repro telemetry "
                        "export --calibration --out <file>'")
    p.add_argument("--out", required=True,
                   help="write the fitted profile JSON here")
    p.add_argument("--name", default="calibrated",
                   help="profile name embedded in the document")
    p.add_argument("--dtype-bytes", type=int, default=2,
                   help="bytes per element assumed when converting recorded "
                        "element counts to bytes (default: bfloat16)")

    p = sub.add_parser(
        "fleet-stats",
        help="query a running fleet frontend for frontend + per-shard stats",
    )
    p.add_argument("--port", type=int, required=True,
                   help="fleet frontend port")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--format", choices=["text", "json", "prometheus"],
                   default="text",
                   help="text summary, raw JSON, or Prometheus exposition "
                        "with per-shard {shard=...} labels")

    p = sub.add_parser("service-stats",
                       help="summarize the disk cache tier and last session")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p.add_argument("--format", choices=["text", "json", "prometheus"],
                   default="text",
                   help="text summary, raw JSON snapshot, or Prometheus "
                        "text exposition")

    p = sub.add_parser(
        "telemetry",
        help="inspect a durable telemetry store (tail / summary / export)",
    )
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    for name, help_text in (
        ("tail", "print the newest events as JSON lines"),
        ("summary", "aggregate the store: outcomes, latency, SLO inputs"),
        ("export", "dump all events (or --calibration per-op timings)"),
    ):
        tp = tsub.add_parser(name, help=help_text)
        tp.add_argument("--dir", default=telemetry_dir,
                        help="telemetry store directory (default: "
                             "$REPRO_TELEMETRY_DIR)")
        if name == "tail":
            tp.add_argument("-n", "--lines", type=int, default=20,
                            help="how many trailing events to print")
            tp.add_argument("--type", default=None, dest="event_type",
                            help="only events of this type (request, "
                                 "op_timing, search, chaos)")
        if name == "export":
            tp.add_argument("--calibration", action="store_true",
                            help="aggregate op_timing events into the "
                                 "per-hardware calibration format")
            tp.add_argument("--out", default=None,
                            help="write JSON here instead of stdout")

    p = sub.add_parser(
        "top",
        help="live fleet dashboard: per-shard QPS, latency, health, SLO burn",
    )
    p.add_argument("--port", type=int, required=True,
                   help="fleet frontend port")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after this many frames (default: run until "
                        "interrupted)")

    p = sub.add_parser("report", help="write a full markdown report")
    p.add_argument("--model", required=True)
    p.add_argument("--array", type=parse_array, default="hetero")
    p.add_argument("--scheme", choices=SCHEME_ORDER, default="accpar")
    p.add_argument("--batch", type=int, default=512)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--out", default=None, help="output .md path (default stdout)")
    p.add_argument("--what-if", action="store_true",
                   help="include the per-layer type-sensitivity table")
    add_backend_option(p)

    return parser


def _cmd_models() -> int:
    for name in available_models():
        print(name)
    return 0


def _cmd_describe(args) -> int:
    network = build_model(args.model)
    print(network.describe(args.batch))
    workloads = network.workloads(args.batch)
    params = sum(w.weight.size for w in workloads)
    print(f"\n{len(workloads)} weighted layers, {params / 1e6:.2f}M kernel weights")
    return 0


def _load_profile_arg(args):
    """Resolve ``--profile`` into a profile object, or None when unset.

    The analytic profile normalizes to None — it *is* the default — so
    downstream code has a single spelling for "peak rates".
    """
    value = getattr(args, "profile", None)
    if not value:
        return None
    from .hardware.profile import resolve_profile

    profile = resolve_profile(value)
    return None if getattr(profile, "is_analytic", False) else profile


def _cmd_plan(args) -> int:
    network = build_model(args.model)
    profile = _load_profile_arg(args)
    planner = Planner(args.array,
                      get_scheme(args.scheme, backend=args.backend,
                                 profile=profile),
                      levels=args.levels)
    planned = planner.plan(network, args.batch)
    issues = verify_planned(planned)

    print(f"planned {args.model} with {args.scheme} over {args.array}")
    if profile is not None:
        print(f"profile: {profile.name} "
              f"(calibrated: {', '.join(profile.spec_names())})")
    print(describe_tree(planned.tree, max_depth=1))
    print(f"hierarchy levels: {planned.hierarchy_levels()}")
    for name, lp in planned.root_level_plan.layer_assignments().items():
        print(f"  {name:<14} {lp.ptype!s:<9} alpha={lp.ratio:.3f}")
    if args.breakdown:
        print()
        print(render_breakdown(root_level_breakdown(planned)))
    if issues:
        print("\nverification issues:")
        for issue in issues:
            print(f"  - {issue}")
        return 1
    if args.out:
        save_plan(planned, args.out)
        print(f"\nplan written to {args.out}")
    return 0


def _open_telemetry(directory, stack: contextlib.ExitStack):
    """A writer appending under ``directory`` that ``stack`` closes, or
    None when ``directory`` is unset or empty."""
    if not directory:
        return None
    from .obs.telemetry import TelemetryWriter

    return stack.enter_context(TelemetryWriter(directory))


def _cmd_simulate(args) -> int:
    with contextlib.ExitStack() as stack:
        return _simulate(args, _open_telemetry(args.telemetry_dir, stack))


def _simulate(args, telemetry) -> int:
    profile = _load_profile_arg(args)
    if args.plan:
        planned = load_plan(args.plan)
    elif args.model:
        planner = Planner(args.array,
                          get_scheme(args.scheme, backend=args.backend,
                                     profile=profile),
                          levels=args.levels, telemetry=telemetry)
        planned = planner.plan(build_model(args.model), args.batch)
    else:
        print("simulate needs --plan or --model", file=sys.stderr)
        return 2
    report = evaluate(planned, profile=profile, telemetry=telemetry)
    if telemetry is not None:
        print(f"telemetry: {telemetry.events_written} event(s) -> "
              f"{args.telemetry_dir}", file=sys.stderr)
    print(f"{planned.network_name} / {planned.scheme} / batch {planned.batch}")
    print(render_level_summary(report))
    print(f"\nthroughput: {report.throughput:.1f} samples/s")
    mem = report.memory_worst
    if mem is not None:
        print(f"worst leaf memory: {mem.total_bytes / 2**30:.3f} GiB "
              f"({mem.utilization * 100:.2f}%) fits={mem.fits}")
    if args.trace:
        from .sim.timeline import save_chrome_trace

        save_chrome_trace(planned, args.trace, profile=profile)
        print(f"simulated critical-path trace written to {args.trace}")
    return 0


def _cmd_profile(args) -> int:
    """Trace one planning run; emit Chrome trace JSON + a profile table."""
    from .obs import (Participant, chrome_trace_document, render_profile,
                      save_trace_document, set_request_context)

    network = build_model(args.model)
    planner = Planner(args.array, get_scheme(args.scheme, backend=args.backend),
                      levels=args.levels)

    # the run is its own participant: the plan's spans land on its tracer
    profiled = Participant()
    tracer = profiled.tracer
    tracer.enable()
    previous = set_request_context(profiled)
    try:
        t0 = time.perf_counter()
        planned = planner.plan(network, args.batch)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
    finally:
        set_request_context(*previous)
    spans = tracer.drain()

    print(f"profiled {args.model} / {args.scheme} on {args.array}: "
          f"{elapsed_ms:.1f} ms, {len(spans)} spans"
          + (f" ({tracer.spans_dropped} dropped)" if tracer.spans_dropped else ""))
    print()
    print(render_profile(spans, title=f"planner profile ({args.model})"))
    if args.out:
        save_trace_document(chrome_trace_document(spans), args.out)
        print(f"\nplanner trace written to {args.out} "
              "(open in Perfetto or chrome://tracing)")
    if args.sim_trace:
        from .sim.timeline import save_chrome_trace

        save_chrome_trace(planned, args.sim_trace)
        print(f"simulated-iteration trace written to {args.sim_trace}")
    return 0


def _cmd_sweep(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    table = sweep(models, args.array, batch=args.batch, levels=args.levels)
    print(format_speedup_table(table, f"speedups on {args.array}"))
    return 0


def _cmd_figure(args) -> int:
    if args.which == "fig5":
        print(format_speedup_table(figure5_heterogeneous(),
                                   "Figure 5 (heterogeneous)"))
    elif args.which == "fig6":
        print(format_speedup_table(figure6_homogeneous(),
                                   "Figure 6 (homogeneous)"))
    elif args.which == "fig7":
        print(figure7_alexnet_types().rendered())
    else:
        print(figure8_hierarchy_sweep().rendered())
    return 0


def _cmd_plan_diff(args) -> int:
    a = load_plan(args.plan_a)
    b = load_plan(args.plan_b)
    kwargs = {} if args.rel_tol is None else {"rel_tol": args.rel_tol}
    differences = plan_diff(a.plan, b.plan, **kwargs)
    if not differences:
        print(f"{args.plan_a} and {args.plan_b} make identical decisions")
        return 0
    print(f"{len(differences)} difference(s) between "
          f"{args.plan_a} and {args.plan_b}:")
    for difference in differences:
        print(f"  - {difference}")
    return 1


def _cmd_validate(args) -> int:
    from .training.optimizers import get_optimizer

    planned = load_plan(args.plan)
    issues = verify_planned(planned, optimizer=get_optimizer(args.optimizer))
    if not issues:
        print(f"{args.plan}: OK "
              f"({planned.network_name}, {planned.scheme}, "
              f"{planned.hierarchy_levels()} levels)")
        return 0
    print(f"{args.plan}: {len(issues)} issue(s)")
    for issue in issues:
        print(f"  - {issue}")
    return 1


def _build_service(cache_dir, capacity: int, workers=None,
                   slo=None, telemetry=None, default_profile=None):
    from .service import PlanCache, PlanService

    disk_dir = cache_dir if cache_dir else None
    return PlanService(cache=PlanCache(capacity=capacity, disk_dir=disk_dir),
                       workers=workers, slo=slo, telemetry=telemetry,
                       default_profile=default_profile)


def _cmd_serve(args) -> int:
    """Serve JSON lines on stdin/stdout: ``serve_loop`` over one process's
    op table or a fleet frontend's.  A fleet with ``--port`` serves TCP
    only, until a shutdown op (see docs/serving.md)."""
    from .obs.logging import configure_json_logging
    from .service.server import handle_doc, serve_loop

    fleet_flags = [flag for flag in FLEET_ONLY_FLAGS
                   if hasattr(args, flag[2:].replace("-", "_"))]
    if fleet_flags and not args.shards:
        print(f"serve: fleet-only flag(s) {', '.join(fleet_flags)} "
              "need --shards N", file=sys.stderr)
        return 2
    # stdout carries the JSON-lines protocol; structured logs (e.g. the
    # slow-request warning, with trace id) go to stderr as JSON too
    configure_json_logging(stream=sys.stderr)
    if args.slo is not None:  # fail fast on a bad spec, before any spawn
        from .obs.slo import SLOConfig
        SLOConfig.parse(args.slo)
    # resolve the profile up front so a broken file fails fast in both
    # modes (fleet shards re-load it from the path)
    default_profile = _load_profile_arg(args)
    with contextlib.ExitStack() as stack:
        try:
            if args.shards:
                frontend = _start_fleet(args, stack)
                if hasattr(args, "port"):
                    frontend.wait()  # TCP only; a shutdown op ends this
                    return 0
                handle = frontend.handle_doc
            else:
                telemetry = _open_telemetry(args.telemetry_dir, stack)
                service = stack.enter_context(_build_service(
                    args.cache_dir, args.capacity, args.workers,
                    slo=args.slo, telemetry=telemetry,
                    default_profile=default_profile))
                if args.trace:
                    service.participant.tracer.enable()
                handle = functools.partial(handle_doc, service)
            served = serve_loop(handle, sys.stdin, sys.stdout)
        except KeyboardInterrupt:
            return 0
    print(f"served {served} request(s)", file=sys.stderr)
    return 0


def _start_fleet(args, stack: contextlib.ExitStack):
    """Start ``--shards`` shards and their frontend; ``stack`` stops them."""
    from .fleet import ChaosSpec, FleetFrontend, RetryPolicy, ShardSupervisor

    chaos = getattr(args, "chaos", None)
    if chaos is not None:  # fail fast on a bad spec, before any spawn
        ChaosSpec.parse(chaos)
    retry = getattr(args, "retry", None)
    if retry is not None:
        retry = RetryPolicy.parse(retry)
    shard_mode = getattr(args, "shard_mode", "thread")
    frontend_telemetry = _open_telemetry(
        args.telemetry_dir and os.path.join(args.telemetry_dir, "frontend"),
        stack)
    supervisor = stack.enter_context(ShardSupervisor(
        args.shards,
        cache_dir=args.cache_dir or None,
        mode=shard_mode,
        capacity=args.capacity,
        workers=args.workers,
        trace=args.trace,
        chaos=chaos,
        restart=getattr(args, "restart", False) and shard_mode == "process",
        telemetry_dir=args.telemetry_dir,
        slo=args.slo,
        profile_path=args.profile,
    ))
    frontend = stack.enter_context(FleetFrontend(
        supervisor.handles,
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 0),
        heartbeat_interval_s=getattr(args, "heartbeat_interval", 1.0),
        failure_threshold=getattr(args, "failure_threshold", 3),
        retry=retry,
        slo=args.slo,
        telemetry=frontend_telemetry,
    ))
    if args.trace:
        frontend.tracer.enable()
    shard_list = ", ".join(
        f"{h.name}@{h.host}:{h.port}" for h in supervisor.handles)
    print(f"fleet up: frontend {frontend.host}:{frontend.port} "
          f"({shard_mode} shards: {shard_list})", file=sys.stderr)
    sys.stderr.flush()
    return frontend


def _cmd_warm(args) -> int:
    from .service import PlanRequest
    from .service.server import warm_cache

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if not models:
        print("warm needs at least one model", file=sys.stderr)
        return 2
    if args.port is not None:
        return _cmd_warm_fleet(args, models)
    if isinstance(args.array, str):
        args.array = parse_array(args.array)
    profile = _load_profile_arg(args)
    service = _build_service(args.cache_dir, args.capacity)
    try:
        requests = [
            PlanRequest(model=m, array=args.array, batch=args.batch,
                        scheme=args.scheme, levels=args.levels,
                        backend=args.backend, profile=profile)
            for m in models
        ]
        responses = warm_cache(service, requests)
    finally:
        service.close()
    for response in responses:
        print(f"{response.planned.network_name:<12} {response.source:<8} "
              f"{response.latency_s * 1e3:8.1f} ms  {response.fingerprint}")
    print(f"cache: {len(service.cache)} in memory, "
          f"{len(service.cache.disk_keys())} on disk")
    return 0


def _cmd_warm_fleet(args, models: List[str]) -> int:
    """Warm a running fleet: plan on each owner, replicate to every shard."""
    from .fleet import FleetClient

    profile = _load_profile_arg(args)
    profile_doc = None
    if profile is not None:
        from .hardware.profile import profile_to_doc

        profile_doc = profile_to_doc(profile)
    items = [
        {"model": m, "array": args.array, "batch": args.batch,
         "scheme": args.scheme, "levels": args.levels,
         "backend": args.backend,
         **({"profile": profile_doc} if profile_doc is not None else {})}
        for m in models
    ]
    with FleetClient(args.host, args.port) as client:
        reply = client.warm(items)
    for item in reply.get("items", []):
        if item.get("ok"):
            print(f"{item.get('fingerprint')}  shard {item.get('shard')}  "
                  f"{item.get('source'):<8} replicated to "
                  f"{item.get('replicated')} peer(s)")
        else:
            print(f"FAILED: {item.get('error')}")
    return 0 if reply.get("ok") else 1


def _cmd_calibrate(args) -> int:
    """Fit a hardware profile from a telemetry calibration export."""
    import json
    from pathlib import Path

    from .calib import profile_from_export
    from .hardware.profile import ProfileError, save_profile

    try:
        doc = json.loads(Path(args.export).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read calibration export {args.export}: {exc}",
              file=sys.stderr)
        return 2
    try:
        profile = profile_from_export(doc, name=args.name,
                                      dtype_bytes=args.dtype_bytes)
    except ProfileError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 1
    save_profile(profile, args.out)
    print(f"profile {profile.name!r} written to {args.out}")
    for sp in profile.specs:
        rates = ", ".join(f"{kind}={rate / 1e12:.2f}T"
                          for kind, rate in sp.compute_rates)
        curve = (f"{len(sp.bandwidth_efficiency)}-point bw curve"
                 if sp.bandwidth_efficiency else "flat bw curve")
        print(f"  {sp.spec}: FLOP/s {rates}; {curve}; "
              f"latency {sp.transfer_latency_s * 1e6:.1f}us/transfer")
    meta = dict(profile.meta)
    for key in sorted(k for k in meta if k.startswith("skipped:")):
        print(f"  skipped {key.split(':', 1)[1]}: {meta[key]}")
    return 0


def _cmd_fleet_stats(args) -> int:
    import json

    from .fleet import FleetClient
    from .obs.registry import render_prometheus

    with FleetClient(args.host, args.port) as client:
        stats = client.stats()
    if args.format == "json":
        print(json.dumps(stats, indent=2))
        return 0
    frontend = stats.get("frontend", {})
    shards = stats.get("shards", {}) or {}
    if args.format == "prometheus":
        # frontend series carry {component="frontend"}; each shard's carry
        # {shard="<name>"} so one scrape yields distinguishable series
        out = [render_prometheus({"metrics": frontend.get("metrics", {})},
                                 include_defaults=False,
                                 labels={"component": "frontend"})]
        for name in sorted(shards):
            snapshot = shards[name]
            if snapshot:
                out.append(render_prometheus(snapshot,
                                             labels={"shard": name}))
        sys.stdout.write("".join(out))
        return 0
    admission = frontend.get("admission", {})
    ring = frontend.get("ring", {})
    print(f"fleet: {len(shards)} shard(s), ring vnodes "
          f"{ring.get('vnodes')}, queue depth {frontend.get('queue_depth')}")
    counters = (frontend.get("metrics") or {}).get("counters") or {}
    for name in sorted(counters):
        print(f"  frontend.{name:<20} {counters[name]}")
    print(f"  admission: est_hit={admission.get('est_hit_ms')}ms "
          f"est_cold={admission.get('est_cold_ms')}ms "
          f"decisions={admission.get('decisions')}")
    slo = frontend.get("slo")
    if slo:
        from .obs.slo import render_slo_lines

        print(render_slo_lines(slo, title="  slo (frontend)"))
    telemetry = frontend.get("telemetry")
    if telemetry:
        print(f"  telemetry: events={telemetry.get('events_written')} "
              f"dropped={telemetry.get('events_dropped')} "
              f"segment={telemetry.get('segment_seq')} "
              f"dir={telemetry.get('directory')}")
    for name in sorted(shards):
        snapshot = shards[name] or {}
        shard_counters = (snapshot.get("metrics") or {}).get("counters") or {}
        cache = snapshot.get("cache") or {}
        print(f"  shard {name}: requests={shard_counters.get('requests', 0)} "
              f"hits_memory={shard_counters.get('hits_memory', 0)} "
              f"misses={shard_counters.get('misses', 0)} "
              f"cache_size={cache.get('size', cache.get('memory_entries', 0))}")
    return 0


def _cmd_service_stats(args) -> int:
    import json

    from .obs.registry import render_prometheus
    from .service.server import describe_cache_dir, load_stats_snapshot

    if args.format == "text":
        print(describe_cache_dir(args.cache_dir))
        return 0
    # json / prometheus render the last session's machine-readable snapshot;
    # an absent snapshot renders as all-zero canonical series rather than an
    # error so scrapers see a stable series set from the first scrape on
    snapshot = load_stats_snapshot(args.cache_dir) or {}
    if args.format == "json":
        print(json.dumps(snapshot, indent=2))
    else:
        sys.stdout.write(render_prometheus(snapshot))
    return 0


def _resolve_telemetry_dir(args) -> Optional[str]:
    directory = args.dir
    if not directory:
        print("telemetry needs --dir or REPRO_TELEMETRY_DIR", file=sys.stderr)
    return directory


def _cmd_telemetry(args) -> int:
    import json

    from .obs import telemetry as telemetry_store

    directory = _resolve_telemetry_dir(args)
    if not directory:
        return 2

    if args.telemetry_command == "tail":
        types = (args.event_type,) if args.event_type else None
        events = telemetry_store.read_events(directory, types=types)
        for event in events[-max(0, args.lines):]:
            print(json.dumps(event, sort_keys=True))
        return 0

    if args.telemetry_command == "summary":
        summary = telemetry_store.summarize(directory)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    # export
    if args.calibration:
        document = telemetry_store.calibration_export(directory)
    else:
        report = telemetry_store.ReadReport()
        document = {
            "directory": str(directory),
            "events": list(telemetry_store.iter_events(directory,
                                                       report=report)),
            "corrupt_lines": report.corrupt_lines,
        }
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        from .ioutil import atomic_write_text

        atomic_write_text(args.out, text + "\n")
        print(f"export written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_top(args) -> int:
    from .obs.top import run_top

    return run_top(args.host, args.port, interval_s=args.interval,
                   iterations=args.iterations)


def _cmd_report(args) -> int:
    from .experiments.analysis import type_histogram

    planner = Planner(args.array, get_scheme(args.scheme, backend=args.backend),
                      levels=args.levels)
    planned = planner.plan(build_model(args.model), args.batch)
    report = evaluate(planned)

    lines = [
        f"# {planned.network_name} on {args.array}",
        "",
        f"- scheme: **{planned.scheme}**, batch {planned.batch}, "
        f"{planned.hierarchy_levels()} hierarchy levels",
        f"- simulated iteration: **{report.total_time * 1e3:.3f} ms** "
        f"({report.throughput:.1f} samples/s)",
    ]
    mem = report.memory_worst
    if mem is not None:
        lines.append(
            f"- worst leaf memory: {mem.total_bytes / 2**30:.3f} GiB "
            f"({mem.utilization * 100:.2f}% of capacity, fits={mem.fits})"
        )
    histogram = type_histogram(planned)
    lines.append(
        "- partition types across levels: "
        + ", ".join(f"{t.value}: {n}" for t, n in histogram.items())
    )
    lines += ["", "## Root-level plan", "", "```"]
    lines.append(render_breakdown(root_level_breakdown(planned)))
    lines += ["```", "", "## Per-level communication", "", "```"]
    lines.append(render_level_summary(report))
    lines += ["```", ""]
    if args.what_if:
        from .experiments.analysis import layer_type_sensitivity, render_what_if

        lines += ["## Layer-type sensitivity", "", "```"]
        lines.append(render_what_if(layer_type_sensitivity(planned)))
        lines += ["```", ""]

    document = "\n".join(lines)
    if args.out:
        from .ioutil import atomic_write_text

        atomic_write_text(args.out, document)
        print(f"report written to {args.out}")
    else:
        print(document)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "models": lambda: _cmd_models(),
        "describe": lambda: _cmd_describe(args),
        "plan": lambda: _cmd_plan(args),
        "plan-diff": lambda: _cmd_plan_diff(args),
        "simulate": lambda: _cmd_simulate(args),
        "profile": lambda: _cmd_profile(args),
        "sweep": lambda: _cmd_sweep(args),
        "figure": lambda: _cmd_figure(args),
        "validate": lambda: _cmd_validate(args),
        "report": lambda: _cmd_report(args),
        "serve": lambda: _cmd_serve(args),
        "warm": lambda: _cmd_warm(args),
        "calibrate": lambda: _cmd_calibrate(args),
        "fleet-stats": lambda: _cmd_fleet_stats(args),
        "service-stats": lambda: _cmd_service_stats(args),
        "telemetry": lambda: _cmd_telemetry(args),
        "top": lambda: _cmd_top(args),
    }
    try:
        return handlers[args.command]()
    except BrokenPipeError:  # e.g. `repro models | head`
        return 0
    except ProfileError as exc:
        # a profile that doesn't cover the array (or a malformed file) is a
        # usage error, not a crash: say what's wrong and which specs the
        # profile does cover
        print(f"profile error: {exc}", file=sys.stderr)
        return 2
    except (PlanFormatError, PlanVerificationError) as exc:
        # likewise a plan file this build cannot read, or a plan that
        # cannot shard its layers (the issue `validate` reports)
        print(f"plan error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
