"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``profile <workload> [-o profile.json]`` — run the profiling phase and
  save the allocation profile (§3.5: one profile per expected workload).
* ``record <workload> -o <dir>`` — run the profiling phase and persist
  the *raw* recording (allocation streams + snapshots) for later offline
  analysis, the paper's actual deployment shape.
* ``analyze <dir> [-o profile.json]`` — stream a recording directory
  through the analysis stages (``ProfileBuilder``), no VM required.
* ``run <workload> [--profile URI] [--strategy ...]`` — run the
  production phase (or a baseline) and print the pause report.
  ``--profile`` takes a file path or a profile URI (``store://``,
  ``http://`` — e.g. a running ``repro serve``'s
  ``/profiles/<workload>/latest``).
* ``serve`` — run the continuous profiling daemon: budgeted profiling
  cycles per workload, cross-VM STTree merge into a content-addressed
  profile store, and an HTTP API production VMs fetch profiles from.
* ``evaluate`` — regenerate every table and figure of the paper's §5.
* ``matrix`` — run a fleet-scale (workload × strategy × seed ×
  heap-config) sweep — one ready queue of cells (profiling cells first,
  each POLM2 cell as soon as its profile lands), drained in-process at
  ``--jobs 1`` and through a process pool above that — with live
  progress and pooled multi-seed percentiles.
* ``workloads`` — list available workloads.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import AllocationProfile, POLM2Pipeline, WORKLOAD_NAMES, make_workload
from repro.config import SimConfig, resolve_object_scale
from repro.errors import ReproError
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentSettings,
    _env_int,
)
from repro.strategies import get_strategy, strategy_names


def cmd_workloads(_args) -> int:
    for name in WORKLOAD_NAMES:
        print(name)
    return 0


def _scaled_run(args):
    """Resolve ``--object-scale`` / ``$REPRO_OBJECT_SCALE`` for a command.

    Returns ``(config_or_None, duration_ms)``: at scale 1 the config stays
    ``None`` (callers keep their defaults untouched); above 1 the heap,
    young generation, and duration all grow by the factor, so the run
    allocates ~scale× the objects at unchanged pressure ratios.
    """
    scale = resolve_object_scale(getattr(args, "object_scale", None))
    duration_ms = args.duration_ms * scale
    if scale == 1:
        return None, duration_ms
    return SimConfig(seed=args.seed).scaled(scale), duration_ms


def cmd_profile(args) -> int:
    config, duration_ms = _scaled_run(args)
    pipeline = POLM2Pipeline(
        lambda: make_workload(args.workload, seed=args.seed),
        config=config,
    )
    profile = pipeline.run_profiling_phase(duration_ms=duration_ms)
    print(
        f"{profile.instrumented_site_count} sites, "
        f"{profile.generations_used} generations, "
        f"{profile.conflicts_detected} conflicts"
    )
    profile.save(args.output)
    print(f"saved -> {args.output}")
    return 0


def cmd_record(args) -> int:
    from repro.core.offline import record_to_dir

    config, duration_ms = _scaled_run(args)
    record_to_dir(
        args.workload,
        args.output,
        duration_ms=duration_ms,
        seed=args.seed,
        config=config,
    )
    print(f"recording saved -> {args.output}")
    return 0


def cmd_analyze(args) -> int:
    from repro.core.offline import analyze_recording
    from repro.core.sttree import STTREE_SCHEMA_VERSION

    profile = analyze_recording(args.recording_dir)
    print(
        f"{profile.instrumented_site_count} sites, "
        f"{profile.generations_used} generations, "
        f"{profile.conflicts_detected} conflicts"
    )
    if profile.sttree is not None:
        print(
            f"profile IR: schema v{STTREE_SCHEMA_VERSION}, "
            f"digest {profile.sttree.digest()[:16]}"
        )
    profile.save(args.output)
    print(f"saved -> {args.output}")
    return 0


def cmd_run(args) -> int:
    config, duration_ms = _scaled_run(args)
    pipeline = POLM2Pipeline(
        lambda: make_workload(args.workload, seed=args.seed), config=config
    )
    spec = get_strategy(args.strategy)
    profile = None
    if spec.needs_profile:
        if args.profile:
            from repro.core.profilesource import profile_source

            source = profile_source(args.profile)
            profile = source.resolve()
            print(f"profile <- {source.describe()}")
        else:
            print("(no --profile given: running the profiling phase first)")
            profile = pipeline.run_profiling_phase(duration_ms=duration_ms / 2)
    result = pipeline.run(spec, duration_ms=duration_ms, profile=profile)
    print(result.pause_report())
    print(f"throughput: {result.throughput_ops_s:.0f} ops/s")
    print(f"peak memory: {result.peak_memory_bytes / 2**20:.1f} MiB")
    return 0


def cmd_serve(args) -> int:
    import signal

    from repro.serve import ServeConfig, ServeDaemon

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    for name in workloads:
        if name not in WORKLOAD_NAMES:
            known = ", ".join(WORKLOAD_NAMES)
            raise ReproError(f"unknown workload {name!r} (known: {known})")
    config = ServeConfig(
        workloads=workloads,
        instances=args.instances,
        seed=args.seed,
        sim_duration_ms=args.duration_ms,
        cycle_budget_s=args.cycle_budget_s,
        max_rounds=args.cycles,
        store_dir=args.store_dir,
        host=args.host,
        port=args.port,
        round_interval_s=args.interval_s,
        heap_bytes=args.heap_bytes,
        young_bytes=args.young_bytes,
    )
    daemon = ServeDaemon(config)

    def _on_signal(_signum, _frame) -> None:
        daemon.request_stop()

    try:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    except ValueError:
        pass  # not the main thread (tests drive main() directly)

    url = daemon.start_service()
    # The smoke tests (and operators' readiness probes) key off this
    # exact line; keep it first and flushed.
    print(f"serving on {url}", flush=True)
    print(
        f"workloads: {', '.join(workloads)}  instances: {args.instances}  "
        f"cycle budget: {args.cycle_budget_s:g}s",
        flush=True,
    )

    def on_report(report) -> None:
        status = (
            "ok"
            if report.completed
            else f"TRUNCATED after {report.truncated_after} "
            f"(+{report.overrun_s:.2f}s over budget)"
        )
        print(
            f"cycle {report.index} {report.workload} seed={report.seed} "
            f"{report.elapsed_s:.2f}s/{report.budget_s:g}s {status}",
            flush=True,
        )

    rounds = daemon.run(on_report=on_report)
    print(f"stopped after {rounds} round(s)")
    return 0


def _jobs(args) -> int:
    """``--jobs``, else ``$REPRO_JOBS``, else 1 — read when the command runs."""
    return args.jobs if args.jobs is not None else _env_int("REPRO_JOBS", 1)


def cmd_evaluate(args) -> int:
    from repro.metrics.report import full_report

    settings = ExperimentSettings(
        profiling_ms=args.profiling_ms,
        production_ms=args.duration_ms,
        jobs=_jobs(args),
        cache_backend=None if args.no_cache else args.cache_backend,
    )
    runner = ExperimentRunner(settings)
    if settings.jobs > 1:
        # Fill the whole matrix in parallel first; the figure modules
        # then aggregate from warm in-memory cells.
        runner.full_matrix(jobs=settings.jobs)
    print(full_report(runner))
    return 0


def cmd_matrix(args) -> int:
    from repro.experiments.matrix import (
        HEAP_CONFIGS,
        parse_seeds,
        pooled_pause_percentiles,
    )
    from repro.metrics.percentiles import PAPER_PERCENTILES

    def split(raw: str, universe, what: str) -> tuple:
        if raw == "all":
            return tuple(universe)
        names = tuple(name.strip() for name in raw.split(",") if name.strip())
        for name in names:
            if name not in universe:
                known = ", ".join(universe)
                raise ReproError(f"unknown {what} {name!r} (known: {known})")
        if not names:
            raise ReproError(f"no {what} named in {raw!r}")
        return names

    workloads = split(args.workloads, WORKLOAD_NAMES, "workload")
    strategies = split(args.strategies, strategy_names(), "strategy")
    heap_configs = split(args.heap_configs, tuple(HEAP_CONFIGS), "heap config")
    seeds_raw = args.seeds or os.environ.get("REPRO_SEEDS") or None
    settings = ExperimentSettings(
        profiling_ms=args.profiling_ms,
        production_ms=args.duration_ms,
        seeds=parse_seeds(seeds_raw) if seeds_raw else None,
        jobs=_jobs(args),
        cache_backend=None if args.no_cache else args.cache_backend,
        profile_source=args.profile_source,
    )
    runner = ExperimentRunner(settings)
    computed = cached = 0
    cells: dict = {}
    last = None
    for item in runner.sweep(
        workloads=workloads,
        strategies=strategies,
        heap_configs=heap_configs,
    ):
        last = item.progress
        cached += item.cached
        computed += not item.cached
        if not item.key.is_profiling:
            cells[item.key] = item.result
        if not args.no_progress:
            print(
                f"[{item.progress.done}/{item.progress.total}] "
                f"{item.key.cell_id:<48} "
                f"{item.progress.cells_per_sec:>7.2f} cells/s  "
                f"ETA {item.progress.eta_s:>5.0f}s"
                f"{'  (cached)' if item.cached else ''}"
            )
    if last is not None:
        print(
            f"{last.done} cells ({cached} cached, {computed} computed) "
            f"in {last.elapsed_s:.1f}s — {last.cells_per_sec:.2f} cells/s"
        )
    headers = [f"P{pct:g}" for pct in PAPER_PERCENTILES] + ["max"]
    for workload, series in pooled_pause_percentiles(cells).items():
        print(f"\n--- {workload}: pooled pause percentiles (ms) ---")
        print("          " + " ".join(f"{h:>9}" for h in headers))
        for name, pooled in series.items():
            print(
                f"{name:>9} "
                + " ".join(f"{v:>9.2f}" for v in pooled.row)
                + f"   [{pooled.support}]"
            )
    return 0


def _add_object_scale_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--object-scale",
        type=int,
        default=None,
        metavar="N",
        help="multiply heap size, young size, and duration by N so the "
        "run allocates ~N× the objects (default: $REPRO_OBJECT_SCALE or 1)",
    )


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-backend",
        default=os.environ.get("REPRO_CACHE_BACKEND")
        or "sqlite:///.repro_cache/sweep.db",
        metavar="sqlite:///PATH",
        help="on-disk result cache (default: $REPRO_CACHE_BACKEND, else "
        "sqlite:///.repro_cache/sweep.db)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list workloads").set_defaults(
        func=cmd_workloads
    )

    p_profile = sub.add_parser("profile", help="run the profiling phase")
    p_profile.add_argument("workload", choices=WORKLOAD_NAMES)
    p_profile.add_argument("-o", "--output", default="profile.json")
    p_profile.add_argument("--duration-ms", type=float, default=30_000.0)
    p_profile.add_argument("--seed", type=int, default=42)
    _add_object_scale_option(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_record = sub.add_parser("record", help="record raw profiling data")
    p_record.add_argument("workload", choices=WORKLOAD_NAMES)
    p_record.add_argument("-o", "--output", default="recording")
    p_record.add_argument("--duration-ms", type=float, default=30_000.0)
    p_record.add_argument("--seed", type=int, default=42)
    _add_object_scale_option(p_record)
    p_record.set_defaults(func=cmd_record)

    p_analyze = sub.add_parser("analyze", help="analyze a recording dir")
    p_analyze.add_argument("recording_dir")
    p_analyze.add_argument("-o", "--output", default="profile.json")
    p_analyze.set_defaults(func=cmd_analyze)

    p_run = sub.add_parser("run", help="run production phase or a baseline")
    p_run.add_argument("workload", choices=WORKLOAD_NAMES)
    # Choices come from the strategy registry: registering a new
    # StrategySpec makes it runnable here with zero CLI edits.
    p_run.add_argument(
        "--strategy",
        choices=strategy_names(),
        default="polm2",
    )
    p_run.add_argument(
        "--profile",
        help="allocation profile: a JSON file path, store://DIR#WORKLOAD, "
        "or http://host:port/profiles/WORKLOAD/latest (a repro serve)",
    )
    p_run.add_argument("--duration-ms", type=float, default=60_000.0)
    p_run.add_argument("--seed", type=int, default=42)
    _add_object_scale_option(p_run)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("evaluate", help="regenerate all tables/figures")
    p_eval.add_argument("--duration-ms", type=float, default=60_000.0)
    p_eval.add_argument("--profiling-ms", type=float, default=30_000.0)
    p_eval.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the experiment matrix "
        "(default: $REPRO_JOBS or 1)",
    )
    _add_cache_options(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_serve = sub.add_parser(
        "serve",
        help="run the continuous profiling daemon + profile service",
    )
    p_serve.add_argument(
        "--workloads",
        default="cassandra-wi",
        help="comma-separated workloads to profile continuously",
    )
    p_serve.add_argument(
        "--instances",
        type=int,
        default=1,
        help="simulated VM instances per workload (merged per cycle)",
    )
    p_serve.add_argument("--seed", type=int, default=42)
    p_serve.add_argument(
        "--duration-ms",
        type=float,
        default=1_500.0,
        help="virtual ms profiled per cycle (default 1500)",
    )
    p_serve.add_argument(
        "--cycle-budget-s",
        type=float,
        default=60.0,
        help="wall-clock budget per cycle, post-processing included",
    )
    p_serve.add_argument(
        "--cycles",
        type=int,
        default=None,
        help="rounds to run before exiting (default: until SIGTERM)",
    )
    p_serve.add_argument(
        "--store-dir",
        default="profile-store",
        help="content-addressed profile store (and crash-safe state)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="HTTP port (default 0: pick an ephemeral port)",
    )
    p_serve.add_argument(
        "--interval-s",
        type=float,
        default=0.0,
        help="idle gap between rounds, seconds",
    )
    p_serve.add_argument(
        "--heap-bytes",
        type=int,
        default=None,
        help="simulated heap size (small heaps promote sooner; "
        "default: SimConfig default)",
    )
    p_serve.add_argument(
        "--young-bytes",
        type=int,
        default=None,
        help="simulated young-generation size",
    )
    p_serve.set_defaults(func=cmd_serve)

    from repro.experiments.matrix import HEAP_CONFIGS

    p_matrix = sub.add_parser(
        "matrix",
        help="run a fleet-scale (workload × strategy × seed × heap) sweep",
    )
    p_matrix.add_argument(
        "--workloads",
        default="all",
        help="comma-separated workload names, or 'all' (default)",
    )
    p_matrix.add_argument(
        "--strategies",
        default="g1,ng2c,polm2,c4",
        help="comma-separated strategy names, or 'all' for the registry",
    )
    p_matrix.add_argument(
        "--seeds",
        default=None,
        help="seeds to sweep: N, N-M (inclusive), or N,M,... "
        "(default: $REPRO_SEEDS or the single default seed)",
    )
    p_matrix.add_argument(
        "--heap-configs",
        default="default",
        help="comma-separated heap configs or 'all' "
        f"(known: {', '.join(HEAP_CONFIGS)})",
    )
    p_matrix.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes: 1 computes every cell in-process, more "
        "keep that many cells in flight in a process pool; both take "
        "profiling cells first (default: $REPRO_JOBS or 1)",
    )
    _add_cache_options(p_matrix)
    p_matrix.add_argument(
        "--profile-source",
        default=os.environ.get("REPRO_PROFILE_SOURCE") or None,
        metavar="URI",
        help="fetch profiles from URI ({workload} substituted) instead of "
        "sweeping profiling cells — e.g. "
        "http://host:port/profiles/{workload}/latest against a running "
        "repro serve (default: $REPRO_PROFILE_SOURCE)",
    )
    p_matrix.add_argument("--duration-ms", type=float, default=60_000.0)
    p_matrix.add_argument("--profiling-ms", type=float, default=30_000.0)
    p_matrix.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress per-cell progress lines",
    )
    p_matrix.set_defaults(func=cmd_matrix)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
