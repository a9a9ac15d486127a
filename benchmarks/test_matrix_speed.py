"""BENCH: experiment-matrix wall time — serial vs parallel vs cached.

Starts the repo's performance trajectory: emits
``benchmarks/results/BENCH_matrix.json`` with wall-clock numbers for

* the serial, uncached matrix pass (the pre-performance-layer baseline),
* the ``ProcessPoolExecutor`` parallel pass (``jobs=2``), and
* the fully disk-cached pass (second run over a
  ``sqlite:///.repro_cache/sweep.db``-style cache).

Durations honour ``REPRO_PROFILE_MS`` / ``REPRO_PRODUCTION_MS`` so CI
can run a short smoke pass.  The acceptance gate: parallel *or* cached
must be ≥2× faster than serial (on single-core CI boxes only the cached
path can clear it; both numbers are recorded either way).
"""

import json
import os
import time

from conftest import RESULTS_DIR, save_result

from repro.config import SimConfig
from repro.experiments.matrix import (
    SqliteCacheBackend,
    SweepSpec,
    run_sweep,
    sweep_cache_key,
)
from repro.experiments.runner import ExperimentRunner, ExperimentSettings

BENCH_WORKLOADS = ("cassandra-wi", "graphchi-pr")
BENCH_STRATEGIES = ("g1", "polm2")
JOBS = 2


def bench_settings(**overrides) -> ExperimentSettings:
    params = dict(
        profiling_ms=float(os.environ.get("REPRO_PROFILE_MS", 4_000)),
        production_ms=float(os.environ.get("REPRO_PRODUCTION_MS", 8_000)),
    )
    params.update(overrides)
    return ExperimentSettings(**params)


def timed_matrix(runner: ExperimentRunner, **kwargs) -> float:
    start = time.perf_counter()
    runner.full_matrix(BENCH_WORKLOADS, BENCH_STRATEGIES, **kwargs)
    return time.perf_counter() - start


def test_matrix_speed(tmp_path_factory):
    cache = f"sqlite:///{tmp_path_factory.mktemp('repro_cache')}/sweep.db"

    serial_s = timed_matrix(ExperimentRunner(bench_settings()))
    parallel_s = timed_matrix(ExperimentRunner(bench_settings()), jobs=JOBS)
    # Warm the disk cache (not timed), then measure a pure cache read.
    timed_matrix(ExperimentRunner(bench_settings(cache_backend=cache)))
    cached_s = timed_matrix(ExperimentRunner(bench_settings(cache_backend=cache)))

    payload = {
        "bench": "matrix_speed",
        "workloads": list(BENCH_WORKLOADS),
        "strategies": list(BENCH_STRATEGIES),
        "profiling_ms": bench_settings().profiling_ms,
        "production_ms": bench_settings().production_ms,
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "cached_s": round(cached_s, 6),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "cached_speedup": round(serial_s / cached_s, 1),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_matrix.json"), "w") as handle:
        json.dump(payload, handle, indent=2)

    lines = [
        "BENCH: experiment matrix "
        f"({len(BENCH_WORKLOADS)}×{len(BENCH_STRATEGIES)} cells + profiling)",
        f"{'path':<28} {'wall s':>10} {'speedup':>9}",
        f"{'serial uncached':<28} {serial_s:>10.3f} {'1.00x':>9}",
        f"{'parallel jobs=' + str(JOBS):<28} {parallel_s:>10.3f} "
        f"{serial_s / parallel_s:>8.2f}x",
        f"{'disk cache (2nd run)':<28} {cached_s:>10.4f} "
        f"{serial_s / cached_s:>8.1f}x",
    ]
    save_result("BENCH_matrix", "\n".join(lines))

    # Acceptance gate: the cached (or parallel, on multi-core hosts)
    # path must at least halve the wall time.  Timing gates are skipped
    # under REPRO_BENCH_SMOKE so CI smoke runs fail on correctness only.
    if not os.environ.get("REPRO_BENCH_SMOKE"):
        assert max(serial_s / parallel_s, serial_s / cached_s) >= 2.0


def test_scheduler_modes_speed(tmp_path_factory):
    """BENCH: the sharded work-stealing scheduler and its overhead.

    A straggler-heavy sweep — profiling cells cost more than production
    cells, three seeds across two worker slots.  The sharded scheduler's
    per-cell DAG overlaps profile-free cells (and earlier seeds' POLM2
    cells) with the straggling profiling work, so some production cell
    lands while profiling cells are still in flight.  Also measures pure
    scheduler overhead as the wall time per cell of a fully-cached
    ``jobs=1`` sweep.  Merged into ``BENCH_matrix.json``.
    """
    profiling_ms = 2 * float(os.environ.get("REPRO_PROFILE_MS", 4_000))
    production_ms = float(os.environ.get("REPRO_PRODUCTION_MS", 8_000)) / 4
    spec = SweepSpec(
        workloads=(BENCH_WORKLOADS[0],),
        strategies=BENCH_STRATEGIES,
        seeds=(0, 1, 2),
    )
    expected_cells = spec.size + len(spec.seeds)  # + one profiling/seed

    def timed_sweep(jobs=JOBS, backend=None):
        start = time.perf_counter()
        keys = [
            item.key
            for item in run_sweep(
                spec,
                profiling_ms=profiling_ms,
                production_ms=production_ms,
                jobs=jobs,
                backend=backend,
            )
        ]
        return time.perf_counter() - start, keys

    def barrier_respected(keys) -> bool:
        """True when every profiling cell landed before every production cell."""
        flags = [key.is_profiling for key in keys]
        return True not in flags[flags.index(False) :]

    sharded_s, sharded_keys = timed_sweep()
    assert len(sharded_keys) == expected_cells
    # The sharded DAG has no global profiling barrier: some production
    # cell lands while profiling cells are still in flight.
    assert not barrier_respected(sharded_keys)
    sharded_cps = len(sharded_keys) / sharded_s

    # Scheduler overhead: a fully-cached sweep does no simulation work,
    # so its wall time per cell is pure scheduling + cache decode.
    cache_root = str(tmp_path_factory.mktemp("sched_cache"))
    backend = SqliteCacheBackend(
        os.path.join(cache_root, "sweep.db"),
        sweep_cache_key(SimConfig(), profiling_ms, production_ms),
    )
    timed_sweep(jobs=1, backend=backend)  # warm the cache
    cached_s, cached_keys = timed_sweep(jobs=1, backend=backend)
    overhead_per_cell_ms = 1000.0 * cached_s / len(cached_keys)

    result_path = os.path.join(RESULTS_DIR, "BENCH_matrix.json")
    payload = {}
    if os.path.exists(result_path):
        with open(result_path) as handle:
            payload = json.load(handle)
    payload["scheduler"] = {
        "cells": expected_cells,
        "seeds": list(spec.seeds),
        "jobs": JOBS,
        "profiling_ms": profiling_ms,
        "production_ms": production_ms,
        "sharded_s": round(sharded_s, 4),
        "sharded_cells_per_sec": round(sharded_cps, 3),
        "overhead_per_cell_ms": round(overhead_per_cell_ms, 3),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(result_path, "w") as handle:
        json.dump(payload, handle, indent=2)

    lines = [
        "BENCH: sweep scheduler — sharded work-stealing "
        f"({expected_cells} cells, jobs={JOBS}, straggler-heavy profiling)",
        f"{'scheduler':<28} {'wall s':>10} {'cells/s':>9}",
        f"{'sharded (per-cell DAG)':<28} {sharded_s:>10.3f} {sharded_cps:>9.2f}",
        f"scheduler overhead (fully cached): {overhead_per_cell_ms:.3f} ms/cell",
    ]
    save_result("BENCH_matrix_scheduler", "\n".join(lines))
