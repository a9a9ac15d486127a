#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of the POLM2 reproduction.

Five named workloads drive the system only through its public entry
points -- ``POLM2Pipeline.run_profiling_phase``, ``POLM2Pipeline.run``,
``ExperimentRunner.sweep``, ``ServeDaemon`` and
``profile_source(...).resolve()`` -- and check what they produce::

    python3 benchmarks/e2e/bench.py --workload cassandra-wi --seed 42 --seconds 20 --trace 0
    python3 benchmarks/e2e/bench.py                  # all five, one fresh process each
    python3 benchmarks/e2e/bench.py --trace 1 --out run.json

A run repeats its workload's unit of work until ``--seconds`` have
passed and reports medians over the repetitions.  Host times are
reported at a reference host speed: while a repetition runs, a fixed
pure-Python probe (no repro code) is timed on the main thread's CPU
clock every ``SAMPLE_PERIOD_S``, and the repetition's times, less the
probes' own, are multiplied by the mean of ``PROBE_REFERENCE_S`` over
each probe's time.  A neighbour slowing the shared machine moves probe
and workload alike and cancels out.  ``--out`` also keeps the unscaled
``raw_wall_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics.  ``--out FILE`` writes every metric, the output
digest and the per-repetition times as JSON, the input of
``compare.py``.  Traced runs write their spans to
``benchmarks/results/trace_<workload>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import http.client
import importlib.util
import itertools
import json
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.parse
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ("cassandra-wi", "lucene", "graphchi-pr-g1-x10", "matrix", "serve")

#: Fresh subprocesses whose median is ``setup_s``.
SETUP_RUNS = 5
#: Repetitions a run makes at least, whatever ``--seconds`` says.  Traced
#: runs alternate untraced and traced repetitions, at least this many each.
MIN_REPS = 3
MIN_TRACED_REPS = 2

#: The host-speed probe: a fixed lookup kernel of ``PROBE_STEPS`` steps,
#: run every ``SAMPLE_PERIOD_S`` of wall time while a repetition runs
#: (every ``SETUP_SAMPLE_PERIOD_S`` while a set-up runs).
#: ``PROBE_REFERENCE_S`` is its CPU time on a quiet 2-core Xeon VM, so
#: scaled times read as seconds on that host.
PROBE_REFERENCE_S = 0.00026
PROBE_STEPS = 2_000
SAMPLE_PERIOD_S = 0.02
SETUP_SAMPLE_PERIOD_S = 0.005

# Sizes in virtual milliseconds.  A unit takes 1-1.5 s on a quiet host,
# so a 20 s run holds about a dozen repetitions; profiling windows are
# long enough that every profile places allocation sites.
PIPELINE_MS = {"cassandra-wi": (1_000.0, 2_000.0), "lucene": (800.0, 1_600.0)}
GRAPHCHI_MS = 10_000.0
GRAPHCHI_OBJECT_SCALE = 10
MATRIX_WORKLOADS = ("cassandra-wr", "lucene")
MATRIX_STRATEGIES = ("g1", "polm2")
#: Seeds of the pool sweep; the in-process sweeps run the first one.
MATRIX_POOL_SEEDS = 2
MATRIX_MS = (800.0, 300.0)
#: A 3 MiB young generation collects often enough that a short profiling
#: cell still places sites.
MATRIX_HEAP = "tight-young"
MATRIX_JOBS = 2
SERVE_WORKLOAD = "cassandra-wi"
SERVE_INSTANCES = 2
SERVE_CYCLE_MS = 1_500.0
SERVE_HEAP = (16 << 20, 2 << 20)
SERVE_RATE = 25.0  # requests/s, open loop
#: Requests sent with each round, from its start: a fixed count, so the
#: request work inside a round does not grow when a slow host makes the
#: round longer.
SERVE_ROUND_REQUESTS = 20
SERVE_GETS_PER_POST = 9
SERVE_IDLE_GETS = 20
SERVE_KEEPALIVE_GETS = 10
SERVE_TAIL_S = 1.5  # kept back from --seconds for the idle tail

#: Units of host time, which the probe scales, and of counts, which must
#: repeat exactly.
TIME_UNITS = ("s", "ms", "ns", "ms/sim_ms")
EXACT_UNITS = ("count", "B")


def import_repro() -> None:
    """Import the package from the checkout's ``src/`` (no install needed)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def load_trace_module():
    """``trace.py`` under its own module name, leaving stdlib ``trace`` alone."""
    module = sys.modules.get("e2e_trace")
    if module is None:
        spec = importlib.util.spec_from_file_location("e2e_trace", HERE / "trace.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["e2e_trace"] = module
        spec.loader.exec_module(module)
    return module


def load_spec() -> Dict:
    with open(SPEC) as handle:
        return json.load(handle)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def scratch_dir() -> str:
    """A temporary directory inside the checkout (runs write nowhere else)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="e2e-", dir=RESULTS)


# -- host speed -----------------------------------------------------------------


_PROBE_TABLE = {i: 3 * i for i in range(64)}
_PROBE_LIST = list(range(64))


def _probe_kernel(steps: int) -> int:
    """Dict and list lookups and integer arithmetic over 64 entries.

    It allocates no container, so it never moves the measured code's
    garbage-collection schedule, and its data is small enough that the
    measured code's footprint does not change its time.  Of the kernels
    tried it slowed most nearly as the workloads do on a busy host: an
    allocation-heavy kernel slowed faster than lucene.
    """
    acc = 0
    for i in range(steps):
        j = (i * 2654435761) & 63
        acc += _PROBE_TABLE[j] + _PROBE_LIST[j]
    return acc


class HostSampler:
    """Samples the host's speed while the measured code runs.

    Inside ``with sampler:`` a ``SIGALRM`` interval timer runs the probe
    on the main thread, between the measured code's bytecodes, every
    ``period`` seconds of wall time.  Each probe is timed on the thread's
    CPU clock, so time the main thread waits (for the interpreter lock
    held by a request handler, or for another process's turn on the CPU)
    does not count as a slow host.  :meth:`clock` is the wall clock less
    the probes' own wall time, and :meth:`scale` brings a time measured
    on it to the reference speed.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.probes: List[float] = []
        self._probe_wall = 0.0
        self._saved_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self._probe_wall

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = time.perf_counter()
        c0 = time.thread_time()
        _probe_kernel(PROBE_STEPS)
        self.probes.append(time.thread_time() - c0)
        self._probe_wall += time.perf_counter() - t0

    def __enter__(self) -> "HostSampler":
        self.probes = []
        self._saved_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        if not self.probes:
            self._sample()

    def scale(self) -> float:
        """Reference over measured speed, averaged over the sampled time."""
        return statistics.fmean(PROBE_REFERENCE_S / p for p in self.probes)

    def probe_s(self) -> float:
        return statistics.median(self.probes)


#: One sampler for the process, as a process has one ``SIGALRM`` handler.
SAMPLER = HostSampler(SAMPLE_PERIOD_S)


def at_reference(value: float, unit: str, scale: float) -> float:
    """A value measured at ``scale`` = reference / probe time, at the
    reference speed (unchanged unless it is a host time)."""
    return value * scale if unit in TIME_UNITS else value


# -- one repetition -------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    """What one repetition of a workload's unit measured and produced."""

    wall_s: float = 0.0
    #: Median host-speed probe seconds during this repetition, and the
    #: factor that brings its host times to the reference speed.
    probe_s: float = PROBE_REFERENCE_S
    scale: float = 1.0
    #: Host-time stage metrics (profile_s, cycle_s, ...) as measured.
    stages: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Host-time metrics the probe does not describe (work spread over
    #: processes on every CPU): reported as measured.
    unscaled: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Simulated outputs: deterministic, identical in every repetition.
    sim: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Counts read from the program's own results (sites, cells, ...).
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    digest: str = ""
    ops: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    traced: bool = False
    #: Traced repetitions only: per-layer metrics and the tracer's dump.
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    spans: Dict[str, object] = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, problem: str, ops: int = 1) -> None:
        if not ok:
            self.failed += ops
            self.problems.append(problem)

    @contextlib.contextmanager
    def timed(self):
        """Add the enclosed block's wall time, less probes, to this repetition."""
        t0 = SAMPLER.clock()
        yield
        self.wall_s += SAMPLER.clock() - t0


def region(tracer, name: str):
    return tracer.region(name) if tracer is not None else contextlib.nullcontext()


def repeat(
    seconds: float,
    trace: bool,
    rep_fn: Callable[[object], Rep],
    register: Callable[[object], None],
    new_tracer: Optional[Callable[[], object]],
) -> List[Rep]:
    """Run repetitions until the next one would end after ``seconds``.

    The host's speed is sampled while each repetition runs, and scales
    its host times.  Traced runs alternate an untraced and a traced
    repetition, so both see the same machine and their difference is the
    tracing overhead.
    """
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        tracer = None
        if trace and len(reps) % 2 == 1:
            tracer = new_tracer()
            register(tracer)
        gc.collect()
        if tracer is not None:
            with SAMPLER, tracer:
                rep = rep_fn(tracer)
            # Fold the tracer now: it holds every heap the repetition built.
            rep.traced = True
            rep.layers = layer_values(tracer, rep.wall_s)
            rep.spans = tracer.dump()
            tracer = None
        else:
            with SAMPLER:
                rep = rep_fn(None)
        rep.probe_s = SAMPLER.probe_s()
        rep.scale = SAMPLER.scale()
        reps.append(rep)
        traced = sum(1 for r in reps if r.traced)
        if trace:
            if min(traced, len(reps) - traced) < MIN_TRACED_REPS:
                continue
        elif len(reps) < MIN_REPS:
            continue
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return reps


def phase_sim(result) -> Dict[str, float]:
    pauses = result.pause_durations_ms()
    return {
        "sim_pause_total_ms": sum(pauses),
        "sim_pauses": len(pauses),
        "sim_throughput_ops_s": result.throughput_ops_s,
        "sim_peak_heap_mib": result.peak_memory_bytes / 2**20,
    }


def phase_digest(result) -> Dict:
    return {
        "pauses": [(p.start_ms, p.duration_ms, p.kind) for p in result.pauses],
        "ops": result.ops_completed,
        "peak": result.peak_memory_bytes,
        "timeline": result.throughput_timeline,
    }


# -- layers: what the tracer wraps ---------------------------------------------


def register_sim_layers(tracer) -> None:
    """Wrap the simulator layers: workloads, runtime, heap, gc, recorder,
    snapshot and analysis."""
    from repro.core.dumper import Dumper
    from repro.core.recorder import Recorder
    from repro.core.stages import IncrementalAnalyzer, ProfileBuilder
    from repro.gc.base import GenerationalCollector
    from repro.gc.g1 import G1Collector
    from repro.gc.ng2c import NG2CCollector
    from repro.heap.heap import SimHeap
    from repro.runtime.vm import VM
    from repro.workloads.cassandra.workload import CassandraWorkload
    from repro.workloads.graphchi.workload import GraphChiWorkload
    from repro.workloads.lucene.workload import LuceneWorkload

    for cls in (CassandraWorkload, LuceneWorkload, GraphChiWorkload):
        tracer.counter(cls, "tick", "workloads.tick")
        # Construction builds the inputs (graphchi's graph), set-up loads them.
        tracer.counter(cls, "__init__", "workloads.setup")
        tracer.counter(cls, "setup", "workloads.setup")
    tracer.counter(VM, "allocate_at_site", "runtime.alloc_scalar")
    tracer.counter(
        VM,
        "allocate_batch",
        "runtime.alloc_batch",
        amount=lambda args, kwargs: len(kwargs["sizes"] if "sizes" in kwargs else args[3]),
    )
    tracer.counter(SimHeap, "allocate", "heap.allocate")
    tracer.counter(SimHeap, "allocate_batch", "heap.allocate_batch")
    tracer.counter(SimHeap, "write_ref", "heap.write_ref")
    tracer.instances(SimHeap, "heap")
    tracer.instances(GenerationalCollector, "collector")
    for cls in (G1Collector, NG2CCollector):
        tracer.span(cls, "collect_young", "gc.young")
        tracer.span(cls, "full_collect", "gc.full")
    tracer.span(G1Collector, "collect_mixed", "gc.old")
    tracer.span(NG2CCollector, "collect_generations", "gc.old")
    tracer.counter(Recorder, "on_allocation", "recorder.alloc_hook")
    tracer.counter(Recorder, "on_allocation_batch", "recorder.alloc_batch_hook")
    tracer.counter(Recorder, "on_gc_end", "recorder.gc_end")
    tracer.span(Dumper, "take_snapshot", "snapshot")
    tracer.counter(IncrementalAnalyzer, "on_snapshot", "analysis.on_snapshot")
    tracer.span(IncrementalAnalyzer, "finish", "analysis.finish")
    tracer.span(ProfileBuilder, "build", "analysis.build")


def register_matrix_layers(tracer) -> None:
    """Parent-side only: the cells run in pool workers, whose spans are lost."""
    from repro.experiments.matrix import SqliteCacheBackend

    tracer.counter(SqliteCacheBackend, "load", "matrix.cache_load")
    tracer.counter(SqliteCacheBackend, "store", "matrix.cache_store")
    tracer.counter(SqliteCacheBackend, "flush", "matrix.cache_store")


def register_serve_layers(tracer) -> None:
    from repro.core.profilestore import ProfileStore
    from repro.core.sttree import STTree
    from repro.serve.api import _ProfileRequestHandler
    from repro.serve.cycle import ProfilingCycleEngine

    register_sim_layers(tracer)
    tracer.span(ProfilingCycleEngine, "run_cycle", "serve.cycle")
    tracer.span(STTree, "merge", "serve.merge")
    tracer.span(ProfileStore, "put", "serve.store_put")
    # The request handler is the only seam at the HTTP boundary: the
    # service holds the daemon's bound submit_recording from before any
    # wrapper is installed, so a POST is timed at do_POST.
    tracer.span(_ProfileRequestHandler, "do_GET", "http.get")
    tracer.span(_ProfileRequestHandler, "do_POST", "serve.submit")


#: Regions the benchmark opens around the timed calls into an entry
#: point; their self time is the entry point's own code (VM construction,
#: class loading, the drive loop, the sweep scheduler, the round loop).
ROOT_REGIONS = ("phase.profile", "phase.production", "sweep.cold", "sweep.warm", "round")

#: (wrapped name, reported fields) of every per-layer time and call count.
LAYER_FIELDS = (
    ("workloads.tick", ("calls", "self_s")),
    ("workloads.setup", ("busy_s",)),
    ("runtime.alloc_scalar", ("calls", "self_s")),
    ("runtime.alloc_batch", ("calls", "self_s")),
    ("heap.allocate", ("calls", "self_s")),
    ("heap.allocate_batch", ("calls", "self_s")),
    ("heap.write_ref", ("calls", "self_s")),
    ("gc.young", ("calls", "busy_s", "self_s")),
    ("gc.old", ("calls", "busy_s", "self_s")),
    ("gc.full", ("calls",)),
    ("recorder.alloc_hook", ("calls", "self_s")),
    ("recorder.alloc_batch_hook", ("calls", "self_s")),
    ("recorder.gc_end", ("calls", "self_s")),
    ("snapshot", ("self_s",)),
    ("analysis.on_snapshot", ("self_s",)),
    ("analysis.finish", ("busy_s",)),
    ("analysis.build", ("busy_s",)),
    ("matrix.cache_store", ("busy_s",)),
    ("matrix.cache_load", ("busy_s",)),
    ("serve.cycle", ("busy_s",)),
    ("serve.merge", ("busy_s",)),
    ("serve.store_put", ("busy_s",)),
    ("serve.submit", ("busy_s",)),
)


def layer_values(tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (unscaled host times)."""
    totals = tracer.totals()

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    values = {
        f"{name}.{field}": get(name, field)
        for name, fields in LAYER_FIELDS
        for field in fields
    }
    values["runtime.alloc_batch.objects"] = get("runtime.alloc_batch", "amount")
    values["snapshot.taken"] = get("snapshot", "calls")
    heaps = tracer.instances_of("heap")
    values["heap.objects_allocated"] = sum(h.total_allocated_objects for h in heaps)
    values["heap.bytes_allocated"] = sum(h.total_allocated_bytes for h in heaps)
    sim_pause_ms = sum(c.pause_log.total_pause_ms for c in tracer.instances_of("collector"))
    gc_host_ms = 1000.0 * sum(get(n, "busy_s") for n in ("gc.young", "gc.old", "gc.full"))
    values["gc.host_ms_per_sim_pause_ms"] = gc_host_ms / sim_pause_ms if sim_pause_ms else 0.0
    values["pipeline.self_s"] = sum(get(name, "self_s") for name in ROOT_REGIONS)
    # The share of the traced wall time the wrapped layers claim.
    values["trace.coverage_pct"] = 100.0 * (1.0 - values["pipeline.self_s"] / wall_s)
    return values


# -- the workloads --------------------------------------------------------------


class Workload:
    """A named workload: its set-up, and one repetition of measured work."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self):
        """The set-up ``setup_s`` times: the objects a user builds first."""
        raise NotImplementedError

    def close(self, built) -> None:
        pass

    def register_layers(self, tracer) -> None:
        register_sim_layers(tracer)

    def rep(self, built, tracer) -> Rep:
        raise NotImplementedError

    def run(self, seconds: float, trace: bool, new_tracer) -> List[Rep]:
        built = self.build()
        try:
            return repeat(
                seconds,
                trace,
                lambda tracer: self.rep(built, tracer),
                self.register_layers,
                new_tracer,
            )
        finally:
            self.close(built)


class PipelineWorkload(Workload):
    """Profiling phase, then production phase under POLM2, object scale 1."""

    def __init__(self, name: str, seed: int) -> None:
        super().__init__(seed)
        self.name = name
        self.profile_ms, self.production_ms = PIPELINE_MS[name]

    def build(self):
        from repro import POLM2Pipeline, SimConfig, make_workload

        name, seed = self.name, self.seed
        pipeline = POLM2Pipeline(
            lambda: make_workload(name, seed=seed), config=SimConfig(seed=seed)
        )
        pipeline.workload_factory()
        return pipeline

    def rep(self, pipeline, tracer) -> Rep:
        rep = Rep(ops=2)
        with rep.timed(), region(tracer, "phase.profile"):
            profile = pipeline.run_profiling_phase(duration_ms=self.profile_ms)
        profile_s = rep.wall_s
        with rep.timed(), region(tracer, "phase.production"):
            result = pipeline.run("polm2", duration_ms=self.production_ms, profile=profile)
        rep.stages = {"profile_s": profile_s, "production_s": rep.wall_s - profile_s}
        rep.sim = phase_sim(result)
        rep.counts = {
            "analysis.sites": profile.instrumented_site_count,
            "analysis.conflicts": profile.conflicts_detected,
        }
        rep.check(
            profile.instrumented_site_count >= 1,
            "production profile instruments no allocation site",
            ops=2,
        )
        rep.digest = digest_of(
            {"profile": profile.to_json(), "production": phase_digest(result)}
        )
        return rep


class GraphChiWorkload(Workload):
    """G1 baseline only, at object scale 10: the largest live set, no agents."""

    name = "graphchi-pr-g1-x10"

    def build(self):
        from repro import POLM2Pipeline, SimConfig, make_workload

        seed = self.seed
        pipeline = POLM2Pipeline(
            lambda: make_workload("graphchi-pr", seed=seed),
            config=SimConfig(seed=seed).scaled(GRAPHCHI_OBJECT_SCALE),
        )
        pipeline.workload_factory()
        return pipeline

    def rep(self, pipeline, tracer) -> Rep:
        rep = Rep(ops=1)
        with rep.timed(), region(tracer, "phase.production"):
            result = pipeline.run("g1", duration_ms=GRAPHCHI_MS * GRAPHCHI_OBJECT_SCALE)
        rep.stages = {"production_s": rep.wall_s}
        rep.sim = phase_sim(result)
        rep.check(result.ops_completed > 0, "production phase completed no ops")
        rep.digest = digest_of(phase_digest(result))
        return rep


class MatrixWorkload(Workload):
    """One cold sweep through the process pool, then repetitions of the
    same sweep in-process and a warm re-sweep of its cache.

    Only the in-process sweeps are timed into ``wall_s``: the pool's
    workers run on every CPU, where the host-speed probe cannot follow
    them, so the pool sweep runs once per run, before the repetitions,
    and its ``cells_per_s`` is reported unscaled and ungated.  Every
    in-process sweep must compute the pool's cells.
    """

    name = "matrix"

    def settings(self, directory: str, seeds: int):
        from repro.experiments.runner import ExperimentSettings

        return ExperimentSettings(
            profiling_ms=MATRIX_MS[0],
            production_ms=MATRIX_MS[1],
            seed=self.seed,
            seeds=tuple(range(self.seed, self.seed + seeds)),
            cache_backend=f"sqlite:///{directory}/sweep.db",
        )

    def build(self):
        from repro.experiments.runner import ExperimentRunner

        scratch = scratch_dir()
        return scratch, ExperimentRunner(self.settings(scratch, MATRIX_POOL_SEEDS))

    def close(self, built) -> None:
        shutil.rmtree(built[0], ignore_errors=True)

    def register_layers(self, tracer) -> None:
        register_sim_layers(tracer)
        register_matrix_layers(tracer)

    @staticmethod
    def sweep(runner, jobs: int) -> list:
        return list(
            runner.sweep(
                workloads=MATRIX_WORKLOADS,
                strategies=MATRIX_STRATEGIES,
                heap_configs=(MATRIX_HEAP,),
                jobs=jobs,
            )
        )

    @staticmethod
    def cells(items) -> Dict[str, Dict]:
        return {i.key.cell_id: i.result.to_dict() for i in items if not i.key.is_profiling}

    @staticmethod
    def check_sweep(rep: Rep, label: str, items, seeds: int) -> None:
        expected = len(MATRIX_WORKLOADS) * (len(MATRIX_STRATEGIES) + 1) * seeds
        computed = sum(1 for item in items if not item.cached)
        rep.check(
            computed == len(items) == expected,
            f"{label} sweep computed {computed}/{len(items)} cells, expected {expected}",
            ops=len(items),
        )
        rep.check(
            all(item.result.profile.instrumented_site_count >= 1
                for item in items if item.key.is_profiling),
            f"a {label} profiling cell instruments no allocation site",
        )

    def run(self, seconds: float, trace: bool, new_tracer) -> List[Rep]:
        start = time.perf_counter()
        built = self.build()
        try:
            t0 = time.perf_counter()
            pooled = self.sweep(built[1], MATRIX_JOBS)
            pool_s = time.perf_counter() - t0
            self.pool_cells = self.cells(pooled)
            reps = repeat(
                start + seconds - time.perf_counter(),
                trace,
                lambda tracer: self.rep(built, tracer),
                self.register_layers,
                new_tracer,
            )
        finally:
            self.close(built)
        # The pool sweep's checks and rate are booked on the first repetition.
        head = reps[0]
        head.ops += len(pooled)
        self.check_sweep(head, "pool", pooled, MATRIX_POOL_SEEDS)
        for rep in reps:
            rep.unscaled = {
                "cells_per_s": len(pooled) / pool_s,
                "matrix.first_result_s": pooled[0].progress.elapsed_s,
            }
        return reps

    def rep(self, built, tracer) -> Rep:
        from repro.experiments.runner import ExperimentRunner

        rep = Rep()
        directory = tempfile.mkdtemp(dir=built[0])
        try:
            runners = [ExperimentRunner(self.settings(directory, 1)) for _ in range(2)]
            with rep.timed(), region(tracer, "sweep.cold"):
                cold = self.sweep(runners[0], 1)
            cold_s = rep.wall_s
            with rep.timed(), region(tracer, "sweep.warm"):
                warm = self.sweep(runners[1], 1)
        finally:
            # Dropping the runners closes their sqlite connections.
            runners = None
            shutil.rmtree(directory, ignore_errors=True)
        rep.ops = len(cold) + len(warm)
        rep.stages = {"matrix.warm_s": rep.wall_s - cold_s}
        self.check_sweep(rep, "in-process", cold, 1)
        cells = self.cells(cold)
        cached = sum(1 for item in warm if item.cached)
        rep.check(
            cached == len(warm) == len(cells),
            f"warm sweep hit the cache for {cached}/{len(warm)} cells",
            ops=len(warm),
        )
        rep.check(self.cells(warm) == cells, "warm sweep returned other cells")
        rep.check(
            all(self.pool_cells.get(cell_id) == cell for cell_id, cell in cells.items()),
            "in-process and pool sweeps computed different cells",
        )
        profiles = [item.result.profile for item in cold if item.key.is_profiling]
        rep.counts = {
            "matrix.cells_computed": len(cold),
            "matrix.cells_cached": cached,
            "analysis.sites": sum(p.instrumented_site_count for p in profiles),
            "analysis.conflicts": sum(p.conflicts_detected for p in profiles),
        }
        # Sort the cells so float sums repeat exactly.
        results = [
            item.result
            for item in sorted(cold, key=lambda item: item.key.cell_id)
            if not item.key.is_profiling
        ]
        pauses = [d for r in results for d in r.pause_durations_ms()]
        virtual_s = sum(r.duration_ms for r in results) / 1000.0
        rep.sim = {
            "sim_pause_total_ms": sum(pauses),
            "sim_pauses": len(pauses),
            "sim_throughput_ops_s": sum(r.ops_completed for r in results) / virtual_s,
            "sim_peak_heap_mib": max(r.peak_memory_bytes for r in results) / 2**20,
        }
        rep.digest = digest_of({"pool": self.pool_cells, "in-process": cells})
        return rep


# -- serve: an open-loop client process against the daemon ----------------------


@dataclasses.dataclass
class Request:
    kind: str  # "get" or "post"
    #: ``time.monotonic()`` stamps, comparable across processes.
    due: float
    sent: float = 0.0
    done: float = 0.0
    error: str = ""
    #: The round the request was sent with, -1 for the idle tail.
    batch: int = -1

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


def open_loop(base_url: str, body: str, expected_hash: str, count: int,
              batch: int = -1) -> List[Request]:
    """Send ``count`` requests at ``SERVE_RATE``, each over a fresh
    connection.

    Requests are timed from when they were due, so a stall also counts
    against the requests queued behind it.  With a ``body`` every
    ``SERVE_GETS_PER_POST`` GETs through ``profile_source(url).resolve()``
    are followed by one POST /recordings of it.  Every GET must serve
    ``expected_hash`` and every POST must leave it the latest.
    """
    from repro.core.profilesource import profile_source
    from repro.core.profilestore import profile_content_hash

    get_url = f"{base_url}/profiles/{SERVE_WORKLOAD}/latest"
    requests: List[Request] = []
    start = time.monotonic()
    for index in range(count):
        due = start + index / SERVE_RATE
        time.sleep(max(0.0, due - time.monotonic()))
        is_post = bool(body) and index % (SERVE_GETS_PER_POST + 1) == SERVE_GETS_PER_POST
        request = Request("post" if is_post else "get", due, sent=time.monotonic(),
                          batch=batch)
        try:
            if is_post:
                post = urllib.request.Request(
                    f"{base_url}/recordings", data=body.encode(), method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(post, timeout=30) as response:
                    status, reply = response.status, json.loads(response.read())
                if status != 200 or reply.get("latest_hash") != expected_hash:
                    request.error = f"POST status {status}, reply {reply}"
            else:
                served = profile_content_hash(profile_source(get_url).resolve())
                if served != expected_hash:
                    request.error = f"GET served {served}, expected {expected_hash}"
        except Exception as exc:  # every failure is counted, none is fatal
            request.error = f"{type(exc).__name__}: {exc}"
        request.done = time.monotonic()
        requests.append(request)
    return requests


def keepalive_gets(base_url: str, count: int) -> List[Request]:
    """GETs back to back over one persistent ``http.client`` connection."""
    parsed = urllib.parse.urlsplit(base_url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
    requests: List[Request] = []
    try:
        for _ in range(count):
            request = Request("get", time.monotonic())
            conn.request("GET", f"/profiles/{SERVE_WORKLOAD}/latest")
            response = conn.getresponse()
            response.read()
            request.done = time.monotonic()
            if response.status != 200:
                request.error = f"keep-alive GET status {response.status}"
            requests.append(request)
    finally:
        conn.close()
    return requests


def client_main() -> None:
    """The load generator (``--client``), in its own process so it does
    not share the daemon's interpreter lock, as production VMs do not.

    It talks JSON lines over stdin and stdout.  The first line in holds
    the service URL, the POST body and the expected profile hash; it
    answers ``"ready"``.  For every round number read next it sends that
    round's ``SERVE_ROUND_REQUESTS``; ``null`` ends the rounds.  Then it
    runs the idle tail, ``SERVE_IDLE_GETS`` open-loop GETs and
    ``SERVE_KEEPALIVE_GETS`` keep-alive GETs, and writes every request back.
    """
    import_repro()

    def send(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    hello = json.loads(sys.stdin.readline())
    base_url, body, expected_hash = hello["url"], hello["body"], hello["hash"]
    send("ready")
    loaded: List[Request] = []
    for line in sys.stdin:
        batch = json.loads(line)
        if batch is None:
            break
        loaded += open_loop(base_url, body, expected_hash, SERVE_ROUND_REQUESTS, batch)
    quiet = open_loop(base_url, "", expected_hash, SERVE_IDLE_GETS)
    kept = keepalive_gets(base_url, SERVE_KEEPALIVE_GETS)
    send([[dataclasses.astuple(r) for r in part] for part in (loaded, quiet, kept)])


class Client:
    """The ``--client`` child process, seen from the benchmark.

    A plain subprocess, so the benchmark starts no helper process it
    cannot wait for; :meth:`stop` ends and reaps it on every path.
    """

    def __init__(self, hello: Dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--client"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.send(hello)

    def send(self, payload) -> None:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()

    def recv(self, timeout: float):
        """The client's next line, or an error after ``timeout`` seconds."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"the client process sent nothing for {timeout:.0f} s "
                               f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def stop(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                stream.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class ServeWorkload(Workload):
    """ServeDaemon rounds while a client process reads and writes profiles."""

    name = "serve"

    def build(self):
        from repro.serve import ServeConfig, ServeDaemon

        scratch = scratch_dir()
        daemon = ServeDaemon(
            ServeConfig(
                workloads=[SERVE_WORKLOAD],
                instances=SERVE_INSTANCES,
                seed=self.seed,
                sim_duration_ms=SERVE_CYCLE_MS,
                store_dir=scratch,
                heap_bytes=SERVE_HEAP[0],
                young_bytes=SERVE_HEAP[1],
            )
        )
        daemon.start_service()
        return scratch, daemon

    def close(self, built) -> None:
        scratch, daemon = built
        daemon.stop_service()
        shutil.rmtree(scratch, ignore_errors=True)

    def register_layers(self, tracer) -> None:
        register_serve_layers(tracer)

    @staticmethod
    def check_cycles(rep: Rep, reports, expected: List[Optional[str]]) -> None:
        for report in reports:
            rep.check(report.completed,
                      f"cycle {report.index} truncated after {report.truncated_after}")
        trees = [r.tree.digest() if r.tree is not None else None for r in reports]
        rep.check(trees == expected, f"cycle trees {trees} differ from {expected}")

    def run(self, seconds: float, trace: bool, new_tracer) -> List[Rep]:
        from repro.core.profilesource import profile_source

        start = time.perf_counter()
        built = self.build()
        daemon = built[1]
        client = None
        try:
            url = daemon.service.url
            warm = daemon.run_round()  # untimed: fills the store
            expected = [r.tree.digest() if r.tree is not None else None for r in warm]
            latest = daemon.store.latest_hash(SERVE_WORKLOAD)
            body = profile_source(f"{url}/profiles/{SERVE_WORKLOAD}/latest").resolve()
            client = Client({"url": url, "body": body.to_json(), "hash": latest})
            client.recv(120)
            batches = itertools.count()
            traced_batches: List[int] = []
            reps = repeat(
                start + seconds - SERVE_TAIL_S - time.perf_counter(),
                trace,
                lambda tracer: self.round(daemon, client, next(batches), tracer, expected,
                                          traced_batches),
                self.register_layers,
                new_tracer,
            )
            client.send(None)
            loaded, quiet, kept = ([Request(*row) for row in part] for part in client.recv(120))
        finally:
            if client is not None:
                client.stop()
            self.close(built)

        # Run-wide checks and latencies are booked on the first repetition.
        head = reps[0]
        head.ops += len(warm) + len(loaded) + len(quiet) + len(kept)
        self.check_cycles(head, warm, expected)
        for request in loaded + quiet + kept:
            head.check(not request.error, f"{request.kind}: {request.error}")
        # Requests sent with a traced round are checked but not timed.
        under = [r for r in loaded if r.batch not in traced_batches]
        gets = [r.latency_ms for r in under if r.kind == "get"]
        latencies = {
            "get_p50_ms": median(gets),
            "get_p90_ms": percentile(gets, 90),
            "post_p50_ms": median([r.latency_ms for r in under if r.kind == "post"]),
            "serve.get_idle_p50_ms": median([r.latency_ms for r in quiet]),
            "serve.get_keepalive_p50_ms": median([r.latency_ms for r in kept]),
            "serve.client_late_p95_ms": percentile(
                [(r.sent - r.due) * 1000.0 for r in loaded], 95
            ),
        }
        for rep in reps:
            rep.stages.update(latencies)
            rep.counts["get_samples"] = len(gets)
        return reps

    def round(self, daemon, client, batch, tracer, expected, traced_batches) -> Rep:
        from repro.core.profilestore import profile_content_hash

        rep = Rep()
        client.send(batch)  # the client sends this round's requests from now on
        with rep.timed(), region(tracer, "round"):
            reports = daemon.run_round()
        if tracer is not None:
            traced_batches.append(batch)
        rep.ops = len(reports)
        self.check_cycles(rep, reports, expected)
        latest = daemon.store.load_latest(SERVE_WORKLOAD)
        rep.check(latest.instrumented_site_count >= 1,
                  "served profile instruments no allocation site")
        rep.stages = {"cycle_s": median([r.elapsed_s for r in reports])}
        rep.counts = {
            "serve.cycles_truncated": sum(r.truncated for r in reports),
            "analysis.sites": latest.instrumented_site_count,
            "analysis.conflicts": latest.conflicts_detected,
        }
        rep.digest = digest_of({"latest": profile_content_hash(latest), "cycles": expected})
        return rep


def make(name: str, seed: int) -> Workload:
    if name in PIPELINE_MS:
        return PipelineWorkload(name, seed)
    return {
        "graphchi-pr-g1-x10": GraphChiWorkload,
        "matrix": MatrixWorkload,
        "serve": ServeWorkload,
    }[name](seed)


# -- a whole run ----------------------------------------------------------------


def measure_setup(name: str, seed: int) -> List[float]:
    """``SETUP_RUNS`` fresh processes that import repro and build the
    workload; each returns its set-up time at the reference speed."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def setup_probe(name: str, seed: int) -> None:
    with HostSampler(SETUP_SAMPLE_PERIOD_S) as sampler:
        t0 = sampler.clock()
        import_repro()
        workload = make(name, seed)
        built = workload.build()
        elapsed = sampler.clock() - t0
    workload.close(built)
    print(json.dumps({"setup_s": elapsed * sampler.scale(), "raw_setup_s": elapsed}))


def summarize(name: str, seed: int, reps: List[Rep], trace: bool,
              setup: List[float], wrapper_ns: float, spec: Dict) -> Dict:
    """Fold the repetitions into metrics, correctness and failure counts."""
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]
    first = reps[0]
    for index, rep in enumerate(reps[1:], start=1):
        if rep.sim != first.sim or rep.digest != first.digest:
            failed += rep.ops
            problems.append(f"repetition {index} simulated other outputs than repetition 0")

    def scaled(rep: Rep, values: Dict[str, float]) -> Dict[str, float]:
        return {k: at_reference(v, units[k], rep.scale) for k, v in values.items()}

    host = [scaled(r, {"wall_s": r.wall_s, **r.stages}) for r in untraced]
    metrics: Dict[str, float] = {key: median([h[key] for h in host]) for key in host[0]}
    for key in untraced[0].unscaled:
        metrics[key] = median([r.unscaled[key] for r in untraced])
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if setup:
        metrics["setup_s"] = median(setup)
    metrics.update(first.sim)
    metrics.update(first.counts)
    metrics["raw_wall_s"] = median([r.wall_s for r in untraced])
    metrics["host.probe_ms"] = 1000.0 * median([r.probe_s for r in reps])

    if traced:
        layers = [scaled(r, r.layers) for r in traced]
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            if units[key] in EXACT_UNITS and len(set(values)) != 1:
                failed += 1
                problems.append(f"per-layer count {key} differs across traced "
                                f"repetitions: {values}")
            metrics[key] = median(values)
        traced_wall = median([r.wall_s * r.scale for r in traced])
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / metrics["wall_s"] - 1.0)
        metrics["trace.wrapper_ns"] = wrapper_ns * median([r.scale for r in reps])
        write_trace_file(name, seed, traced, wrapper_ns)

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0 and not problems,
        "attempted": sum(r.ops for r in reps),
        "failed": failed,
        "problems": problems[:20],
        "output_digest": digest_of({"digest": first.digest, "sim": first.sim}),
        "metrics": metrics,
        "reps": [
            {"wall_s": r.wall_s, "probe_s": r.probe_s, "traced": r.traced}
            for r in reps
        ],
    }


def write_trace_file(name: str, seed: int, traced: List[Rep], wrapper_ns: float) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": name,
        "seed": seed,
        "wrapper_ns": wrapper_ns,
        "repetitions": [dict(r.spans, wall_s=r.wall_s, probe_s=r.probe_s) for r in traced],
    }
    with open(RESULTS / f"trace_{name}.json", "w") as handle:
        json.dump(payload, handle)


def contract_line(result: Dict, spec: Dict, trace: bool) -> Dict:
    """The last stdout line: exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            e["name"]: {"value": result["metrics"].get(e["name"], 0), "unit": e["unit"]}
            for e in wanted
        },
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: Dict) -> Dict:
    """One workload in this process: set-up probes, then the measured run."""
    tracing = load_trace_module() if trace else None
    setup = [] if trace else measure_setup(name, seed)
    wrapper_ns = tracing.calibrate_wrapper_ns() if trace else 0.0
    reps = make(name, seed).run(
        seconds, trace, (lambda: tracing.Tracer(wrapper_ns)) if trace else None
    )
    return summarize(name, seed, reps, trace, setup, wrapper_ns, spec)


def run_many(names: List[str], args: argparse.Namespace, spec: Dict) -> int:
    """Each workload in its own fresh process; prints a summary per workload."""
    results = []
    for name in names:
        scratch = scratch_dir()
        out_path = str(Path(scratch) / "result.json")
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name,
                 "--seed", str(args.seed), "--seconds", repr(args.seconds),
                 "--trace", str(args.trace), "--out", out_path],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
            with open(out_path) as handle:
                results.append(json.load(handle))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    lines = [contract_line(result, spec, bool(args.trace)) for result in results]
    for result, line in zip(results, lines):
        print(f"== {result['workload']} (seed {result['seed']}): "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={result['output_digest'][:16]}")
        for metric, entry in line["metrics"].items():
            print(f"   {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
        for problem in result["problems"]:
            print(f"   PROBLEM: {problem}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"runs": results}, handle, indent=1)
    print(json.dumps({
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {
            f"{result['workload']}.{metric}": entry
            for result, line in zip(results, lines)
            for metric, entry in line["metrics"].items()
        },
    }))
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", dest="workloads", action="append",
                        help="workload name(s), repeatable or comma-separated "
                             f"(default: all of {', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=42,
                        help="input seed (default 42; 7 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", help="write every metric of the run(s) as JSON")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--client", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = []
    for raw in args.workloads or [",".join(WORKLOADS)]:
        names.extend(n.strip() for n in raw.split(",") if n.strip())
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    args.workloads = names
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.client:
        client_main()
        return 0
    if args.setup_probe:
        setup_probe(args.workloads[0], args.seed)
        return 0
    import_repro()  # fail before measuring anything when the sources are missing
    spec = load_spec()
    if len(args.workloads) > 1:
        return run_many(args.workloads, args, spec)
    result = run_one(args.workloads[0], args.seed, args.seconds, bool(args.trace), spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"output_digest {result['output_digest']}")
    print(json.dumps(contract_line(result, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
