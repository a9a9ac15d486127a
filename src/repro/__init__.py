"""POLM2 reproduction: automatic profiling for object lifetime-aware memory management.

This package reproduces the system described in:

    Rodrigo Bruno and Paulo Ferreira.
    "POLM2: Automatic Profiling for Object Lifetime-Aware Memory Management
    for HotSpot Big Data Applications".  Middleware '17.

Because CPython has no generational, pretenuring garbage collector, the
reproduction is built on a simulated managed runtime: a region-based heap
(:mod:`repro.heap`), a method-level code model with load-time agents
(:mod:`repro.runtime`), stop-the-world copying collectors — a G1-like
baseline and the NG2C pretenuring collector (:mod:`repro.gc`) — and a
CRIU-like incremental snapshot engine (:mod:`repro.snapshot`).

POLM2 itself lives in :mod:`repro.core`: the Recorder, Dumper, the
streaming analyzer (bucket survival estimation, run by
:class:`~repro.core.stages.ProfileBuilder`, plus the STTree
conflict-resolution algorithm), and the Instrumenter, orchestrated by
:class:`repro.core.pipeline.POLM2Pipeline`.

Quickstart::

    from repro import POLM2Pipeline, make_workload

    pipeline = POLM2Pipeline(workload_factory=lambda: make_workload("cassandra-wi"))
    profile = pipeline.run_profiling_phase(duration_ms=30_000)
    result = pipeline.run_production_phase(profile, duration_ms=60_000)
    print(result.pause_report())
"""

from repro.config import SimConfig
from repro.core.instrumenter import Instrumenter
from repro.core.pipeline import POLM2Pipeline, PhaseResult
from repro.core.profile import AllocationProfile
from repro.core.profilesource import ProfileSource, profile_source, resolve_profile
from repro.core.profilestore import ProfileStore
from repro.core.recorder import Recorder
from repro.core.stages import IncrementalAnalyzer, ProfileBuilder
from repro.core.sttree import STTree
from repro.errors import ReproError
from repro.gc.c4 import C4Collector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.runtime.events import VMAgent
from repro.runtime.vm import VM
from repro.strategies import (
    StrategySpec,
    get_strategy,
    register_strategy,
    strategy_names,
)
from repro.workloads import make_workload, WORKLOAD_NAMES

__version__ = "1.0.0"

__all__ = [
    "AllocationProfile",
    "C4Collector",
    "G1Collector",
    "IncrementalAnalyzer",
    "Instrumenter",
    "NG2CCollector",
    "PhaseResult",
    "POLM2Pipeline",
    "ProfileBuilder",
    "ProfileSource",
    "ProfileStore",
    "Recorder",
    "ReproError",
    "STTree",
    "SimConfig",
    "StrategySpec",
    "VM",
    "VMAgent",
    "WORKLOAD_NAMES",
    "get_strategy",
    "make_workload",
    "profile_source",
    "register_strategy",
    "resolve_profile",
    "strategy_names",
    "__version__",
]
