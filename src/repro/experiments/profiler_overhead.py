"""Profiler overhead comparison (the paper's §6.1 argument, quantified).

Runs the same workload three ways for a fixed amount of *work* (ticks):

* unprofiled (NG2C, no agents) — the baseline;
* POLM2's profiling phase (Recorder + incremental CRIU Dumper);
* exact lifetime tracing (Merlin / Elephant Tracks style).

The overhead factor is the ratio of virtual elapsed time to the baseline
for the same tick count.  Related work reports Merlin at up to 300x and
Resurrector at 3-40x; POLM2's design goal is an overhead low enough that
the profiling phase can run against realistic load.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.exact_tracer import ExactLifetimeTracer
from repro.core.pipeline import drive
from repro.core.recorder import Recorder
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.workloads import make_workload


@dataclasses.dataclass
class OverheadResult:
    """Virtual elapsed time per profiling strategy for identical work."""

    workload: str
    ticks: int
    baseline_ms: float
    polm2_ms: float
    exact_ms: float

    @property
    def polm2_overhead(self) -> float:
        return self.polm2_ms / self.baseline_ms

    @property
    def exact_overhead(self) -> float:
        return self.exact_ms / self.baseline_ms

    def render(self) -> str:
        lines = [
            f"Profiler overhead, {self.workload}, {self.ticks} ticks of work",
            f"  unprofiled:          {self.baseline_ms:10.1f} virtual ms (1.00x)",
            f"  POLM2 (Recorder+CRIU): {self.polm2_ms:8.1f} virtual ms "
            f"({self.polm2_overhead:.2f}x)",
            f"  exact tracer (Merlin-style): {self.exact_ms:.1f} virtual ms "
            f"({self.exact_overhead:.2f}x)",
            "  (related work: Merlin up to 300x, Resurrector 3-40x)",
        ]
        return "\n".join(lines)


def _run(workload_name: str, seed: int, ticks: int, profiler: str) -> float:
    workload = make_workload(workload_name, seed=seed)
    collector = NG2CCollector()
    vm = VM(SimConfig(seed=seed), collector=collector)
    if profiler == "polm2":
        vm.attach_agent(Recorder())
        vm.attach_agent(Dumper(lambda snapshot: None))
    elif profiler == "exact":
        vm.attach_agent(ExactLifetimeTracer())
    # ``stop`` runs once before each tick: the (ticks + 1)-th call ends
    # the run after exactly ``ticks`` ticks.
    calls = itertools.count()
    drive(vm, workload, math.inf, stop=lambda: next(calls) >= ticks)
    return vm.clock.now_ms


def run(
    workload: str = "cassandra-wi",
    ticks: int = 1500,
    seed: int = 42,
) -> OverheadResult:
    return OverheadResult(
        workload=workload,
        ticks=ticks,
        baseline_ms=_run(workload, seed, ticks, profiler="none"),
        polm2_ms=_run(workload, seed, ticks, profiler="polm2"),
        exact_ms=_run(workload, seed, ticks, profiler="exact"),
    )
