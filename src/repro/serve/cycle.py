"""Fixed-budget profiling cycles: the daemon's inner loop.

gprofiler's timing analysis documents the failure mode this module is
designed against: each snapshot cycle runs its profilers for exactly the
configured duration, but merging and shipping happen *after* the window,
so the real cycle overruns its nominal length and — with no idle gap
left — daemon memory never drains.  Here the whole cycle is accounted
against one wall-clock budget:

* the profiling window runs through :func:`~repro.core.pipeline.drive`,
  the one tick loop, with a stop predicate that polls the wall clock
  every ``BUDGET_POLL_TICKS`` ticks and aborts the cycle if the budget
  expires mid-window;
* post-processing (IncrementalAnalyzer finish + any injected stages,
  e.g. the daemon's merge/commit) runs *inside* the budget, checked at
  every stage boundary — a cycle that overruns is truncated and
  reported via counters, never silently queued into the next window;
* memory is bounded per cycle, not per run: the Dumper hands each
  snapshot straight to the cycle's analyzer and keeps none, so one
  snapshot is alive at a time regardless of how many cycles the daemon
  has run.

Because a completed cycle is exactly the streaming profiling phase at a
fixed seed, its STTree is byte-identical to the offline
:class:`~repro.core.stages.ProfileBuilder` path — the serve-parity tests
pin that.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.pipeline import drive
from repro.core.recorder import Recorder
from repro.core.stages import ProfileBuilder
from repro.core.sttree import STTree
from repro.errors import ProfileError
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.strategies.agents import TelemetryAgent
from repro.workloads import make_workload

#: How many workload ticks between wall-clock polls in the profiling
#: window.  Polling is cheap but not free; the window can overshoot the
#: budget by at most this many ticks' wall time.
BUDGET_POLL_TICKS = 32

#: Stage names of the built-in cycle stages.
STAGE_PROFILE = "profile"
STAGE_ANALYZE = "analyze"


@dataclasses.dataclass
class CycleReport:
    """Everything one profiling cycle did, on budget or not."""

    index: int
    workload: str
    seed: int
    budget_s: float
    elapsed_s: float
    #: ``(stage name, seconds)`` for every stage that ran, in order.
    stage_timings: List[Tuple[str, float]]
    truncated: bool
    #: Name of the last stage that ran before truncation (None when the
    #: cycle completed).
    truncated_after: Optional[str]
    #: Seconds past budget when the cycle ended (0.0 when on budget).
    overrun_s: float
    snapshots_streamed: int
    #: The cycle's STTree — None when the cycle was truncated before the
    #: analyze stage produced one.
    tree: Optional[STTree] = None

    @property
    def completed(self) -> bool:
        return not self.truncated

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (the tree travels by content hash)."""
        return {
            "index": self.index,
            "workload": self.workload,
            "seed": self.seed,
            "budget_s": self.budget_s,
            "elapsed_s": self.elapsed_s,
            "stage_timings": [list(item) for item in self.stage_timings],
            "truncated": self.truncated,
            "truncated_after": self.truncated_after,
            "overrun_s": self.overrun_s,
            "snapshots_streamed": self.snapshots_streamed,
            "tree_hash": None if self.tree is None else self.tree.digest(),
        }


#: A post-processing stage injected into the cycle: ``(name, fn)`` where
#: ``fn`` receives the cycle's STTree.  The daemon injects its
#: merge-and-commit step here so it is budget-accounted like everything
#: else.
PostStage = Tuple[str, Callable[[STTree], None]]


class ProfilingCycleEngine:
    """Runs profiling cycles for one simulated VM on a wall-clock budget.

    Each cycle builds a fresh VM (same workload, same seed — the
    simulated stand-in for re-attaching to the same live process), runs
    the streaming profiling phase for ``sim_duration_ms`` *virtual*
    milliseconds, then post-processes, all against ``budget_s`` seconds
    of wall clock.  ``clock`` is injectable so budget enforcement is
    testable without real sleeping.
    """

    def __init__(
        self,
        workload_name: str,
        seed: int = 42,
        config: Optional[SimConfig] = None,
        sim_duration_ms: float = 1_500.0,
        budget_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
        post_stages: Optional[Sequence[PostStage]] = None,
    ) -> None:
        if budget_s <= 0:
            raise ProfileError(f"cycle budget must be positive, got {budget_s}")
        self.workload_name = workload_name
        self.seed = seed
        self.config = config or SimConfig(seed=seed)
        self.sim_duration_ms = sim_duration_ms
        self.budget_s = budget_s
        self.clock = clock
        self.post_stages: List[PostStage] = list(post_stages or [])
        # -- lifetime counters (served via /metrics) --
        self.cycles_run = 0
        self.cycles_truncated = 0
        self.overrun_s_total = 0.0
        self.last_report: Optional[CycleReport] = None
        #: Summed TelemetryAgent counters across every cycle's VM.
        self.vm_telemetry: Dict[str, int] = {}

    # -- one cycle -------------------------------------------------------------------

    def run_cycle(self, index: Optional[int] = None) -> CycleReport:
        """Run one budgeted cycle; always returns a report."""
        if index is None:
            index = self.cycles_run
        start = self.clock()
        deadline = start + self.budget_s
        stage_timings: List[Tuple[str, float]] = []
        truncated_after: Optional[str] = None
        tree: Optional[STTree] = None

        # Stage 1 — the profiling window: the streaming profiling phase
        # of POLM2Pipeline.run_profiling_phase, so a completed window
        # analyzes to a byte-identical STTree.
        workload = make_workload(self.workload_name, seed=self.seed)
        vm = VM(self.config, collector=NG2CCollector())
        recorder = Recorder()
        builder = ProfileBuilder(
            recorder.records, max_generations=self.config.max_generations
        )
        dumper = Dumper(builder.feed_snapshot)
        telemetry = TelemetryAgent()
        for agent in (recorder, dumper, telemetry):
            vm.attach_agent(agent)
        ticks = itertools.count()

        def over_budget() -> bool:
            # Called before each tick: read the wall clock only after
            # every BUDGET_POLL_TICKS completed ticks.
            done = next(ticks)
            return (
                done > 0
                and done % BUDGET_POLL_TICKS == 0
                and self.clock() >= deadline
            )

        try:
            drive(vm, workload, self.sim_duration_ms, stop=over_budget)
        finally:
            # Nothing after the window reads the heap.
            vm.close()
        window_complete = vm.clock.now_ms >= self.sim_duration_ms
        stage_timings.append((STAGE_PROFILE, self.clock() - start))

        if not window_complete or self.clock() >= deadline:
            truncated_after = STAGE_PROFILE
        else:
            # Stage 2 — post-processing: close the streaming analyzer and
            # fold the survival counts into the cycle's STTree.
            stage_start = self.clock()
            tree = builder.analyzer.finish()
            stage_timings.append((STAGE_ANALYZE, self.clock() - stage_start))
            if self.clock() >= deadline:
                truncated_after = STAGE_ANALYZE
                tree = None
            else:
                # Injected stages (the daemon's merge/commit), each
                # gated on the remaining budget.
                for name, stage in self.post_stages:
                    stage_start = self.clock()
                    stage(tree)
                    stage_timings.append((name, self.clock() - stage_start))
                    if self.clock() >= deadline:
                        truncated_after = name
                        break

        elapsed = self.clock() - start
        # A cycle is truncated the moment any boundary crossed the
        # deadline — even the last stage's: the overrun must surface in
        # the counters, not vanish because nothing was left to skip.
        truncated = truncated_after is not None
        report = CycleReport(
            index=index,
            workload=self.workload_name,
            seed=self.seed,
            budget_s=self.budget_s,
            elapsed_s=elapsed,
            stage_timings=stage_timings,
            truncated=truncated,
            truncated_after=truncated_after,
            overrun_s=max(0.0, elapsed - self.budget_s),
            snapshots_streamed=dumper.snapshots_taken,
            tree=tree,
        )
        self.cycles_run += 1
        if truncated:
            self.cycles_truncated += 1
        self.overrun_s_total += report.overrun_s
        for counter, value in telemetry.telemetry().items():
            self.vm_telemetry[counter] = self.vm_telemetry.get(counter, 0) + value
        self.last_report = report
        return report

    # -- telemetry ---------------------------------------------------------------------

    def telemetry(self) -> Dict[str, float]:
        return {
            "cycles_run": self.cycles_run,
            "cycles_truncated": self.cycles_truncated,
            "overrun_s_total": round(self.overrun_s_total, 6),
        }
