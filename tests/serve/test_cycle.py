"""Cycle-budget enforcement and bounded daemon memory.

The gprofiler failure mode under test: post-processing that runs after
the profiling window, unaccounted, so cycles silently overrun and
memory never drains.  Here every stage is checked against one wall-clock
budget (injectable clock — no sleeping in tests) and snapshot retention
is bounded per cycle, not per daemon lifetime.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import POLM2Pipeline
from repro.config import SimConfig
from repro.errors import ProfileError
from repro.serve.cycle import (
    STAGE_ANALYZE,
    STAGE_PROFILE,
    ProfilingCycleEngine,
)
from repro.workloads import make_workload

WORKLOAD = "cassandra-wi"
SIM_MS = 400.0


class FakeClock:
    """A manually-advanced monotonic clock (plus optional per-call drift)."""

    def __init__(self, tick: float = 0.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def engine(clock, budget_s=60.0, post_stages=None, **kwargs):
    return ProfilingCycleEngine(
        WORKLOAD,
        seed=7,
        sim_duration_ms=kwargs.pop("sim_duration_ms", SIM_MS),
        budget_s=budget_s,
        clock=clock,
        post_stages=post_stages,
        **kwargs,
    )


class TestBudgetEnforcement:
    def test_non_positive_budget_rejected(self):
        with pytest.raises(ProfileError):
            ProfilingCycleEngine(WORKLOAD, budget_s=0.0)

    def test_on_budget_cycle_completes(self):
        clock = FakeClock()
        report = engine(clock).run_cycle()
        assert report.completed
        assert not report.truncated
        assert report.overrun_s == 0.0
        assert report.tree is not None
        assert [name for name, _ in report.stage_timings] == [
            STAGE_PROFILE,
            STAGE_ANALYZE,
        ]

    def test_slow_window_truncates_during_profile_stage(self):
        # Every clock read costs a full budget's worth of wall time, so
        # the window's first periodic poll (tick 32 of ~42) is already
        # past the deadline and aborts the window mid-run.
        clock = FakeClock(tick=60.0)
        eng = engine(clock, budget_s=60.0)
        report = eng.run_cycle()
        assert report.truncated
        assert report.truncated_after == STAGE_PROFILE
        assert report.tree is None
        assert eng.cycles_truncated == 1
        assert eng.telemetry()["cycles_truncated"] == 1

    def test_slow_post_processing_truncates_and_counts_overrun(self):
        clock = FakeClock()

        def slow_ship(_tree) -> None:
            clock.advance(75.0)  # blows the 60s budget inside the stage

        eng = engine(clock, budget_s=60.0, post_stages=[("ship", slow_ship)])
        report = eng.run_cycle()
        assert report.truncated
        assert report.truncated_after == "ship"
        assert report.overrun_s == pytest.approx(15.0)
        assert eng.overrun_s_total == pytest.approx(15.0)
        assert eng.telemetry()["overrun_s_total"] == pytest.approx(15.0)

    def test_overrunning_stage_skips_the_rest(self):
        clock = FakeClock()
        ran = []

        def slow(_tree) -> None:
            ran.append("slow")
            clock.advance(100.0)

        def never(_tree) -> None:  # pragma: no cover - must not run
            ran.append("never")

        eng = engine(
            clock, budget_s=60.0, post_stages=[("slow", slow), ("never", never)]
        )
        report = eng.run_cycle()
        assert ran == ["slow"]
        assert report.truncated_after == "slow"

    def test_overrun_bounded_by_one_stage(self):
        # The budget invariant: a cycle never exceeds its budget by more
        # than the one stage that was running when the deadline passed.
        clock = FakeClock()
        stage_cost = 75.0

        def slow_ship(_tree) -> None:
            clock.advance(stage_cost)

        eng = engine(clock, budget_s=60.0, post_stages=[("ship", slow_ship)])
        report = eng.run_cycle()
        assert report.overrun_s <= stage_cost

    def test_truncated_cycles_are_reported_not_queued(self):
        # Consecutive over-budget cycles each get truncated and counted;
        # nothing is carried into the next cycle.
        clock = FakeClock(tick=60.0)
        eng = engine(clock, budget_s=60.0)
        for _ in range(3):
            eng.run_cycle()
        assert eng.cycles_run == 3
        assert eng.cycles_truncated == 3


class TestDeterminism:
    def test_same_seed_cycles_are_identical(self):
        eng = engine(FakeClock())
        first = eng.run_cycle()
        second = eng.run_cycle()
        assert first.tree.digest() == second.tree.digest()

    def test_cycle_tree_matches_offline_profiling_phase(self):
        report = engine(FakeClock()).run_cycle()
        pipeline = POLM2Pipeline(
            lambda: make_workload(WORKLOAD, seed=7), config=SimConfig(seed=7)
        )
        offline = pipeline.run_profiling_phase(duration_ms=SIM_MS)
        assert report.tree.digest() == offline.sttree.digest()


class TestBoundedMemory:
    def test_live_snapshots_bounded_across_50_cycles(self):
        # The engine carries nothing from cycle to cycle but counters;
        # within a cycle the Dumper keeps no snapshot
        # (tests/core/test_stages.py::TestNoRetention).  A reduced heap
        # forces several GC cycles — and thus snapshots — per 600ms
        # window.
        eng = engine(
            FakeClock(),
            sim_duration_ms=600.0,
            config=SimConfig(
                heap_bytes=16 * 1024 * 1024,
                young_bytes=2 * 1024 * 1024,
                seed=7,
            ),
        )
        streamed = 0
        for _ in range(50):
            report = eng.run_cycle()
            streamed += report.snapshots_streamed
        assert eng.cycles_run == 50
        assert streamed > 0  # snapshots actually flowed through

    def test_vm_telemetry_accumulates(self):
        eng = engine(FakeClock())
        eng.run_cycle()
        once = dict(eng.vm_telemetry)
        eng.run_cycle()
        assert once
        for counter, value in once.items():
            assert eng.vm_telemetry[counter] == 2 * value
