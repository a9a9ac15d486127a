"""Integration tests for the two-phase pipeline on a synthetic workload."""

from typing import List

import pytest

from repro.config import SimConfig
from repro.core.pipeline import THROUGHPUT_SAMPLE_MS, POLM2Pipeline, drive
from repro.errors import ReproError
from repro.gc.g1 import G1Collector
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM
from repro.workloads.base import ManualNG2CStrategy, Workload
from repro.core.profile import AllocDirective


class EpochWorkload(Workload):
    """Minimal workload with an exploitable lifetime structure.

    ``Store.put`` rows live for one epoch (dropped together every
    ``epoch_ops`` operations); ``Store.scratch`` objects die immediately.
    """

    name = "epoch"

    def __init__(self, seed: int = 0, epoch_ops: int = 1800) -> None:
        super().__init__()
        self.epoch_ops = epoch_ops
        self._ops = 0

    def class_models(self) -> List[ClassModel]:
        store = ClassModel("Store")
        put = store.add_method("put")
        put.add_alloc_site(10, "Row", 768)
        put.add_alloc_site(11, "Scratch", 128)
        return [store]

    def setup(self, vm) -> None:
        self.vm = vm
        self.thread = vm.new_thread("worker")
        self.root = vm.allocate_anonymous(64)
        vm.roots.pin("epoch.root", self.root)
        self.held = []

    def tick(self) -> int:
        vm = self.vm
        with self.thread.entry("Store", "put"):
            for _ in range(32):
                row = self.thread.alloc(10, keep=False)
                self.thread.alloc(11, keep=False)
                vm.heap.write_ref(self.root, row)
                self.held.append(row)
                self._ops += 1
                vm.tick_op()
                if len(self.held) >= self.epoch_ops:
                    vm.heap.clear_refs(self.root)
                    self.held.clear()
                    self.fire_flush_hooks()
        return 32

    def manual_ng2c(self) -> ManualNG2CStrategy:
        return ManualNG2CStrategy(
            alloc_directives=[AllocDirective("Store", "put", 10, pre_set_gen=1)],
            call_directives=[],
            rotate_generation_on_flush=False,
        )


@pytest.fixture(scope="module")
def pipeline() -> POLM2Pipeline:
    return POLM2Pipeline(
        workload_factory=EpochWorkload,
        config=SimConfig.small(),
    )


@pytest.fixture(scope="module")
def profile(pipeline):
    return pipeline.run_profiling_phase(duration_ms=3_000.0)


class TestProfilingPhase:
    def test_profile_identifies_epoch_rows(self, profile):
        sites = {d.location for d in profile.alloc_directives}
        assert ("Store", "put", 10) in sites
        assert ("Store", "put", 11) not in sites

    def test_profile_metadata(self, profile):
        assert profile.metadata["snapshots_analyzed"] > 0
        assert profile.metadata["allocations_recorded"] > 0

    def test_keep_result_captures_profile_and_telemetry(self, pipeline):
        keep = []
        profile = pipeline.run_profiling_phase(
            duration_ms=2_000.0, keep_result=keep
        )
        result = keep[0]
        assert result.strategy == "polm2-profiling"
        assert result.profile is profile
        assert result.pauses
        telemetry = result.telemetry
        assert telemetry["snapshots_taken"] == len(result.pauses)
        assert (
            profile.metadata["snapshots_analyzed"] == telemetry["snapshots_taken"]
        )
        assert telemetry["allocations_logged"] > 0
        # A cell keeps only its results, never the snapshot chain.
        assert "snapshots" not in result.to_dict()


class TestProductionPhase:
    def test_polm2_beats_g1_on_pauses(self, pipeline, profile):
        polm2 = pipeline.run_production_phase(profile, duration_ms=6_000.0)
        g1 = pipeline.run_baseline("g1", duration_ms=6_000.0)
        assert polm2.pauses and g1.pauses
        assert max(polm2.pause_durations_ms()) < max(g1.pause_durations_ms())
        assert sum(polm2.pause_durations_ms()) < sum(g1.pause_durations_ms())

    def test_polm2_matches_manual_ng2c(self, pipeline, profile):
        polm2 = pipeline.run_production_phase(profile, duration_ms=6_000.0)
        ng2c = pipeline.run_baseline("ng2c", duration_ms=6_000.0)
        worst_polm2 = max(polm2.pause_durations_ms())
        worst_ng2c = max(ng2c.pause_durations_ms())
        assert worst_polm2 <= worst_ng2c * 1.5

    def test_throughput_not_degraded(self, pipeline, profile):
        polm2 = pipeline.run_production_phase(profile, duration_ms=6_000.0)
        g1 = pipeline.run_baseline("g1", duration_ms=6_000.0)
        assert polm2.throughput_ops_s >= 0.9 * g1.throughput_ops_s

    def test_c4_baseline_runs(self, pipeline):
        c4 = pipeline.run_baseline("c4", duration_ms=3_000.0)
        assert all(p.duration_ms < 10.0 for p in c4.pauses)

    def test_unknown_strategy_rejected(self, pipeline):
        with pytest.raises(ReproError):
            pipeline.run_baseline("zgc", duration_ms=1_000.0)

    def test_result_fields(self, pipeline, profile):
        result = pipeline.run_production_phase(profile, duration_ms=3_000.0)
        assert result.strategy == "polm2"
        assert result.workload == "epoch"
        assert result.collector_name == "NG2C"
        assert result.ops_completed > 0
        assert result.duration_ms >= 3_000.0
        assert result.peak_memory_bytes > 0
        assert isinstance(result.pause_report(), str)


class CountingWorkload(EpochWorkload):
    """EpochWorkload that counts its ticks and notes its teardown."""

    def __init__(self) -> None:
        super().__init__()
        self.ticks = 0
        self.torn_down = False

    def tick(self) -> int:
        self.ticks += 1
        return super().tick()

    def teardown(self) -> None:
        self.torn_down = True
        super().teardown()


class TestDrive:
    """``drive`` is the one tick loop; ``stop`` ends it early."""

    def run(self, duration_ms, limit=None):
        """Drive to ``duration_ms``, stopping after ``limit`` ticks if
        given; returns (vm, workload, timeline, clock at each stop call)."""
        vm = VM(SimConfig.small(), collector=G1Collector())
        workload = CountingWorkload()
        seen = []

        def stop() -> bool:
            seen.append(vm.clock.now_ms)
            return limit is not None and workload.ticks >= limit

        timeline = drive(vm, workload, duration_ms, stop=stop)
        return vm, workload, timeline, seen

    def test_stop_is_never_called_once_the_deadline_has_passed(self):
        vm, workload, _, seen = self.run(2_500.0)
        # Once before each tick, and only while the deadline is ahead.
        assert len(seen) == workload.ticks > 0
        assert all(now < 2_500.0 for now in seen)
        assert vm.clock.now_ms >= 2_500.0

    def test_early_stop_still_tears_the_workload_down(self):
        vm, workload, _, seen = self.run(60_000.0, limit=5)
        assert workload.ticks == 5 and len(seen) == 6
        assert workload.torn_down
        assert vm.clock.now_ms < 60_000.0

    def test_timeline_covers_the_ticks_that_ran(self):
        _, full, full_timeline, _ = self.run(3_000.0)
        vm, workload, timeline, seen = self.run(3_000.0, limit=full.ticks // 2)
        assert workload.ticks == full.ticks // 2
        # One sample per whole virtual second the ticks ran for, each the
        # same as the uninterrupted run's sample for that second.
        elapsed = vm.clock.now_ms - seen[0]
        assert len(timeline) == int(elapsed // THROUGHPUT_SAMPLE_MS) > 0
        assert timeline == full_timeline[: len(timeline)]
        assert sum(timeline) <= 32 * workload.ticks
