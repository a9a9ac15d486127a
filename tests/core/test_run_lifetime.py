"""A finished run leaves no simulated heap for CPython's cycle collector.

A finished VM is one reference cycle: the collector and the VM point at
each other, every thread points back at the VM, and the class loader,
the event bus and every generation hold bound methods.  Whatever the VM
still holds when the run ends is freed only by a full CPython
collection.  So every owner of a VM closes it once the result is built,
and reference counting frees the heap's objects at once.  These tests
count ``HeapObject`` instances with CPython's collector off, because a
``HeapObject`` has no ``__weakref__`` slot to watch.
"""

import gc

import pytest

from repro.config import SimConfig
from repro.core.offline import record_to_dir
from repro.core.pipeline import POLM2Pipeline, drive
from repro.gc.ng2c import NG2CCollector
from repro.heap.objects import HeapObject
from repro.runtime.vm import VM
from repro.serve.cycle import ProfilingCycleEngine
from repro.workloads import make_workload

DURATION_MS = 1_500.0


def _heap_objects() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is HeapObject)


def _pipeline(workload: str = "lucene") -> POLM2Pipeline:
    return POLM2Pipeline(
        lambda: make_workload(workload, seed=7), config=SimConfig.small(seed=7)
    )


def _profiling_phase(tmp_path):
    _pipeline().run_profiling_phase(DURATION_MS)


def _polm2(tmp_path):
    pipeline = _pipeline()
    profile = pipeline.run_profiling_phase(DURATION_MS)
    pipeline.run("polm2", duration_ms=DURATION_MS, profile=profile)


def _g1(tmp_path):
    _pipeline().run("g1", duration_ms=DURATION_MS)


def _serve_cycle(tmp_path):
    report = ProfilingCycleEngine(
        "cassandra-wi",
        seed=7,
        config=SimConfig.small(seed=7),
        sim_duration_ms=DURATION_MS,
    ).run_cycle()
    assert report.completed


def _recording(tmp_path):
    record_to_dir(
        "cassandra-wi",
        str(tmp_path / "recording"),
        duration_ms=DURATION_MS,
        config=SimConfig.small(seed=7),
    )


class TestNoHeapLeftBehind:
    @pytest.mark.parametrize(
        "run",
        [_profiling_phase, _polm2, _g1, _serve_cycle, _recording],
        ids=["profiling-phase", "polm2", "g1", "serve-cycle", "recording"],
    )
    def test_run_leaves_no_heap_object(self, run, tmp_path):
        gc.collect()
        before = _heap_objects()
        gc.disable()
        try:
            run(tmp_path)
            left = _heap_objects() - before
        finally:
            gc.enable()
        assert left == 0, f"{left} heap objects wait for a cycle collection"


class TestClose:
    @staticmethod
    def _finished_vm() -> VM:
        vm = VM(SimConfig.small(seed=7), collector=NG2CCollector())
        drive(vm, make_workload("cassandra-wi", seed=7), DURATION_MS)
        return vm

    @staticmethod
    def _counters(vm: VM):
        heap = vm.heap
        return (
            vm.clock.now_ms,
            vm.ops_completed,
            vm.set_generation_calls,
            list(vm.collector.pauses),
            vm.collector.cycles,
            heap.peak_committed_bytes,
            heap.total_allocated_objects,
            heap.total_allocated_bytes,
        )

    def test_close_keeps_counters_and_empties_heap(self):
        vm = self._finished_vm()
        assert vm.heap.stats().object_count > 0
        assert vm.collector.pauses
        counters = self._counters(vm)
        vm.close()
        assert self._counters(vm) == counters
        heap = vm.heap
        heap.verify()
        assert heap.stats().object_count == 0
        assert heap.committed_bytes == 0
        assert heap.old_to_young_remset == {}
        assert vm.collector.last_live_objects == []
        assert list(vm.iter_roots()) == []

    def test_close_is_idempotent(self):
        vm = self._finished_vm()
        vm.close()
        counters = self._counters(vm)
        free = vm.heap.free_region_count
        vm.close()
        assert self._counters(vm) == counters
        assert vm.heap.free_region_count == free
        vm.heap.verify()
