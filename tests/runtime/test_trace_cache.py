"""The recorded-allocation trace cache: one stack capture per distinct trace.

The VM keys its cache on ``(caller prefix id, site id)``: each frame
lazily learns the interned id of its callers' locations, so a recorded
allocation after the first sighting of its trace costs one dict lookup
and never walks the stack.
"""

from __future__ import annotations

import pytest

from repro import make_workload
from repro.config import SimConfig
from repro.core.pipeline import drive
from repro.core.recorder import Recorder
from repro.gc.ng2c import NG2CCollector
from repro.heap.objects import reset_identity_hashes
from repro.runtime.code import ClassModel
from repro.runtime.stack import capture_stack_trace
from repro.runtime.thread import SimThread
from repro.runtime.vm import VM


@pytest.fixture
def captures(monkeypatch):
    """Every stack capture a thread makes, in order."""
    seen = []
    original = SimThread.current_stack_trace

    def counting(thread):
        trace = original(thread)
        seen.append(trace)
        return trace

    monkeypatch.setattr(SimThread, "current_stack_trace", counting)
    return seen


class StackCheck:
    """Agent asserting every logged trace is some thread's real stack."""

    def __init__(self, vm: VM) -> None:
        self.vm = vm
        self.checked = 0
        self.wrong = []

    def _check(self, trace) -> None:
        self.checked += 1
        real = {capture_stack_trace(t.frames) for t in self.vm.threads}
        if trace not in real:
            self.wrong.append(trace)

    def on_allocation(self, obj, site, trace) -> None:
        self._check(trace)

    def on_allocation_batch(self, event) -> None:
        self._check(event.trace)


def recorded_vm():
    """A VM whose two classes are loaded through an attached Recorder."""
    reset_identity_hashes()
    vm = VM(SimConfig.small(), collector=NG2CCollector())
    recorder = Recorder()
    vm.attach_agent(recorder)
    outer = ClassModel("Outer")
    run = outer.add_method("run")
    run.add_call_site(10, "Inner", "work")
    run.add_call_site(11, "Inner", "work")
    inner = ClassModel("Inner")
    work = inner.add_method("work")
    work.add_alloc_site(20, "Obj", 64)
    work.add_alloc_site(21, "Obj", 64)
    vm.classloader.load(outer)
    vm.classloader.load(inner)
    return vm, recorder


class TestTraceCache:
    def test_fresh_frames_with_the_same_callers_reuse_the_trace(self, captures):
        vm, recorder = recorded_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            for _ in range(5):
                with thread.call(10, "Inner", "work"):
                    thread.alloc(20)
        assert captures == [(("Outer", "run", 10), ("Inner", "work", 20))]
        assert recorder.records.total_allocations == 5

    def test_caller_line_and_site_each_key_their_own_trace(self, captures):
        vm, recorder = recorded_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            for _ in range(3):
                for call_line in (10, 11):
                    with thread.call(call_line, "Inner", "work"):
                        thread.alloc(20)
                        thread.alloc(21)
        expected = [
            (("Outer", "run", 10), ("Inner", "work", 20)),
            (("Outer", "run", 10), ("Inner", "work", 21)),
            (("Outer", "run", 11), ("Inner", "work", 20)),
            (("Outer", "run", 11), ("Inner", "work", 21)),
        ]
        assert captures == expected
        # Trace ids and record ids both follow first-encounter order.
        assert [vm.sites.trace(i) for i in (1, 2, 3, 4)] == expected
        assert [recorder.records.traces[i] for i in (1, 2, 3, 4)] == expected
        assert [len(recorder.records.streams[i]) for i in (1, 2, 3, 4)] == [3] * 4

    def test_batches_share_the_cache(self, captures):
        vm, recorder = recorded_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            for _ in range(3):
                with thread.call(11, "Inner", "work"):
                    thread.alloc(21)
                    thread.alloc_batch(21, count=4)
        assert captures == [(("Outer", "run", 11), ("Inner", "work", 21))]
        assert recorder.records.total_allocations == 15

    def test_profiling_phase_captures_each_trace_at_most_once(self, captures):
        vm = VM(SimConfig(seed=42), collector=NG2CCollector())
        recorder = Recorder()
        check = StackCheck(vm)
        vm.attach_agent(recorder)
        vm.attach_agent(check)
        drive(vm, make_workload("cassandra-wi", seed=42), 300.0)
        assert recorder.records.total_allocations > 10 * vm.sites.trace_count
        assert 1 <= len(captures) <= vm.sites.trace_count
        assert check.checked > 0 and check.wrong == []
