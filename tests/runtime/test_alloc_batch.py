"""``VM.allocate_batch`` is the scalar loop, with no path of its own.

Each test runs the same sizes through ``vm.allocate_batch`` and through
a hand-written loop over ``vm.allocate_at_site`` and compares the whole
observable state: placements, clock, collector accounting and recorder
streams.  Mixed sizes and enough volume to collect mid-batch make any
second allocation path that grows back show up here.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.core.recorder import Recorder
from repro.gc.c4 import C4Collector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.heap.objects import reset_identity_hashes
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM

SITE_LINE = 10


def build_vm(collector_factory=G1Collector, record_hook=False):
    reset_identity_hashes()
    vm = VM(SimConfig.small(), collector=collector_factory())
    model = ClassModel("C")
    model.add_method("run").add_alloc_site(SITE_LINE, "Obj", 64)
    vm.classloader.load(model)
    site = vm.classloader.lookup("C").method("run").alloc_site(SITE_LINE)
    if record_hook:
        site.record_hook = True
    return vm, site


def heap_state(vm):
    """Everything the scalar/batch equivalence must preserve."""
    placements = []
    for gen in vm.heap.generations.values():
        for region in gen.regions:
            for obj in region.objects:
                placements.append(
                    (
                        obj.object_id,
                        obj.address,
                        obj.size,
                        obj.site_id,
                        obj.gen_id,
                        obj.age,
                    )
                )
    placements.sort()
    return {
        "placements": placements,
        "clock": vm.clock.now_us,
        "allocated_bytes": vm.heap.total_allocated_bytes,
        "allocated_objects": vm.heap.total_allocated_objects,
        "cycles": vm.collector.cycles,
        "pauses": len(vm.collector.pauses),
        "used_bytes": vm.heap.used_bytes,
    }


def run_scalar(vm, site, thread, sizes, pretenure_index=0, link_from=None):
    out = []
    for size in sizes:
        obj = vm.allocate_at_site(thread, site, size, pretenure_index)
        if link_from is not None:
            vm.heap.write_ref(link_from, obj)
        out.append(obj)
    return out


class TestScalarEquivalence:
    @pytest.mark.parametrize(
        "collector_factory", [G1Collector, NG2CCollector, C4Collector]
    )
    def test_batch_matches_scalar_through_gc(self, collector_factory):
        # Enough bytes to force several collections in the 8 MiB heap.
        sizes = [64, 128, 4096, 64] * 6000
        states = []
        for batched in (False, True):
            vm, site = build_vm(collector_factory)
            thread = vm.new_thread("t")
            with thread.entry("C", "run"):
                if batched:
                    vm.allocate_batch(thread, site, sizes)
                else:
                    run_scalar(vm, site, thread, sizes)
            states.append(heap_state(vm))
        assert states[0] == states[1]
        assert states[0]["pauses"] > 0  # the run really collected

    def test_batch_matches_scalar_pretenured(self):
        sizes = [256] * 4000
        states = []
        for batched in (False, True):
            vm, site = build_vm(NG2CCollector)
            thread = vm.new_thread("t")
            with thread.entry("C", "run"):
                if batched:
                    vm.allocate_batch(thread, site, sizes, pretenure_index=1)
                else:
                    run_scalar(vm, site, thread, sizes, pretenure_index=1)
            states.append(heap_state(vm))
        assert states[0] == states[1]
        assert states[0]["clock"] > 0  # pretenure charges applied

    def test_batch_matches_scalar_with_recorder(self):
        sizes = [96] * 5000
        stream_states = []
        for batched in (False, True):
            vm, site = build_vm(G1Collector, record_hook=True)
            recorder = Recorder()
            vm.attach_agent(recorder)
            thread = vm.new_thread("t")
            with thread.entry("C", "run"):
                if batched:
                    vm.allocate_batch(thread, site, sizes)
                else:
                    run_scalar(vm, site, thread, sizes)
            stream_states.append(
                (
                    heap_state(vm),
                    {
                        tid: stream.tolist()
                        for tid, stream in recorder.records.streams.items()
                    },
                    dict(recorder.records.traces),
                )
            )
        assert stream_states[0] == stream_states[1]
        assert stream_states[0][1]  # something was actually recorded

    def test_batch_matches_scalar_with_link_from(self):
        sizes = [80] * 3000
        states = []
        for batched in (False, True):
            vm, site = build_vm(G1Collector)
            parent = vm.allocate_anonymous(64)
            vm.roots.pin("parent", parent)
            thread = vm.new_thread("t")
            with thread.entry("C", "run"):
                if batched:
                    vm.allocate_batch(thread, site, sizes, link_from=parent)
                else:
                    run_scalar(vm, site, thread, sizes, link_from=parent)
            states.append((heap_state(vm), len(parent._refs)))
        assert states[0] == states[1]

    def test_empty_batch(self):
        vm, site = build_vm()
        thread = vm.new_thread("t")
        assert vm.allocate_batch(thread, site, []) == []

    def test_heap_verify_after_batching(self):
        vm, site = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, [64, 96, 128] * 400)
        vm.heap.verify()
