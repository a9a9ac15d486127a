"""Unit tests for the batched allocation front-end.

``VM.allocate_batch`` must be *observably identical* to the scalar loop
it replaces — addresses, column contents, collector accounting, clock,
recorder streams — while amortizing per-object overhead.  These tests
pin the equivalence on the unit level (the golden-digest integration
suite pins it end to end) plus the explicit scalar fallbacks and the
``allocate_anonymous`` accounting fix that rode along.
"""

from __future__ import annotations

import pytest

from repro.config import SimConfig, YOUNG_GEN
from repro.core.recorder import Recorder
from repro.gc.c4 import C4Collector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.heap.objects import reset_identity_hashes
from repro.runtime.code import ClassModel
from repro.runtime.events import ALLOCATION, ALLOCATION_BATCH, VMAgent
from repro.runtime.vm import VM

SITE_LINE = 10
GEN_LINE = 20


def build_vm(collector_factory=G1Collector, record_hook=False):
    reset_identity_hashes()
    vm = VM(SimConfig.small(), collector=collector_factory())
    model = ClassModel("C")
    method = model.add_method("run")
    method.add_alloc_site(SITE_LINE, "Obj", 64)
    gen_site = method.add_alloc_site(GEN_LINE, "Tenured", 64)
    gen_site.gen_annotated = True
    gen_site.pre_set_gen = 1
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
            for slot in range(len(region.objects)):
                obj = region.view_at(slot)
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

    def test_materialized_views_match_scalar_objects(self):
        sizes = [64, 200, 64, 1024] * 50
        vm, site = build_vm(G1Collector)
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            scalar = run_scalar(vm, site, thread, sizes)
        scalar_state = [
            (o.size, o.site_id, o.gen_id, o.age) for o in scalar
        ]
        vm2, site2 = build_vm(G1Collector)
        thread2 = vm2.new_thread("t")
        with thread2.entry("C", "run"):
            batch = vm2.allocate_batch(thread2, site2, sizes, materialize=True)
        assert [(o.size, o.site_id, o.gen_id, o.age) for o in batch] == (
            scalar_state
        )
        assert [o.object_id for o in batch] == [o.object_id for o in scalar]
        assert [o.address for o in batch] == [o.address for o in scalar]

    def test_empty_batch(self):
        vm, site = build_vm()
        thread = vm.new_thread("t")
        assert vm.allocate_batch(thread, site, []) is None
        assert vm.allocate_batch(thread, site, [], materialize=True) == []

    def test_heap_verify_after_batching(self):
        vm, site = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, [64, 96, 128] * 400)
        vm.heap.verify()


class TestBatchEvents:
    def test_one_event_per_quiet_run(self):
        vm, site = build_vm(G1Collector, record_hook=True)
        events = []
        vm.events.subscribe(ALLOCATION_BATCH, events.append)
        sizes = [64] * 100
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, sizes)
        assert sum(e.count for e in events) == 100
        assert len(events) >= 1
        for event in events:
            assert event.site is site
            assert len(event.sizes) == event.count
            assert event.gen_id == YOUNG_GEN
        # Consecutive ids, runs back to back.
        first = events[0].first_object_id
        expect = first
        for event in events:
            assert event.first_object_id == expect
            expect += event.count

    def test_no_event_without_record_hook(self):
        vm, site = build_vm(G1Collector, record_hook=False)
        events = []
        vm.events.subscribe(ALLOCATION_BATCH, events.append)
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, [64] * 10)
        assert events == []

    def test_agent_with_both_hooks_sees_batches(self):
        class Both(VMAgent):
            def __init__(self):
                self.scalar = 0
                self.batched = 0

            def on_allocation(self, obj, site, trace):
                self.scalar += 1

            def on_allocation_batch(self, event):
                self.batched += event.count

        vm, site = build_vm(G1Collector, record_hook=True)
        agent = Both()
        vm.attach_agent(agent)
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, [64] * 50)
            vm.allocate_at_site(thread, site, 64)
        assert agent.batched == 50
        assert agent.scalar == 1


class BatchObserver(VMAgent):
    """Journals batch events; defines both hooks, so attaching it never
    changes whether a batch falls back to scalar dispatch."""

    def __init__(self):
        self.batch_events = []

    def on_allocation(self, obj, site, trace):
        pass

    def on_allocation_batch(self, event):
        self.batch_events.append(event)


class TestScalarFallbacks:
    def test_scalar_only_agent_forces_fallback(self):
        class ScalarOnly(VMAgent):
            def __init__(self):
                self.seen = 0

            def on_allocation(self, obj, site, trace):
                self.seen += 1

        vm, site = build_vm(G1Collector, record_hook=True)
        agent = ScalarOnly()
        vm.attach_agent(agent)
        observer = BatchObserver()
        vm.attach_agent(observer)
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, [64] * 30)
        assert agent.seen == 30
        assert observer.batch_events == []

    def test_detaching_scalar_only_agent_reenables_batching(self):
        class ScalarOnly(VMAgent):
            def on_allocation(self, obj, site, trace):
                pass

        vm, site = build_vm(G1Collector, record_hook=True)
        observer = BatchObserver()
        vm.attach_agent(observer)
        agent = ScalarOnly()
        vm.attach_agent(agent)
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, [64] * 10)
            assert observer.batch_events == []
            vm.detach_agent(agent)
            vm.allocate_batch(thread, site, [64] * 10)
        assert sum(event.count for event in observer.batch_events) == 10

    def test_humongous_batch_falls_back(self):
        vm, site = build_vm(G1Collector)
        huge = vm.heap.region_size + 8
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            objs = vm.allocate_batch(thread, site, [huge, 64], materialize=True)
        assert [o.size for o in objs] == [huge, 64]

    def test_bare_subscriber_sees_batched_allocations(self):
        # Regression: a callable subscribed straight on the bus has no
        # batch hook; it must still see every allocation, batched or not.
        vm, site = build_vm(G1Collector, record_hook=True)
        hits = []
        vm.events.subscribe(ALLOCATION, lambda obj, s, trace: hits.append(obj))
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, [64] * 5)
            vm.allocate_at_site(thread, site, 64)
        assert len(hits) == 6

    def test_bare_subscriber_beside_both_hooks_agent(self):
        # An agent with both hooks plus a bare ALLOCATION callable: one
        # ALLOCATION subscriber has no batch counterpart, so the batch
        # still runs scalar and the callable sees all five.
        vm, site = build_vm(G1Collector, record_hook=True)
        observer = BatchObserver()
        vm.attach_agent(observer)
        hits = []
        vm.events.subscribe(ALLOCATION, lambda obj, s, trace: hits.append(obj))
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            vm.allocate_batch(thread, site, [64] * 5)
        assert len(hits) == 5
        assert observer.batch_events == []


class TestThreadAllocBatch:
    def test_count_uses_size_hint(self):
        vm, site = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            objs = thread.alloc_batch(SITE_LINE, count=7, materialize=True)
        assert [o.size for o in objs] == [64] * 7

    def test_requires_sizes_or_count(self):
        vm, site = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            with pytest.raises(ValueError):
                thread.alloc_batch(SITE_LINE)

    def test_keep_roots_objects(self):
        vm, site = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            objs = thread.alloc_batch(SITE_LINE, count=3, keep=True)
            assert objs is not None
            roots = list(thread.iter_roots())
            for obj in objs:
                assert obj in roots

    def test_gen_annotated_site_pretenures(self):
        vm, _ = build_vm(NG2CCollector)
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            objs = thread.alloc_batch(GEN_LINE, count=4, materialize=True)
        assert all(o.gen_id != YOUNG_GEN for o in objs)

    def test_link_from_writes_refs(self):
        vm, site = build_vm()
        parent = vm.allocate_anonymous(64)
        vm.roots.pin("p", parent)
        thread = vm.new_thread("t")
        with thread.entry("C", "run"):
            thread.alloc_batch(SITE_LINE, count=6, link_from=parent)
        assert len(parent._refs) == 6


class TestAllocateAnonymousAccounting:
    """Regression: anonymous allocations skipped ``after_allocation``."""

    def test_after_allocation_charged(self):
        class Counting(G1Collector):
            def __init__(self):
                super().__init__()
                self.after_calls = []

            def after_allocation(self, size, gen_id):
                self.after_calls.append((size, gen_id))
                super().after_allocation(size, gen_id)

        collector = Counting()
        vm = VM(SimConfig.small(), collector=collector)
        vm.allocate_anonymous(256)
        assert collector.after_calls == [(256, YOUNG_GEN)]

    def test_pretenured_anonymous_charges_clock(self):
        class OldAllocator(NG2CCollector):
            def resolve_allocation_gen(self, pretenure_index):
                return self.old_gen_id

        vm = VM(SimConfig.small(), collector=OldAllocator())
        before = vm.clock.now_us
        vm.allocate_anonymous(2048)
        expected = vm.config.costs.pretenure_alloc_kib_us * (2048 / 1024.0)
        assert vm.clock.now_us == pytest.approx(before + expected)
        # NG2C's pretenured-byte budget must see the allocation now.
        assert vm.collector._pretenured_since_gc == 2048
