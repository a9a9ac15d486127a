"""Unit tests for the VM façade."""

import pytest

from repro.config import SimConfig, YOUNG_GEN
from repro.errors import OutOfMemoryError
from repro.gc.c4 import C4Collector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.runtime.code import ClassModel
from repro.runtime.events import ALLOCATION
from repro.runtime.vm import VM


def build_vm(collector=None) -> VM:
    vm = VM(SimConfig.small(), collector=collector or G1Collector())
    model = ClassModel("C")
    model.add_method("m").add_alloc_site(10, "Obj", 128)
    vm.classloader.load(model)
    return vm


class TestAllocation:
    def test_allocate_anonymous(self):
        vm = build_vm()
        obj = vm.allocate_anonymous(256)
        assert obj.size == 256
        assert obj.site_id == 0

    def test_allocate_at_site_assigns_site_id(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            obj = thread.alloc(10)
        assert obj.site_id > 0
        assert vm.sites.site_location(obj.site_id) == ("C", "m", 10)

    def test_site_id_cached(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            a = thread.alloc(10)
            b = thread.alloc(10)
        assert a.site_id == b.site_id

    def test_allocation_without_collector_raises(self):
        vm = VM(SimConfig.small())
        with pytest.raises(OutOfMemoryError):
            vm.allocate_anonymous(64)


class TestAllocListeners:
    def test_listener_fired_for_record_hooked_sites(self):
        vm = build_vm()
        site = vm.classloader.lookup("C").method("m").alloc_site(10)
        site.record_hook = True
        events = []
        vm.events.subscribe(
            ALLOCATION, lambda obj, s, trace: events.append((obj, s, trace))
        )
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            obj = thread.alloc(10)
        assert len(events) == 1
        assert events[0][0] is obj
        assert events[0][2] == (("C", "m", 10),)

    def test_listener_silent_without_hook(self):
        vm = build_vm()
        events = []
        vm.events.subscribe(ALLOCATION, lambda *args: events.append(args))
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            thread.alloc(10)
        assert events == []

    def test_remove_listener(self):
        vm = build_vm()
        site = vm.classloader.lookup("C").method("m").alloc_site(10)
        site.record_hook = True
        events = []
        listener = lambda *args: events.append(args)  # noqa: E731
        vm.events.subscribe(ALLOCATION, listener)
        vm.events.unsubscribe(ALLOCATION, listener)
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            thread.alloc(10)
        assert events == []


class TestRoots:
    def test_static_and_thread_roots(self):
        vm = build_vm()
        static = vm.allocate_anonymous(64)
        vm.roots.pin("s", static)
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            local = thread.alloc(10)
            roots = list(vm.iter_roots())
            assert static in roots
            assert local in roots

    def test_unpin(self):
        vm = build_vm()
        static = vm.allocate_anonymous(64)
        vm.roots.pin("s", static)
        assert vm.roots.unpin("s") is static
        assert vm.roots.get("s") is None
        assert static not in list(vm.iter_roots())


class TestMutatorTime:
    def test_tick_op_advances_clock(self):
        vm = build_vm()
        before = vm.clock.now_us
        vm.tick_op()
        assert vm.clock.now_us == before + vm.config.costs.op_base_us
        assert vm.ops_completed == 1

    def test_c4_barrier_tax(self):
        vm = build_vm(C4Collector())
        vm.tick_op()
        expected = vm.config.costs.op_base_us * vm.config.costs.c4_barrier_tax
        assert vm.clock.now_us == pytest.approx(expected)

    def test_weighted_op(self):
        vm = build_vm()
        vm.tick_op(weight=10.0)
        assert vm.clock.now_us == pytest.approx(
            10.0 * vm.config.costs.op_base_us
        )

    def test_pretenured_allocation_pays_slow_path(self):
        vm = VM(SimConfig.small(), collector=NG2CCollector())
        model = ClassModel("C")
        site = model.add_method("m").add_alloc_site(10, "Obj", 4096)
        site.gen_annotated = True
        site.pre_set_gen = 1
        vm.classloader.load(model)
        thread = vm.new_thread("t")
        before = vm.clock.now_us
        with thread.entry("C", "m"):
            thread.alloc(10)
        charged = vm.clock.now_us - before
        assert charged >= vm.config.costs.pretenure_alloc_kib_us * 4.0


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
