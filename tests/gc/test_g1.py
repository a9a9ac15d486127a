"""Unit tests for the G1-like collector."""

import pytest

from repro.config import SimConfig, YOUNG_GEN
from repro.gc.events import FULL, MIXED, YOUNG
from repro.gc.g1 import G1Collector
from repro.runtime.events import GC_END
from repro.runtime.vm import VM


def build_vm(**overrides) -> VM:
    return VM(SimConfig.small(**overrides), collector=G1Collector())


def fill_young(vm, obj_size=1024, keep_root=None):
    """Allocate until a young collection has happened at least once."""
    collector = vm.collector
    start = collector.cycles
    guard = 0
    while collector.cycles == start:
        obj = vm.allocate_anonymous(obj_size)
        if keep_root is not None:
            vm.heap.write_ref(keep_root, obj)
        guard += 1
        assert guard < 100_000, "young collection never triggered"


class TestPolicy:
    def test_everything_allocates_young(self):
        vm = build_vm()
        assert vm.collector.resolve_allocation_gen(0) == YOUNG_GEN
        # G1 has no pretenuring: nonzero indexes are ignored.
        assert vm.collector.resolve_allocation_gen(5) == YOUNG_GEN

    def test_no_pretenuring_support(self):
        assert not G1Collector().supports_pretenuring

    def test_young_collection_triggered_by_occupancy(self):
        vm = build_vm()
        fill_young(vm)
        kinds = {p.kind for p in vm.collector.pauses}
        assert YOUNG in kinds

    def test_dead_young_objects_reclaimed_without_copy(self):
        vm = build_vm()
        fill_young(vm)  # all garbage
        young_pauses = [p for p in vm.collector.pauses if p.kind == YOUNG]
        assert young_pauses[0].stats["survivor_bytes"] == 0
        assert young_pauses[0].stats["promoted_bytes"] == 0


class TestAgingAndPromotion:
    def test_survivors_age_then_promote(self):
        vm = build_vm()
        root = vm.allocate_anonymous(64)
        vm.roots.pin("root", root)
        keeper = vm.allocate_anonymous(512)
        vm.heap.write_ref(root, keeper)
        threshold = vm.config.tenure_threshold
        for _ in range(threshold + 1):
            fill_young(vm)
        assert keeper.gen_id == vm.collector.old_gen_id
        assert keeper.age >= threshold

    def test_promotion_reported_in_stats(self):
        vm = build_vm()
        root = vm.allocate_anonymous(64)
        vm.roots.pin("root", root)
        for _ in range(200):
            vm.heap.write_ref(root, vm.allocate_anonymous(512))
        for _ in range(vm.config.tenure_threshold + 1):
            fill_young(vm)
        promoted = sum(
            p.stats.get("promoted_bytes", 0) for p in vm.collector.pauses
        )
        assert promoted > 0


class TestMixedCollections:
    def test_mixed_reclaims_old_garbage(self):
        vm = build_vm()
        root = vm.allocate_anonymous(64)
        vm.roots.pin("root", root)
        # Build old-generation data, then kill it and force pressure.
        for _ in range(4500):
            vm.heap.write_ref(root, vm.allocate_anonymous(1024))
        for _ in range(vm.config.tenure_threshold + 1):
            fill_young(vm)
        vm.heap.clear_refs(root)  # old data now garbage
        for _ in range(12):
            fill_young(vm)
        kinds = {p.kind for p in vm.collector.pauses}
        assert MIXED in kinds or FULL in kinds

    def test_old_occupancy_drops_after_mixed(self):
        vm = build_vm()
        root = vm.allocate_anonymous(64)
        vm.roots.pin("root", root)
        for _ in range(2000):
            vm.heap.write_ref(root, vm.allocate_anonymous(1024))
        for _ in range(vm.config.tenure_threshold + 1):
            fill_young(vm)
        vm.heap.clear_refs(root)
        before = vm.heap.generation(vm.collector.old_gen_id).used_bytes
        vm.collector.collect_young()
        vm.collector.collect_mixed()
        after = vm.heap.generation(vm.collector.old_gen_id).used_bytes
        assert after < before


class TestFullCollection:
    def test_handle_oom_runs_full(self):
        vm = build_vm()
        vm.collector.handle_oom()
        assert vm.collector.pauses[-1].kind == FULL

    def test_full_preserves_live_objects(self):
        vm = build_vm()
        root = vm.allocate_anonymous(64)
        vm.roots.pin("root", root)
        kids = [vm.allocate_anonymous(128) for _ in range(10)]
        for kid in kids:
            vm.heap.write_ref(root, kid)
        ids = {k.object_id for k in kids}
        vm.collector.full_collect()
        live = {o.object_id for o in vm.heap.trace_live(vm.iter_roots())}
        assert ids <= live


class TestPauseAccounting:
    def test_pauses_advance_clock(self):
        vm = build_vm()
        before = vm.clock.now_ms
        fill_young(vm)
        total = vm.collector.pause_log.total_pause_ms
        assert vm.clock.now_ms >= before + total

    def test_cycle_listener_invoked(self):
        vm = build_vm()
        events = []
        vm.events.subscribe(GC_END, events.append)
        fill_young(vm)
        assert len(events) == len(vm.collector.pauses)
        assert [e.pause for e in events] == vm.collector.pauses
