"""Unit tests for the binary (Memento-style) pretenuring collector."""

from repro.config import SimConfig, YOUNG_GEN
from repro.gc.binary import BinaryPretenuringCollector
from repro.runtime.vm import VM


def build_vm() -> VM:
    return VM(SimConfig.small(), collector=BinaryPretenuringCollector())


class TestBinaryPretenuring:
    def test_supports_pretenuring_api(self):
        assert BinaryPretenuringCollector().supports_pretenuring

    def test_all_indexes_map_to_single_old_space(self):
        vm = build_vm()
        collector = vm.collector
        assert collector.ensure_generation(0) == YOUNG_GEN
        old = collector.ensure_generation(1)
        assert collector.ensure_generation(2) == old
        assert collector.ensure_generation(9) == old
        assert old == collector.old_gen_id

    def test_pretenured_allocations_land_in_old(self):
        vm = build_vm()
        gen_id = vm.collector.resolve_allocation_gen(3)
        obj = vm.heap.allocate(256, gen_id=gen_id)
        assert obj.gen_id == vm.collector.old_gen_id

    def test_instrumenter_accepts_binary_collector(self):
        from repro.core.instrumenter import Instrumenter
        from repro.core.profile import (
            AllocationProfile,
            AllocDirective,
            CallDirective,
        )

        vm = build_vm()
        profile = AllocationProfile(
            workload="unit",
            alloc_directives=[AllocDirective("C", "m", 1)],
            call_directives=[CallDirective("C", "r", 2, target_generation=4)],
        )
        vm.attach_agent(Instrumenter(profile))  # §4.5: GC-independent

    def test_colocated_cohorts_force_compaction(self):
        """Two different-lifetime cohorts in one space: when the short
        cohort dies, its regions are interleaved with the long cohort's
        data, so reclamation requires copying — unlike NG2C, where each
        cohort's generation dies wholesale."""
        vm = build_vm()
        root = vm.allocate_anonymous(64)
        vm.roots.pin("root", root)
        old = vm.collector.ensure_generation(1)
        short_cohort = []
        for i in range(400):
            # Interleave: even objects die, odd objects live.
            obj = vm.heap.allocate(1024, gen_id=old)
            if i % 2:
                vm.heap.write_ref(root, obj)
            else:
                short_cohort.append(obj)
        # Kill the short cohort and compact.
        vm.collector.collect_mixed()
        mixed = [p for p in vm.collector.pauses if p.kind == "mixed"]
        assert mixed
        assert mixed[-1].stats["compacted_bytes"] > 0
