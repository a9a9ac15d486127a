"""Unit tests for humongous (multi-region) objects."""

import pytest

from repro.config import SimConfig
from repro.errors import OutOfMemoryError
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.heap.heap import SimHeap
from repro.runtime.vm import VM


@pytest.fixture
def heap() -> SimHeap:
    return SimHeap(SimConfig.small())


class TestHumongousAllocation:
    def test_large_object_spans_contiguous_regions(self, heap):
        size = int(2.5 * heap.region_size)
        obj = heap.allocate(size)
        assert heap.is_humongous(obj)
        assert heap.humongous_count == 1
        assert heap.humongous_bytes == 3 * heap.region_size
        # The object starts at a region base.
        assert obj.address % heap.region_size == 0

    def test_small_object_not_humongous(self, heap):
        obj = heap.allocate(1024)
        assert not heap.is_humongous(obj)

    def test_humongous_counts_in_used_bytes(self, heap):
        before = heap.used_bytes
        heap.allocate(2 * heap.region_size)
        assert heap.used_bytes >= before + 2 * heap.region_size

    def test_contiguity_required(self, heap):
        # Fragment the free space by pinning every other region via
        # normal allocations, then ask for a run longer than any gap.
        total_regions = heap.config.heap_bytes // heap.region_size
        # Claim all regions into young, then free alternating ones.
        keepers = []
        for _ in range(total_regions):
            keepers.append(heap.allocate(heap.region_size))
        for region in list(heap.young.regions)[::2]:
            heap.young.release_region(region)
            heap.free_region(region)
        with pytest.raises(OutOfMemoryError):
            heap.allocate(3 * heap.region_size)

    def test_pages_dirtied(self, heap):
        obj = heap.allocate(2 * heap.region_size)
        for page in obj.page_span(heap.page_size):
            assert heap.page_table.is_dirty(page)


class TestHumongousNeverMoved:
    def test_address_stable_across_young_gc(self):
        vm = VM(SimConfig.small(), collector=G1Collector())
        root = vm.allocate_anonymous(64)
        vm.roots.pin("root", root)
        big = vm.allocate_anonymous(2 * vm.heap.region_size)
        vm.heap.write_ref(root, big)
        address = big.address
        vm.collector.collect_young()
        assert big.address == address
        live = {o.object_id for o in vm.heap.trace_live(vm.iter_roots())}
        assert big.object_id in live


class TestHumongousReclamation:
    def test_dead_humongous_reclaimed(self, heap):
        obj = heap.allocate(2 * heap.region_size)
        free_before = heap.free_region_count
        reclaimed, freed = heap.reclaim_dead_humongous(heap.new_mark_epoch())
        assert reclaimed == 1
        assert freed == 2 * heap.region_size
        assert heap.free_region_count == free_before + 2
        assert heap.humongous_count == 0

    def test_live_humongous_kept(self, heap):
        obj = heap.allocate(2 * heap.region_size)
        heap.trace_live([obj])
        reclaimed, _ = heap.reclaim_dead_humongous(heap.mark_epoch)
        assert reclaimed == 0
        assert heap.is_humongous(obj)

    def test_collectors_reclaim_eagerly(self):
        vm = VM(SimConfig.small(), collector=NG2CCollector())
        vm.allocate_anonymous(2 * vm.heap.region_size)  # garbage at once
        assert vm.heap.humongous_count == 1
        vm.collector.collect_young()
        assert vm.heap.humongous_count == 0
