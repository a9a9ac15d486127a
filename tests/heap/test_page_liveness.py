"""Incremental page-occupancy counters staying truthful under heap churn.

The counters are maintained at allocation, evacuation, and region
reclamation (never recomputed); these tests drive each of those paths and
check the counters against ground truth — both directly and through
:meth:`repro.heap.heap.SimHeap.verify`, which recounts from object
placement.
"""

import pytest

from repro.config import SimConfig
from repro.heap.evacuation import FixedDestination
from repro.heap.heap import SimHeap


@pytest.fixture
def heap() -> SimHeap:
    return SimHeap(SimConfig.small())


def occupancy_of(heap, obj):
    return [heap.page_table.occupancy(p) for p in obj.page_span(heap.page_size)]


class TestAllocationTracking:
    def test_allocation_counts_its_pages(self, heap):
        obj = heap.allocate(1024)
        assert all(count >= 1 for count in occupancy_of(heap, obj))
        heap.verify()

    def test_multiple_objects_share_a_page(self, heap):
        first = heap.allocate(64)
        second = heap.allocate(64)
        page = first.address // heap.page_size
        assert second.address // heap.page_size == page
        assert heap.page_table.occupancy(page) == 2
        heap.verify()

    def test_spanning_allocation_counts_every_page(self, heap):
        obj = heap.allocate(3 * heap.page_size)
        span = list(obj.page_span(heap.page_size))
        assert len(span) >= 3
        assert all(heap.page_table.occupancy(p) >= 1 for p in span)
        heap.verify()


class TestEvacuationTracking:
    def test_survivors_move_their_counts(self, heap):
        keep = [heap.allocate(1024) for _ in range(4)]
        for _ in range(60):
            heap.allocate(1024)  # garbage
        live = heap.trace_live(keep)
        assert len(live) == 4
        epoch = heap.mark_epoch
        old = heap.new_generation("old")
        young = heap.young
        heap.evacuate(list(young.regions), epoch, young, FixedDestination(old))
        # Only the four survivors remain anywhere in the heap.
        assert sum(heap.page_table.occupancy_snapshot()) == 4
        for obj in keep:
            assert all(count >= 1 for count in occupancy_of(heap, obj))
        heap.verify()

    def test_dead_region_pages_read_empty(self, heap):
        for _ in range(60):
            heap.allocate(1024)
        young = heap.young
        used_pages = {
            page
            for region in young.regions
            for page in region.page_span(heap.page_size)
        }
        heap.evacuate(
            list(young.regions),
            heap.new_mark_epoch(),
            young,
            FixedDestination(young),
        )
        assert all(heap.page_table.occupancy(p) == 0 for p in used_pages)
        heap.verify()

    def test_wholesale_region_free_untracks_objects(self, heap):
        gen = heap.new_generation("dyn")
        objs = [heap.allocate(1024, gen_id=gen.gen_id) for _ in range(8)]
        region = gen.regions[0]
        gen.release_region(region)
        heap.free_region(region)
        assert all(
            heap.page_table.occupancy(p) == 0
            for obj in objs
            for p in obj.page_span(heap.page_size)
        )
        heap.verify()


class TestHumongousTracking:
    def test_humongous_allocation_counts_its_span(self, heap):
        obj = heap.allocate(2 * heap.region_size)
        span = list(obj.page_span(heap.page_size))
        assert len(span) == 2 * heap.region_size // heap.page_size
        assert all(heap.page_table.occupancy(p) == 1 for p in span)
        heap.verify()

    def test_humongous_death_clears_its_span(self, heap):
        obj = heap.allocate(2 * heap.region_size)
        span = list(obj.page_span(heap.page_size))
        reclaimed, _ = heap.reclaim_dead_humongous(live_ids=set())
        assert reclaimed == 1
        assert all(heap.page_table.occupancy(p) == 0 for p in span)
        heap.verify()

    def test_humongous_death_by_epoch_clears_its_span(self, heap):
        dead = heap.allocate(2 * heap.region_size)
        kept = heap.allocate(2 * heap.region_size)
        heap.trace_live([kept])
        reclaimed, _ = heap.reclaim_dead_humongous(heap.mark_epoch)
        assert reclaimed == 1
        assert all(
            heap.page_table.occupancy(p) == 0
            for p in dead.page_span(heap.page_size)
        )
        assert all(
            heap.page_table.occupancy(p) == 1
            for p in kept.page_span(heap.page_size)
        )
        heap.verify()


class TestNoNeedSweepVsOccupancy:
    def test_dead_but_present_pages_are_advised_away(self, heap):
        """Occupancy is presence, not reachability: a page full of dead
        objects still counts as occupied yet must be advised no-need."""
        dead = [heap.allocate(1024) for _ in range(4)]
        kept = heap.allocate(1024, gen_id=heap.new_generation("dyn").gen_id)
        live = heap.trace_live([kept])
        heap.mark_unused_pages_no_need(live)
        for obj in dead:
            for page in obj.page_span(heap.page_size):
                assert heap.page_table.occupancy(page) >= 1  # still present
                assert heap.page_table.is_no_need(page)  # but not live
        for page in kept.page_span(heap.page_size):
            assert not heap.page_table.is_no_need(page)

    def test_sweep_count_matches_legacy_definition(self, heap):
        objs = [heap.allocate(2048) for _ in range(16)]
        live = heap.trace_live(objs[::2])
        marked = heap.mark_unused_pages_no_need(live)
        needed = set()
        for obj in live:
            needed.update(obj.page_span(heap.page_size))
        assert marked == heap.page_table.num_pages - len(needed)
        assert set(heap.page_table.no_need_pages()) == (
            set(range(heap.page_table.num_pages)) - needed
        )
