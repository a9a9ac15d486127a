"""The no-need sweep reads reachability, not presence.

:meth:`repro.heap.heap.SimHeap.mark_unused_pages_no_need` takes the mark
epoch of a trace and walks the objects the heap holds: a page still
holding dead, not-yet-reclaimed objects is advised away like an empty
one.
"""

import pytest

from repro.config import SimConfig
from repro.heap.heap import SimHeap


@pytest.fixture
def heap() -> SimHeap:
    return SimHeap(SimConfig.small())


class TestNoNeedSweepVsOccupancy:
    def test_dead_but_present_pages_are_advised_away(self, heap):
        """A page full of dead objects still holds them, yet must be
        advised no-need."""
        dead = [heap.allocate(1024) for _ in range(4)]
        kept = heap.allocate(1024, gen_id=heap.new_generation("dyn").gen_id)
        heap.trace_live([kept])
        heap.mark_unused_pages_no_need(heap.mark_epoch)
        present = heap.young.regions[0].objects
        for obj in dead:
            assert obj in present  # still in the heap
            for page in obj.page_span(heap.page_size):
                assert heap.page_table.is_no_need(page)  # but not live
        for page in kept.page_span(heap.page_size):
            assert not heap.page_table.is_no_need(page)

    def test_sweep_count_matches_legacy_definition(self, heap):
        objs = [heap.allocate(2048) for _ in range(16)]
        live = heap.trace_live(objs[::2])
        marked = heap.mark_unused_pages_no_need(heap.mark_epoch)
        needed = set()
        for obj in live:
            needed.update(obj.page_span(heap.page_size))
        assert marked == heap.page_table.num_pages - len(needed)
        assert set(heap.page_table.no_need_pages()) == (
            set(range(heap.page_table.num_pages)) - needed
        )
