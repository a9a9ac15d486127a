"""Unit tests for SimHeap: allocation, barriers, tracing, evacuation."""

import pytest

from repro.config import SimConfig, YOUNG_GEN
from repro.errors import UnknownGenerationError
from repro.heap.evacuation import FixedDestination
from repro.heap.heap import SimHeap
from repro.heap.objects import NO_REFS


@pytest.fixture
def heap() -> SimHeap:
    return SimHeap(SimConfig.small())


class TestGenerations:
    def test_young_exists_at_birth(self, heap):
        assert heap.young.gen_id == YOUNG_GEN

    def test_new_generation_gets_fresh_id(self, heap):
        gen = heap.new_generation("dyn")
        assert gen.gen_id == 1
        assert heap.generation(1) is gen

    def test_unknown_generation(self, heap):
        with pytest.raises(UnknownGenerationError):
            heap.generation(99)

    def test_retire_generation_frees_regions(self, heap):
        gen = heap.new_generation()
        heap.allocate(64, gen_id=gen.gen_id)
        free_before = heap.free_region_count
        heap.retire_generation(gen.gen_id)
        assert heap.free_region_count == free_before + 1
        with pytest.raises(UnknownGenerationError):
            heap.generation(gen.gen_id)

    def test_young_cannot_be_retired(self, heap):
        with pytest.raises(UnknownGenerationError):
            heap.retire_generation(YOUNG_GEN)


class TestAllocation:
    def test_allocate_into_young(self, heap):
        obj = heap.allocate(128)
        assert obj.gen_id == YOUNG_GEN
        assert heap.young.used_bytes == 128

    def test_allocate_dirties_pages(self, heap):
        obj = heap.allocate(128)
        pages = list(obj.page_span(heap.page_size))
        assert all(heap.page_table.is_dirty(p) for p in pages)

    def test_allocate_with_refs(self, heap):
        child = heap.allocate(64)
        parent = heap.allocate(64, refs=[child])
        assert parent.refs == [child]

    def test_allocate_with_no_refs_keeps_no_list(self, heap):
        assert heap.allocate(64)._refs is NO_REFS
        assert heap.allocate(64, refs=[])._refs is NO_REFS

    def test_counters(self, heap):
        heap.allocate(128)
        heap.allocate(64)
        assert heap.total_allocated_bytes == 192
        assert heap.total_allocated_objects == 2

    def test_peak_committed_tracks_high_water(self, heap):
        before = heap.peak_committed_bytes
        heap.allocate(64)
        assert heap.peak_committed_bytes >= max(before, heap.region_size)


class TestStoreBarriers:
    def test_write_ref_links_and_dirties(self, heap):
        parent = heap.allocate(64)
        child = heap.allocate(64)
        heap.page_table.clear_dirty()
        heap.write_ref(parent, child)
        assert child in parent.refs
        assert heap.page_table.is_dirty(parent.address // heap.page_size)

    def test_remove_ref(self, heap):
        parent = heap.allocate(64)
        child = heap.allocate(64)
        heap.write_ref(parent, child)
        heap.remove_ref(parent, child)
        assert parent.refs == []

    def test_replace_and_clear_refs(self, heap):
        parent = heap.allocate(64)
        kids = [heap.allocate(64) for _ in range(3)]
        heap.replace_refs(parent, kids)
        assert parent.refs == kids
        heap.clear_refs(parent)
        assert parent.refs == []
        assert parent._refs is NO_REFS
        heap.replace_refs(parent, kids)
        heap.replace_refs(parent, ())
        assert parent._refs is NO_REFS

    def test_first_write_gives_leaf_its_own_list(self, heap):
        parent, other = heap.allocate(64), heap.allocate(64)
        child = heap.allocate(64)
        heap.write_ref(parent, child)
        assert type(parent._refs) is list
        assert parent.refs == [child]
        # The shared empty value never takes a write.
        assert other._refs is NO_REFS
        assert other.refs == []
        assert NO_REFS == ()

    def test_remove_absent_ref_raises_value_error(self, heap):
        leaf, parent = heap.allocate(64), heap.allocate(64)
        child, stranger = heap.allocate(64), heap.allocate(64)
        heap.write_ref(parent, child)
        with pytest.raises(ValueError):
            heap.remove_ref(leaf, stranger)
        with pytest.raises(ValueError):
            heap.remove_ref(parent, stranger)
        assert parent.refs == [child]


class TestFreeAll:
    def test_returns_every_region_and_keeps_counters(self, heap):
        dyn = heap.new_generation("dyn")
        child = heap.allocate(64)
        parent = heap.allocate(64, gen_id=dyn.gen_id, refs=[child])
        heap.allocate(2 * heap.region_size)  # humongous
        assert heap.old_to_young_remset == {parent.object_id: parent}
        counters = (
            heap.total_allocated_objects,
            heap.total_allocated_bytes,
            heap.peak_committed_bytes,
        )
        heap.free_all()
        heap.verify()
        assert heap.committed_bytes == 0
        assert heap.humongous_count == 0
        assert heap.old_to_young_remset == {}
        assert heap.stats().object_count == 0
        assert set(heap.generations) == {YOUNG_GEN, dyn.gen_id}
        assert counters == (
            heap.total_allocated_objects,
            heap.total_allocated_bytes,
            heap.peak_committed_bytes,
        )


class TestTracing:
    def test_unreferenced_object_not_live(self, heap):
        root = heap.allocate(64)
        heap.allocate(64)  # garbage
        live = heap.trace_live([root])
        assert len(live) == 1

    def test_transitive_reachability(self, heap):
        c = heap.allocate(64)
        b = heap.allocate(64, refs=[c])
        a = heap.allocate(64, refs=[b])
        live = heap.trace_live([a])
        assert {o.object_id for o in live} == {a.object_id, b.object_id, c.object_id}

    def test_cycles_terminate(self, heap):
        a = heap.allocate(64)
        b = heap.allocate(64)
        heap.write_ref(a, b)
        heap.write_ref(b, a)
        live = heap.trace_live([a])
        assert len(live) == 2

    def test_multiple_roots_deduplicated(self, heap):
        shared = heap.allocate(64)
        r1 = heap.allocate(64, refs=[shared])
        r2 = heap.allocate(64, refs=[shared])
        live = heap.trace_live([r1, r2])
        assert len(live) == 3

    def test_none_roots_ignored(self, heap):
        assert heap.trace_live([None]) == []


class TestEvacuation:
    def test_survivors_move_and_keep_ids(self, heap):
        old = heap.new_generation("old")
        live_obj = heap.allocate(128)
        dead_obj = heap.allocate(128)
        original_id = live_obj.object_id
        heap.trace_live([live_obj])
        regions = list(heap.young.regions)
        survivor, promoted, scanned = heap.evacuate(
            regions, heap.mark_epoch, heap.young, FixedDestination(old)
        )
        assert scanned == 2
        assert promoted == 128
        assert survivor == 0
        assert live_obj.object_id == original_id
        assert live_obj.gen_id == old.gen_id

    def test_source_regions_freed(self, heap):
        heap.allocate(128)
        free_before = heap.free_region_count
        regions = list(heap.young.regions)
        heap.evacuate(
            regions,
            heap.new_mark_epoch(),  # nothing marked: everything is dead
            heap.young,
            FixedDestination(heap.young),
        )
        assert heap.free_region_count == free_before + len(regions)

    def test_within_generation_counts_as_survivor(self, heap):
        obj = heap.allocate(128)
        heap.trace_live([obj])
        regions = list(heap.young.regions)
        survivor, promoted, _ = heap.evacuate(
            regions, heap.mark_epoch, heap.young, FixedDestination(heap.young)
        )
        assert survivor == 128
        assert promoted == 0

    def test_destination_pages_dirtied(self, heap):
        old = heap.new_generation("old")
        obj = heap.allocate(128)
        heap.trace_live([obj])
        heap.page_table.clear_dirty()
        heap.evacuate(
            list(heap.young.regions),
            heap.mark_epoch,
            heap.young,
            FixedDestination(old),
        )
        assert heap.page_table.is_dirty(obj.address // heap.page_size)


class TestRegionQueries:
    def test_live_bytes_by_region(self, heap):
        a = heap.allocate(100)
        b = heap.allocate(200)
        per_region = heap.live_bytes_by_region([a, b])
        index = a.address // heap.region_size
        assert per_region[index] == 300


class TestNoNeedMarking:
    def test_unused_pages_marked(self, heap):
        live_obj = heap.allocate(64)
        heap.trace_live([live_obj])
        marked = heap.mark_unused_pages_no_need(heap.mark_epoch)
        assert marked > 0
        live_page = live_obj.address // heap.page_size
        assert not heap.page_table.is_no_need(live_page)

    def test_all_pages_marked_when_nothing_live(self, heap):
        heap.allocate(64)
        marked = heap.mark_unused_pages_no_need(heap.new_mark_epoch())
        assert marked == heap.page_table.num_pages
