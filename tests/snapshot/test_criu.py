"""Unit tests for the CRIU-style incremental checkpoint engine."""

import pytest

from repro.config import CostModel, SimConfig
from repro.heap.heap import SimHeap
from repro.snapshot.criu import CRIUEngine


def ids(objs) -> frozenset:
    return frozenset(obj.object_id for obj in objs)


@pytest.fixture
def heap() -> SimHeap:
    return SimHeap(SimConfig.small())


@pytest.fixture
def engine() -> CRIUEngine:
    return CRIUEngine(CostModel())


class TestIncrementality:
    def test_first_snapshot_contains_dirty_pages(self, heap, engine):
        obj = heap.allocate(8192)
        snap = engine.checkpoint(heap, ids([obj]), time_ms=0.0)
        assert snap.pages_written >= 2
        assert snap.size_bytes == snap.pages_written * heap.page_size

    def test_dirty_bits_cleared_after_checkpoint(self, heap, engine):
        heap.allocate(4096)
        engine.checkpoint(heap, frozenset(), time_ms=0.0)
        assert heap.page_table.dirty_pages() == []

    def test_second_snapshot_is_delta(self, heap, engine):
        a = heap.allocate(8192)
        first = engine.checkpoint(heap, ids([a]), time_ms=0.0)
        b = heap.allocate(4096)
        second = engine.checkpoint(heap, ids([a, b]), time_ms=1.0)
        assert second.incremental
        assert not first.incremental
        assert second.pages_written < first.pages_written + second.pages_written
        assert second.size_bytes <= first.size_bytes

    def test_untouched_memory_not_redumped(self, heap, engine):
        heap.allocate(8192)
        engine.checkpoint(heap, frozenset(), time_ms=0.0)
        snap = engine.checkpoint(heap, frozenset(), time_ms=1.0)
        assert snap.pages_written == 0
        assert snap.size_bytes == 0

    def test_mutation_redirties(self, heap, engine):
        parent = heap.allocate(64)
        child = heap.allocate(64)
        engine.checkpoint(heap, ids([parent, child]), time_ms=0.0)
        heap.write_ref(parent, child)
        snap = engine.checkpoint(heap, ids([parent, child]), time_ms=1.0)
        assert snap.pages_written >= 1


class TestNoNeedSkipping:
    def test_no_need_pages_excluded(self, heap, engine):
        live = heap.allocate(4096)
        heap.allocate(16 * 4096)  # garbage
        heap.trace_live([live])
        heap.mark_unused_pages_no_need(heap.mark_epoch)
        snap = engine.checkpoint(heap, ids([live]), time_ms=0.0)
        # Only the live object's pages (and holder metadata) are written.
        live_pages = len(list(live.page_span(heap.page_size)))
        assert 1 <= snap.pages_written <= live_pages + 2


class TestLogicalContent:
    def test_live_ids_recorded(self, heap, engine):
        objs = [heap.allocate(64) for _ in range(5)]
        snap = engine.checkpoint(heap, ids(objs), time_ms=0.0)
        assert snap.live_object_ids == frozenset(o.object_id for o in objs)
        assert len(snap.live_object_ids) == 5

    def test_duration_scales_with_size(self, heap, engine):
        heap.allocate(64)
        small = engine.checkpoint(heap, frozenset(), time_ms=0.0)
        for _ in range(10):
            heap.allocate(3 * 4096)
        large = engine.checkpoint(heap, frozenset(), time_ms=1.0)
        assert large.duration_us > small.duration_us

    def test_sequence_numbers(self, heap, engine):
        s1 = engine.checkpoint(heap, frozenset(), time_ms=0.0)
        s2 = engine.checkpoint(heap, frozenset(), time_ms=1.0)
        assert (s1.seq, s2.seq) == (1, 2)
