"""Unit tests for the jmap baseline dumper."""

import pytest

from repro.config import CostModel, SimConfig
from repro.heap.evacuation import FixedDestination
from repro.heap.heap import SimHeap
from repro.snapshot.jmap import HPROF_EXPANSION, JmapDumper


@pytest.fixture
def heap() -> SimHeap:
    return SimHeap(SimConfig.small())


@pytest.fixture
def dumper() -> JmapDumper:
    return JmapDumper(CostModel())


class TestFullDumps:
    def test_dump_size_covers_all_live_objects(self, heap, dumper):
        objs = [heap.allocate(1024) for _ in range(10)]
        snap = dumper.dump(heap, objs, time_ms=0.0)
        assert snap.size_bytes >= int(10 * 1024 * HPROF_EXPANSION)
        assert not snap.incremental

    def test_every_dump_is_full(self, heap, dumper):
        objs = [heap.allocate(1024) for _ in range(10)]
        first = dumper.dump(heap, objs, time_ms=0.0)
        second = dumper.dump(heap, objs, time_ms=1.0)
        assert second.size_bytes == first.size_bytes

    def test_duration_has_large_fixed_cost(self, heap, dumper):
        snap = dumper.dump(heap, [], time_ms=0.0)
        assert snap.duration_us >= CostModel().jmap_fixed_us

    def test_live_ids_recorded(self, heap, dumper):
        objs = [heap.allocate(64) for _ in range(3)]
        snap = dumper.dump(heap, objs, time_ms=0.0)
        assert snap.live_object_ids == frozenset(o.object_id for o in objs)


class TestAddressInstability:
    def test_addresses_change_across_moves(self, heap, dumper):
        """Paper §4.3: jmap keys dumps by address; a GC move breaks the
        cross-snapshot identity of every moved object."""
        dest = heap.new_generation("dest")
        obj = heap.allocate(128)
        id_before = obj.object_id
        view_before = JmapDumper.address_keyed_view([obj])
        heap.trace_live([obj])
        heap.evacuate(
            list(heap.young.regions),
            heap.mark_epoch,
            heap.young,
            FixedDestination(dest),
        )
        view_after = JmapDumper.address_keyed_view([obj])
        assert set(view_before) != set(view_after)
        # ...while the identity hash survives the same move.
        assert obj.object_id == id_before
