"""Property-based tests for heap invariants (hypothesis)."""

from __future__ import annotations

from typing import List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.config import PAGE_SIZE, SimConfig
from repro.heap.evacuation import FixedDestination
from repro.heap.heap import SimHeap
from repro.heap.objects import HeapObject


def fresh_heap() -> SimHeap:
    return SimHeap(SimConfig.small())


#: (size, parent index or None) specs for building random object graphs.
graph_specs = st.lists(
    st.tuples(
        st.integers(min_value=16, max_value=2048),
        st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
    ),
    min_size=1,
    max_size=60,
)


def build_graph(heap: SimHeap, specs) -> List[HeapObject]:
    objects: List[HeapObject] = []
    for size, parent in specs:
        obj = heap.allocate(size)
        if parent is not None and objects:
            heap.write_ref(objects[parent % len(objects)], obj)
        objects.append(obj)
    return objects


def reachable_closure(roots: List[HeapObject]) -> Set[int]:
    """Reference implementation of reachability (plain BFS)."""
    seen: Set[int] = set()
    queue = list(roots)
    while queue:
        obj = queue.pop()
        if obj.object_id in seen:
            continue
        seen.add(obj.object_id)
        queue.extend(obj.refs)
    return seen


class TestTracingProperties:
    @given(specs=graph_specs)
    @settings(max_examples=40, deadline=None)
    def test_trace_matches_reference_bfs(self, specs):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        roots = objects[:1]
        live = heap.trace_live(roots)
        assert {o.object_id for o in live} == reachable_closure(roots)

    @given(specs=graph_specs)
    @settings(max_examples=40, deadline=None)
    def test_trace_is_subset_of_allocated(self, specs):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        live = heap.trace_live(objects[:2])
        allocated = {o.object_id for o in objects}
        assert {o.object_id for o in live} <= allocated


class TestAccountingProperties:
    @given(
        sizes=st.lists(
            st.integers(min_value=16, max_value=3 * PAGE_SIZE), max_size=80
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_used_bytes_equals_sum_of_sizes(self, sizes):
        heap = fresh_heap()
        # Stale advice everywhere: a fresh object write must clear it.
        heap.page_table.set_no_need(range(heap.page_table.num_pages))
        objects = [heap.allocate(size) for size in sizes]
        assert heap.young.used_bytes == sum(sizes)
        # verify() recounts page occupancy from the object placement,
        # which pins the fused page write for objects that straddle a
        # page boundary or span several pages.
        heap.verify()
        table = heap.page_table
        for obj in objects:
            for page in obj.page_span(heap.page_size):
                assert table.is_dirty(page) and not table.is_no_need(page)

    @given(sizes=st.lists(st.integers(min_value=16, max_value=4096), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_committed_never_below_used(self, sizes):
        heap = fresh_heap()
        for size in sizes:
            heap.allocate(size)
        assert heap.committed_bytes >= heap.used_bytes


class TestEvacuationProperties:
    @given(specs=graph_specs, root_count=st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_evacuation_preserves_live_set(self, specs, root_count):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        roots = objects[:root_count]
        live_before = reachable_closure(roots)
        dest = heap.new_generation("dest")
        heap.evacuate(
            list(heap.young.regions),
            live_before,
            heap.young,
            FixedDestination(dest),
        )
        live_after = {o.object_id for o in heap.trace_live(roots)}
        assert live_after == live_before

    @given(specs=graph_specs)
    @settings(max_examples=30, deadline=None)
    def test_evacuated_bytes_bounded_by_live_bytes(self, specs):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        live_ids = reachable_closure(objects[:1])
        live_bytes = sum(o.size for o in objects if o.object_id in live_ids)
        dest = heap.new_generation("dest")
        survivor, promoted, _ = heap.evacuate(
            list(heap.young.regions),
            live_ids,
            heap.young,
            FixedDestination(dest),
        )
        assert survivor + promoted == live_bytes

    @given(specs=graph_specs)
    @settings(max_examples=30, deadline=None)
    def test_dead_objects_not_in_destination(self, specs):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        live_ids = reachable_closure(objects[:1])
        dest = heap.new_generation("dest")
        heap.evacuate(
            list(heap.young.regions),
            live_ids,
            heap.young,
            FixedDestination(dest),
        )
        dest_ids = {o.object_id for o in dest.iter_objects()}
        assert dest_ids == live_ids


class TestPageAdviceProperties:
    @given(specs=graph_specs)
    @settings(max_examples=30, deadline=None)
    def test_live_pages_never_marked_no_need(self, specs):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        live = heap.trace_live(objects[:3])
        heap.mark_unused_pages_no_need(live)
        for obj in live:
            for page in obj.page_span(heap.page_size):
                assert not heap.page_table.is_no_need(page)
