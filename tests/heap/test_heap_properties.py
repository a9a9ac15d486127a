"""Property-based tests for heap invariants (hypothesis).

Evacuation is also checked against the plain per-object reference in
:mod:`tests.heap.evacuation_reference` on twin heaps built from the same
graph: placements, ages, promotions, remembered-set entries and page
bits must all agree.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.config import PAGE_SIZE, SimConfig
from repro.heap.evacuation import FixedDestination, SurvivorTenuring
from repro.heap.heap import SimHeap
from repro.heap.objects import HeapObject, reset_identity_hashes
from tests.heap.evacuation_reference import evacuate_objects


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
        heap.verify()
        # Objects that straddle a page boundary or span several pages
        # take the multi-page branch of the page write.
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
        heap.trace_live(roots)
        dest = heap.new_generation("dest")
        heap.evacuate(
            list(heap.young.regions),
            heap.mark_epoch,
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
        heap.trace_live(objects[:1])
        dest = heap.new_generation("dest")
        survivor, promoted, _ = heap.evacuate(
            list(heap.young.regions),
            heap.mark_epoch,
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
        heap.trace_live(objects[:1])
        dest = heap.new_generation("dest")
        heap.evacuate(
            list(heap.young.regions),
            heap.mark_epoch,
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
        heap.mark_unused_pages_no_need(heap.mark_epoch)
        for obj in live:
            for page in obj.page_span(heap.page_size):
                assert not heap.page_table.is_no_need(page)


def heap_state(heap: SimHeap, counts):
    """Everything evacuation decides: (id, address, gen, age) per object,
    the returned byte counts, the remembered set and the page bits."""
    placements = sorted(
        (obj.object_id, obj.address, obj.gen_id, obj.age)
        for gen in heap.generations.values()
        for obj in gen.iter_objects()
    )
    table = heap.page_table
    return (
        placements,
        counts,
        list(heap.old_to_young_remset),
        table.dirty_pages(),
        table.no_need_pages(),
    )


class TestEngineEquivalence:
    @given(specs=graph_specs, root_count=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_placement_equals_reference_loop(self, specs, root_count):
        """Twin heaps, same graph: plan-driven evacuation must place every
        survivor where the per-object reference loop does."""
        results = []
        for use_plan in (False, True):
            reset_identity_hashes()
            heap = fresh_heap()
            objects = build_graph(heap, specs)
            heap.trace_live(objects[:root_count])
            dest = heap.new_generation("dest")
            args = (list(heap.young.regions), heap.mark_epoch, heap.young)
            if use_plan:
                counts = heap.evacuate(*args, FixedDestination(dest))
            else:
                counts = evacuate_objects(heap, *args, lambda o: dest)
            heap.verify()
            results.append(heap_state(heap, counts))
        assert results[0] == results[1]

    @given(
        specs=graph_specs,
        root_count=st.integers(min_value=1, max_value=4),
        threshold=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_repeated_tenuring_matches_reference(
        self, specs, root_count, threshold, rounds
    ):
        """Aging + promotion across several young collections: the
        tenuring plan and the reference closure must agree everywhere."""
        results = []
        for use_plan in (False, True):
            reset_identity_hashes()
            heap = fresh_heap()
            objects = build_graph(heap, specs)
            old = heap.new_generation("old")
            young = heap.young

            def reference(obj):
                obj.age += 1
                return old if obj.age >= threshold else young

            counts = []
            for _ in range(rounds):
                heap.trace_live(objects[:root_count])
                args = (list(young.regions), heap.mark_epoch, young)
                if use_plan:
                    plan = SurvivorTenuring(young, old, threshold)
                    counts.append(heap.evacuate(*args, plan))
                else:
                    counts.append(evacuate_objects(heap, *args, reference))
            heap.verify()
            results.append(heap_state(heap, counts))
        assert results[0] == results[1]

    @given(specs=graph_specs)
    @settings(max_examples=25, deadline=None)
    def test_sources_empty_after_evacuation(self, specs):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        heap.trace_live(objects[:1])
        dest = heap.new_generation("dest")
        sources = list(heap.young.regions)
        heap.evacuate(
            sources, heap.mark_epoch, heap.young, FixedDestination(dest)
        )
        for region in sources:
            assert region.top == 0 and region.gen_id is None
            assert not region.objects
        heap.verify()
