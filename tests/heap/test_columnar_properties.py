"""Property tests for the columnar region storage (hypothesis).

Three families of invariants guard the struct-of-arrays layout:

* **view round-trips** — mutating a :class:`HeapObject` lazy view (age,
  gen, address via evacuation) must land in the region columns, and
  column reads must agree with the view, slot for slot;
* **kernel equivalence** — the vectorized kernels (IdSet membership
  masks, lane aging, run sums) must match their scalar reference
  implementations on arbitrary inputs, including IdSet chunk boundaries;
* **engine equivalence** — columnar evacuation must produce exactly the
  placement (addresses, destination contents, page occupancy) of the
  per-object reference loop in :mod:`tests.heap.evacuation_reference`,
  and columns must stay coherent through evacuate/reset cycles (checked
  by ``SimHeap.verify``).
"""

from __future__ import annotations

from typing import List, Set

from hypothesis import given, settings, strategies as st

from repro.config import SimConfig
from repro.core.idset import IdSet
from repro.heap.evacuation import FixedDestination, SurvivorTenuring
from repro.heap.heap import SimHeap
from repro.heap.objects import HeapObject, reset_identity_hashes
from repro.heap.region import Region
from tests.heap.evacuation_reference import evacuate_objects

#: IdSet chunks are 2^16 wide; ids straddling a multiple of 65536 exercise
#: the cross-chunk stitching of ``extract_mask``.
CHUNK = 1 << 16


def fresh_heap() -> SimHeap:
    return SimHeap(SimConfig.small())


object_sizes = st.lists(
    st.integers(min_value=16, max_value=2048), min_size=1, max_size=60
)

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


def column_state(heap: SimHeap):
    """Canonical placement snapshot: (id, address, gen, age) per object."""
    state = []
    for gen in heap.generations.values():
        for region in gen.regions:
            for obj in region.objects:
                state.append((obj.object_id, obj.address, obj.gen_id, obj.age))
    return sorted(state)


class TestViewRoundTrips:
    @given(
        sizes=object_sizes,
        ages=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_age_writes_land_in_the_column(self, sizes, ages):
        heap = fresh_heap()
        objects = [heap.allocate(size) for size in sizes]
        for obj, age in zip(objects, ages):
            obj.age = age
        for obj in objects:
            region, slot = obj._region, obj._slot
            assert region._ages[slot] == obj.age

    @given(specs=graph_specs, threshold=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_columns_agree_with_views_after_evacuation(self, specs, threshold):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        old = heap.new_generation("old")
        epoch = heap.mark_epoch
        heap.trace_live(objects[:3])
        plan = SurvivorTenuring(heap.young, old, threshold)
        heap.evacuate(
            list(heap.young.regions), heap.mark_epoch, heap.young, plan
        )
        # verify() asserts per-slot column/view agreement (id, size, site,
        # age, address, generation) plus occupancy bookkeeping.
        heap.verify()
        assert heap.mark_epoch > epoch

    @given(specs=graph_specs)
    @settings(max_examples=30, deadline=None)
    def test_dead_views_detach_and_survivors_rebind(self, specs):
        heap = fresh_heap()
        objects = build_graph(heap, specs)
        live_ids = {o.object_id for o in heap.trace_live(objects[:2])}
        dest = heap.new_generation("dest")
        heap.evacuate(
            list(heap.young.regions),
            heap.mark_epoch,
            heap.young,
            FixedDestination(dest),
        )
        for obj in objects:
            if obj.object_id in live_ids:
                assert obj._region is not None
                assert obj._region.objects[obj._slot] is obj
            else:
                # Dead views detach but keep their last placement values.
                assert obj._region is None and obj._slot == -1
                assert obj.address >= 0


class TestKernelEquivalence:
    @given(
        lows=st.lists(
            st.integers(min_value=0, max_value=3 * CHUNK), min_size=0, max_size=200
        ),
        start=st.integers(min_value=0, max_value=3 * CHUNK),
        count=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_extract_mask_matches_membership(self, lows, start, count):
        ids = IdSet(lows)
        mask = ids.extract_mask(start, count)
        for i in range(count):
            assert bool(mask & (1 << i)) == ((start + i) in ids)

    @given(
        sizes=object_sizes,
        live_picks=st.lists(st.booleans(), min_size=1, max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_live_runs_match_flags_for_every_live_form(self, sizes, live_picks):
        region = Region(index=0, base=0, size=1 << 20)
        objects = [HeapObject(size=size) for size in sizes]
        for obj in objects:
            region.bump_allocate(obj)
        picks = (live_picks * len(objects))[: len(objects)]
        live_ids: Set[int] = {
            o.object_id for o, keep in zip(objects, picks) if keep
        }
        expected = [
            1 if o.object_id in live_ids else 0 for o in objects
        ]
        for live in (live_ids, frozenset(live_ids), IdSet(live_ids), sorted(live_ids)):
            runs = region.live_runs(live)
            got = [0] * len(objects)
            for a, b in runs:
                for i in range(a, b):
                    got[i] = 1
            assert got == expected
            assert list(region.mark_column) == expected
            assert region.live_bytes(live) == sum(
                o.size for o in objects if o.object_id in live_ids
            )

    @given(
        ages=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60),
        threshold=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_age_up_and_split_matches_scalar_reference(self, ages, threshold):
        region = Region(index=0, base=0, size=1 << 20)
        objects = []
        for age in ages:
            obj = HeapObject(size=16)
            obj.age = age
            region.bump_allocate(obj)
            objects.append(obj)
        splits = region.age_up_and_split(0, len(objects), threshold)
        # Sub-runs tile [0, n) in order and alternate verdicts.
        cursor = 0
        for a, b, promote in splits:
            assert a == cursor and b > a
            for i in range(a, b):
                assert region._ages[i] == ages[i] + 1
                assert (region._ages[i] >= threshold) == promote
            cursor = b
        assert cursor == len(objects)


class TestEngineEquivalence:
    @given(specs=graph_specs, root_count=st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_columnar_placement_equals_legacy_loop(self, specs, root_count):
        """Twin heaps, same graph: plan-driven evacuation must place every
        survivor at the same address as the per-object reference loop."""
        results = []
        for use_plan in (False, True):
            reset_identity_hashes()
            heap = fresh_heap()
            objects = build_graph(heap, specs)
            heap.trace_live(objects[:root_count])
            dest = heap.new_generation("dest")
            args = (list(heap.young.regions), heap.mark_epoch, heap.young)
            if use_plan:
                heap.evacuate(*args, FixedDestination(dest))
            else:
                evacuate_objects(heap, *args, lambda o: dest)
            heap.verify()
            results.append(
                (column_state(heap), heap.page_table.occupancy_snapshot())
            )
        assert results[0] == results[1]

    @given(
        specs=graph_specs,
        root_count=st.integers(min_value=1, max_value=4),
        threshold=st.integers(min_value=1, max_value=3),
        rounds=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_repeated_tenuring_matches_legacy(
        self, specs, root_count, threshold, rounds
    ):
        """Aging + promotion across several young collections: the lane
        kernels and the scalar closure must agree on every placement."""
        results = []
        for use_plan in (False, True):
            reset_identity_hashes()
            heap = fresh_heap()
            objects = build_graph(heap, specs)
            old = heap.new_generation("old")
            young = heap.young

            def legacy(obj):
                obj.age += 1
                return old if obj.age >= threshold else young

            for _ in range(rounds):
                heap.trace_live(objects[:root_count])
                args = (list(young.regions), heap.mark_epoch, young)
                if use_plan:
                    heap.evacuate(*args, SurvivorTenuring(young, old, threshold))
                else:
                    evacuate_objects(heap, *args, legacy)
            heap.verify()
            results.append(
                (column_state(heap), heap.page_table.occupancy_snapshot())
            )
        assert results[0] == results[1]

    @given(specs=graph_specs)
    @settings(max_examples=25, deadline=None)
    def test_columns_empty_after_reset(self, specs):
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
            for column in (
                region.id_column,
                region.size_column,
                region.site_column,
                region.offset_column,
                region.age_column,
                region.mark_column,
            ):
                assert len(column) == 0
        heap.verify()
