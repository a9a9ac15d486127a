"""The simulated heap: address space, generations, tracing, evacuation."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import PAGE_SIZE, REGION_SIZE, YOUNG_GEN, SimConfig
from repro.core.idset import IdSet
from repro.errors import OutOfMemoryError, UnknownGenerationError
from repro.heap.evacuation import EvacuationPlan
from repro.heap.objects import HeapObject, reserve_identity_hashes
from repro.heap.page import PageTable
from repro.heap.region import Region
from repro.heap.space import Generation


class HeapStats:
    """Point-in-time heap statistics."""

    __slots__ = (
        "used_bytes",
        "committed_bytes",
        "free_regions",
        "object_count",
        "per_generation",
    )

    def __init__(
        self,
        used_bytes: int,
        committed_bytes: int,
        free_regions: int,
        object_count: int,
        per_generation: Dict[int, int],
    ) -> None:
        self.used_bytes = used_bytes
        self.committed_bytes = committed_bytes
        self.free_regions = free_regions
        self.object_count = object_count
        self.per_generation = per_generation


class SimHeap:
    """A region-based heap with a page table and named generations.

    The heap provides *mechanics* only — allocation, reference writes with
    store barriers (dirty-page marking), reachability tracing, evacuation,
    and page-advice marking.  Collection *policy* lives in :mod:`repro.gc`.
    """

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self.config = config or SimConfig()
        self.region_size = REGION_SIZE
        self.page_size = PAGE_SIZE
        num_regions = self.config.heap_bytes // self.region_size
        if num_regions < 4:
            raise ValueError("heap too small: needs at least 4 regions")
        self._regions = [
            Region(i, i * self.region_size, self.region_size)
            for i in range(num_regions)
        ]
        self._free_regions: List[Region] = list(reversed(self._regions))
        #: Humongous objects (larger than a region): object id -> the
        #: contiguous regions backing it.  As in G1, humongous objects
        #: are never moved; their regions are reclaimed wholesale when
        #: the object dies.
        self._humongous: Dict[int, List[Region]] = {}
        #: Reference-write listeners ``(parent, child_or_None)`` — used by
        #: exact lifetime tracers that must observe every pointer update
        #: (Merlin-style).  Empty in normal operation.
        self.ref_write_listeners: List = []
        #: The old->young remembered set: tenured objects known (possibly
        #: stale) to reference young objects, maintained by the write
        #: barrier.  Keyed by parent object id.  Consumed by collectors
        #: running with ``config.use_remembered_sets``.
        self.old_to_young_remset: Dict[int, HeapObject] = {}
        self.page_table = PageTable(self.config.heap_bytes, self.page_size)
        self.generations: Dict[int, Generation] = {}
        self._next_gen_id = 0
        #: Monotonic counters for accounting / experiments.
        self.total_allocated_bytes = 0
        self.total_allocated_objects = 0
        self.peak_committed_bytes = 0
        #: Current mark epoch.  ``obj.mark_epoch == heap.mark_epoch`` is the
        #: liveness test after a trace; every trace (full or partial) bumps
        #: the epoch so stale marks from earlier cycles can never read as
        #: live.  See docs/architecture.md, "Hot paths and invariants".
        self.mark_epoch = 0
        #: Trace-effort counters: how many full-heap and partial
        #: (remembered-set) traces have run.  Tests use these to assert the
        #: Recorder performs at most one full trace per snapshot.
        self.full_trace_count = 0
        self.partial_trace_count = 0
        # The young generation always exists (generation zero).
        self.new_generation("young")

    # -- generations ------------------------------------------------------------

    def new_generation(self, name: Optional[str] = None) -> Generation:
        """Create a generation (NG2C's ``System.newGeneration``)."""
        gen_id = self._next_gen_id
        self._next_gen_id += 1
        gen = Generation(gen_id, name or f"gen{gen_id}", self._claim_free_region)
        self.generations[gen_id] = gen
        return gen

    def generation(self, gen_id: int) -> Generation:
        try:
            return self.generations[gen_id]
        except KeyError:
            raise UnknownGenerationError(f"no generation with id {gen_id}") from None

    def retire_generation(self, gen_id: int) -> None:
        """Drop an empty dynamic generation (never the young generation)."""
        if gen_id == YOUNG_GEN:
            raise UnknownGenerationError("the young generation cannot be retired")
        gen = self.generation(gen_id)
        for region in gen.release_all_regions():
            self.free_region(region)
        gen.retired = True
        del self.generations[gen_id]

    @property
    def young(self) -> Generation:
        return self.generations[YOUNG_GEN]

    # -- region pool --------------------------------------------------------------

    def _claim_free_region(self) -> Optional[Region]:
        if not self._free_regions:
            return None
        region = self._free_regions.pop()
        committed = self.committed_bytes
        if committed > self.peak_committed_bytes:
            self.peak_committed_bytes = committed
        return region

    def free_region(self, region: Region) -> None:
        """Reset a region and return it to the free pool.

        Objects still listed in the region (wholesale reclamation of dead
        regions / cohorts / humongous runs) are removed from the page
        occupancy counters here; evacuation subtracts a region's occupancy
        itself and hands over an already-emptied region.
        """
        if region.objects:
            # One bulk occupancy pass over the offset column (the last
            # object's end covers humongous spans that exceed region.top).
            count = len(region.objects)
            self.page_table.adjust_occupancy_run(
                region.base,
                region._offsets,
                0,
                count,
                region._offsets[count - 1] + region._sizes[count - 1],
                -1,
            )
        region.reset()
        self._free_regions.append(region)

    @property
    def free_region_count(self) -> int:
        return len(self._free_regions)

    @property
    def committed_bytes(self) -> int:
        return (len(self._regions) - len(self._free_regions)) * self.region_size

    @property
    def used_bytes(self) -> int:
        return (
            sum(gen.used_bytes for gen in self.generations.values())
            + self.humongous_bytes
        )

    def stats(self) -> HeapStats:
        return HeapStats(
            used_bytes=self.used_bytes,
            committed_bytes=self.committed_bytes,
            free_regions=len(self._free_regions),
            object_count=sum(g.object_count for g in self.generations.values()),
            per_generation={
                gid: gen.used_bytes for gid, gen in self.generations.items()
            },
        )

    # -- allocation ---------------------------------------------------------------

    def allocate(
        self,
        size: int,
        gen_id: int = YOUNG_GEN,
        class_id: int = 0,
        site_id: int = 0,
        trace_id: int = 0,
        birth_cycle: int = 0,
        refs: Sequence[HeapObject] = (),
    ) -> HeapObject:
        """Allocate an object of ``size`` bytes into generation ``gen_id``.

        The newly written memory is marked dirty in the page table, exactly
        as the MMU would after the store of the object body.
        """
        try:
            gen = self.generations[gen_id]
        except KeyError:
            raise UnknownGenerationError(f"no generation with id {gen_id}") from None
        obj = HeapObject(size, class_id, site_id, trace_id, birth_cycle)
        if size > self.region_size:
            address = self._allocate_humongous(obj, gen_id)
        else:
            address = gen.allocate(obj)
        self.page_table.place_object(address, size)
        if refs:
            # A pretenured object born pointing at young children is an
            # old->young edge the write barrier would otherwise miss.
            if gen_id != YOUNG_GEN and any(
                child.gen_id == YOUNG_GEN for child in refs
            ):
                self.old_to_young_remset[obj.object_id] = obj
            obj._refs = list(refs)
        self.total_allocated_bytes += size
        self.total_allocated_objects += 1
        return obj

    def allocate_batch(
        self,
        sizes,
        starts,
        start: int,
        stop: int,
        gen_id: int = YOUNG_GEN,
        site_id: int = 0,
        trace_id: int = 0,
        birth_cycle: int = 0,
        materialize: bool = False,
    ) -> Tuple[int, Optional[List[HeapObject]]]:
        """Bulk-allocate batch objects ``[start, stop)`` into ``gen_id``.

        The columnar fast path behind :meth:`allocate`: one consecutive
        identity-hash block is reserved for the run, the generation
        extends its region columns chunk-wise, and no :class:`HeapObject`
        is boxed unless ``materialize`` asks for views (which then carry
        the given ``trace_id``/``birth_cycle``, exactly as scalar
        allocation would have stamped them).  Objects must each fit in a
        region (the caller routes humongous sizes through the scalar
        path).  Returns ``(first_object_id, views_or_None)``.
        """
        gen = self.generation(gen_id)
        count = stop - start
        first_id = reserve_identity_hashes(count)
        chunks = gen.allocate_batch(
            self.page_table, first_id - start, sizes, starts, start, stop,
            site_id,
        )
        total = starts[stop - 1] + sizes[stop - 1] - starts[start]
        self.total_allocated_bytes += total
        self.total_allocated_objects += count
        views: Optional[List[HeapObject]] = None
        if materialize:
            views = []
            append = views.append
            for region, base_slot, a, b in chunks:
                view_at = region.view_at
                for slot in range(base_slot, base_slot + (b - a)):
                    view = view_at(slot)
                    view.trace_id = trace_id
                    view.birth_cycle = birth_cycle
                    append(view)
        return first_id, views

    # -- humongous objects -----------------------------------------------------------

    def _allocate_humongous(self, obj: HeapObject, gen_id: int) -> int:
        """Place an over-region-size object into contiguous free regions.

        Mirrors G1's humongous allocation: the object starts at the base
        of the first region of a contiguous free run and is never moved.
        """
        needed = (obj.size + self.region_size - 1) // self.region_size
        run = self._find_contiguous_free(needed)
        if run is None:
            raise OutOfMemoryError(
                f"no {needed} contiguous free regions for a "
                f"{obj.size}-byte humongous object"
            )
        for region in run:
            self._free_regions.remove(region)
            region.gen_id = gen_id
            region.top = region.size  # fully claimed by the object
        obj.address = run[0].base
        obj.gen_id = gen_id
        run[0].adopt_humongous(obj)
        self._humongous[obj.object_id] = run
        committed = self.committed_bytes
        if committed > self.peak_committed_bytes:
            self.peak_committed_bytes = committed
        return obj.address

    def _find_contiguous_free(self, count: int) -> Optional[List[Region]]:
        free_indices = sorted(region.index for region in self._free_regions)
        by_index = {region.index: region for region in self._free_regions}
        run_start = None
        run_length = 0
        previous = None
        for index in free_indices:
            if previous is None or index != previous + 1:
                run_start = index
                run_length = 1
            else:
                run_length += 1
            previous = index
            if run_length >= count:
                start = run_start + run_length - count
                return [by_index[i] for i in range(start, start + count)]
        return None

    @property
    def humongous_count(self) -> int:
        return len(self._humongous)

    @property
    def humongous_bytes(self) -> int:
        regions = sum(len(run) for run in self._humongous.values())
        return regions * self.region_size

    def is_humongous(self, obj: HeapObject) -> bool:
        return obj.object_id in self._humongous

    def reclaim_dead_humongous(
        self, live_ids, only_young: bool = False
    ) -> Tuple[int, int]:
        """Free the regions of humongous objects no longer reachable.

        ``live_ids`` is either a ``Set[int]`` of live object ids or an
        ``int`` mark epoch (an object is live iff ``obj.mark_epoch`` equals
        it) — collectors on the fast path pass the epoch of their latest
        trace.

        Returns ``(objects_reclaimed, bytes_freed)``.  Collectors call
        this during their collections (G1 reclaims dead humongous
        objects eagerly at every young pause since 8u40).  With
        ``only_young`` (remembered-set collections, whose live set covers
        only the young generation) tenured humongous objects are left
        alone.
        """
        use_epoch = isinstance(live_ids, int)
        reclaimed = 0
        freed_bytes = 0
        for object_id in list(self._humongous):
            run = self._humongous[object_id]
            first = run[0].objects[0] if run[0].objects else None
            if use_epoch:
                if first is not None and first.mark_epoch == live_ids:
                    continue
            elif object_id in live_ids:
                continue
            if only_young and (first is None or first.gen_id != YOUNG_GEN):
                continue
            for region in self._humongous.pop(object_id):
                freed_bytes += region.size
                self.free_region(region)
            reclaimed += 1
        return reclaimed, freed_bytes

    # -- reference mutation (store barriers) ---------------------------------------

    def write_ref(self, parent: HeapObject, child: HeapObject) -> None:
        """Add ``parent -> child``; dirties the parent's pages."""
        parent._refs.append(child)
        address = parent.address
        if address >= 0:
            self.page_table.mark_dirty_range(address, parent.size)
        if parent.gen_id != YOUNG_GEN and child.gen_id == YOUNG_GEN:
            self.old_to_young_remset[parent.object_id] = parent
        if self.ref_write_listeners:
            for listener in self.ref_write_listeners:
                listener(parent, child)

    def remove_ref(self, parent: HeapObject, child: HeapObject) -> None:
        """Drop one ``parent -> child`` edge; dirties the parent's pages."""
        parent._remove_ref(child)
        self._dirty_object(parent)
        if self.ref_write_listeners:
            for listener in self.ref_write_listeners:
                listener(parent, None)

    def replace_refs(self, parent: HeapObject, children: Iterable[HeapObject]) -> None:
        """Replace all outgoing edges of ``parent``; dirties its pages."""
        parent._replace_refs(children)
        self._dirty_object(parent)
        if parent.gen_id != YOUNG_GEN and any(
            child.gen_id == YOUNG_GEN for child in parent._refs
        ):
            self.old_to_young_remset[parent.object_id] = parent
        if self.ref_write_listeners:
            for listener in self.ref_write_listeners:
                listener(parent, None)

    def clear_refs(self, parent: HeapObject) -> None:
        self.replace_refs(parent, ())

    def _dirty_object(self, obj: HeapObject) -> None:
        if obj.address >= 0:
            self.page_table.mark_dirty_range(obj.address, obj.size)

    # -- tracing --------------------------------------------------------------------

    def new_mark_epoch(self, partial: bool = False) -> int:
        """Advance and return the mark epoch for a fresh trace.

        Every trace — full-heap or partial — must call this first, so
        marks from prior cycles can never be mistaken for current ones.
        """
        self.mark_epoch += 1
        if partial:
            self.partial_trace_count += 1
        else:
            self.full_trace_count += 1
        return self.mark_epoch

    def trace_live(self, roots: Iterable[HeapObject]) -> List[HeapObject]:
        """Return every object reachable from ``roots`` (iterative DFS).

        Liveness is recorded as a mark epoch on each object instead of in
        a per-cycle visited set: marking is one int store, the membership
        test one int compare, and no set is ever built or hashed.  Children
        already marked are elided at push time; the ones that slip through
        (pushed twice before their first pop) are dropped at pop time, so
        the visit order — and hence the returned list — is identical to the
        historical visited-set DFS.
        """
        epoch = self.new_mark_epoch()
        live: List[HeapObject] = []
        append = live.append
        stack: List[HeapObject] = [r for r in roots if r is not None]
        pop = stack.pop
        push = stack.append
        while stack:
            obj = pop()
            if obj.mark_epoch == epoch:
                continue
            obj.mark_epoch = epoch
            append(obj)
            for child in obj._refs:
                if child.mark_epoch != epoch:
                    push(child)
        return live

    # -- evacuation -------------------------------------------------------------------

    def evacuate(
        self,
        regions: Sequence[Region],
        live,
        source_gen: Generation,
        plan: EvacuationPlan,
    ) -> Tuple[int, int, int]:
        """Copy live objects out of ``regions`` and reclaim the regions.

        Args:
            regions: collection-set regions (must belong to ``source_gen``).
            live: an ``int`` mark epoch from the collector's latest trace
                (an object survives iff ``obj.mark_epoch`` equals it), an
                :class:`~repro.core.idset.IdSet`, or a ``Set[int]`` of
                reachable object ids.
            source_gen: generation owning the regions.
            plan: the :class:`~repro.heap.evacuation.EvacuationPlan`
                mapping live position runs to destination generations.

        Returns:
            ``(survivor_bytes, promoted_bytes, scanned_objects)`` where
            promoted bytes are those copied into a *different* generation.

        Runs a region at a time over the columns.  Per source region: one
        bulk occupancy subtraction, one columnar mark pass collapsing
        liveness into position runs, a plan split into maximal
        same-destination sub-runs (lane-arithmetic aging for tenuring
        plans), and a column-slice copy per placed chunk.
        """
        survivor_bytes = 0
        promoted_bytes = 0
        scanned = 0
        page_table = self.page_table
        sync_ages = plan.sync_ages
        remset = self.old_to_young_remset
        for region in regions:
            source_gen.release_region(region)
        for region in regions:
            count = len(region.objects)
            scanned += count
            if count == 0:
                self.free_region(region)
                continue
            # Every scanned copy disappears (survivors move, the rest die):
            # one bulk occupancy pass over the whole region.
            page_table.adjust_occupancy_run(
                region.base, region._offsets, 0, count, region.top, -1
            )
            source_gen_id = region.gen_id
            for start, stop, dest in plan.split(region, region.live_runs(live)):
                placed = dest.place_slice(
                    page_table, region, start, stop, sync_ages=sync_ages
                )
                dest_gen_id = dest.gen_id
                if dest_gen_id != source_gen_id:
                    promoted_bytes += placed
                else:
                    survivor_bytes += placed
                if dest_gen_id != YOUNG_GEN:
                    for obj in region.objects[start:stop]:
                        if obj is None:
                            # Lazy batch placeholder: never materialized,
                            # so it cannot hold outgoing references.
                            continue
                        for child in obj._refs:
                            if child.gen_id == YOUNG_GEN:
                                # Promotion created an old->young edge.
                                remset[obj.object_id] = obj
                                break
            # Occupancy already handed over; don't untrack again on free.
            region.wipe_contents()
            self.free_region(region)
        return survivor_bytes, promoted_bytes, scanned

    # -- region queries ----------------------------------------------------------------

    def live_bytes_by_region(
        self, live_objects: Iterable[HeapObject]
    ) -> Dict[int, int]:
        """Map region index -> bytes of live data it holds."""
        per_region: Dict[int, int] = {}
        region_size = self.region_size
        for obj in live_objects:
            if obj.address < 0:
                continue
            index = obj.address // region_size
            per_region[index] = per_region.get(index, 0) + obj.size
        return per_region

    # -- invariant verification ---------------------------------------------------------

    def verify(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage.

        Used by property tests and available for debugging (like HotSpot's
        ``-XX:+VerifyBeforeGC``).  Checks: every region is either free or
        owned by exactly one generation (or a humongous run); bump
        pointers match object extents; generation byte accounting matches
        region contents; no two objects overlap.
        """
        owned = {}
        for gen in self.generations.values():
            for region in gen.regions:
                assert region.gen_id == gen.gen_id, (
                    f"region {region.index} tagged gen {region.gen_id} but "
                    f"owned by gen {gen.gen_id}"
                )
                assert region.index not in owned, (
                    f"region {region.index} owned twice"
                )
                owned[region.index] = gen.gen_id
        for run in self._humongous.values():
            for region in run:
                assert region.index not in owned, (
                    f"humongous region {region.index} also owned by a gen"
                )
                owned[region.index] = "humongous"
        for region in self._free_regions:
            assert region.index not in owned, (
                f"free region {region.index} also owned"
            )
            assert region.top == 0, f"free region {region.index} not reset"
        for gen in self.generations.values():
            actual = sum(r.used_bytes for r in gen.regions)
            assert gen.used_bytes == actual, (
                f"gen {gen.name}: accounted {gen.used_bytes} != {actual}"
            )
            for region in gen.regions:
                extent = sum(region._sizes)
                assert extent == region.top, (
                    f"region {region.index}: objects span {extent} bytes "
                    f"but bump pointer is {region.top}"
                )
                cursor = 0
                for slot in range(len(region._offsets)):
                    assert region._offsets[slot] == cursor, (
                        f"region {region.index} slot {slot}: offset "
                        f"{region._offsets[slot]}, expected {cursor}"
                    )
                    cursor += region._sizes[slot]
                self._verify_region_columns(region)
        for region in self._free_regions:
            assert not region.objects and len(region._ids) == 0, (
                f"free region {region.index} still holds column data"
            )
        # The incrementally maintained page occupancy counters must agree
        # with a from-scratch recount of every object present in the heap
        # (live or dead — occupancy is presence, not reachability).
        expected = [0] * self.page_table.num_pages
        page_size = self.page_size
        for region in self._regions:
            base = region.base
            offsets = region._offsets
            region_sizes = region._sizes
            for slot in range(len(offsets)):
                address = base + offsets[slot]
                first = address // page_size
                last = (address + region_sizes[slot] - 1) // page_size
                for page in range(first, last + 1):
                    expected[page] += 1
        actual_occupancy = self.page_table.occupancy_snapshot()
        assert actual_occupancy == expected, (
            "page occupancy counters drifted from object placement: "
            + str(
                [
                    (page, expected[page], actual_occupancy[page])
                    for page in range(len(expected))
                    if expected[page] != actual_occupancy[page]
                ][:10]
            )
        )

    def _verify_region_columns(self, region: Region) -> None:
        """Columns and views must describe the same objects slot for slot."""
        count = len(region.objects)
        for column in (
            region._ids,
            region._sizes,
            region._sites,
            region._offsets,
            region._ages,
        ):
            assert len(column) == count, (
                f"region {region.index}: column length {len(column)} != "
                f"{count} objects"
            )
        ids = region._ids
        expected_breaks = [
            slot
            for slot in range(1, count)
            if ids[slot] != ids[slot - 1] + 1
        ]
        assert list(region._id_breaks) == expected_breaks, (
            f"region {region.index}: id-break index "
            f"{list(region._id_breaks)} != recomputed {expected_breaks}"
        )
        base = region.base
        gen_id = region.gen_id
        for slot, obj in enumerate(region.objects):
            if obj is None:
                # Lazy batch placeholder: the columns alone describe it.
                continue
            assert obj._region is region and obj._slot == slot, (
                f"object {obj.object_id} view points at "
                f"({obj._region and obj._region.index}, {obj._slot}), "
                f"expected ({region.index}, {slot})"
            )
            assert (
                region._ids[slot] == obj.object_id
                and region._sizes[slot] == obj.size
                and region._sites[slot] == obj.site_id
                and region._ages[slot] == obj.age
                and base + region._offsets[slot] == obj.address
            ), f"region {region.index} slot {slot}: column/view mismatch"
            assert obj.gen_id == gen_id, (
                f"object {obj.object_id} tagged gen {obj.gen_id} inside "
                f"a gen-{gen_id} region"
            )

    # -- page advice (paper §3.2 / §4.2) --------------------------------------------

    def mark_unused_pages_no_need(
        self,
        live_objects: Iterable[HeapObject],
        live_ids: Optional[IdSet] = None,
    ) -> int:
        """Set the no-need bit on every page holding no live object.

        This models the NG2C modification that POLM2's Recorder invokes
        before each snapshot: walk the heap, madvise away pages with no
        reachable data so CRIU skips them.  Returns the number of pages
        marked.

        Pages of regions that were just evacuated and freed are advised
        away too: they are still dirty from their old contents but hold
        nothing reachable.  Note liveness here is *reachability*, not page
        occupancy — a page can be fully occupied by dead-but-not-yet
        -reclaimed objects and still be advised away — so the sweep takes
        the live set, not the occupancy counters.

        The sweep rides the columnar kernels: per region, one
        :meth:`Region.live_runs` pass, then one page-span slice store per
        *run* of live objects (objects tile contiguously, so a run's page
        span is the union of its objects' spans).  Humongous objects are
        handled off the ``_humongous`` index.  Callers that already hold
        the live set as an :class:`IdSet` pass it via ``live_ids`` to
        skip rebuilding it.
        """
        table = self.page_table
        needed = bytearray(table.num_pages)
        page_size = self.page_size
        if live_ids is None:
            live_ids = IdSet(obj.object_id for obj in live_objects)
        for gen in self.generations.values():
            for region in gen.regions:
                if not region.objects:
                    continue
                base = region.base
                offsets = region._offsets
                count = len(offsets)
                top = region.top
                for a, b in region.live_runs(live_ids):
                    first = (base + offsets[a]) // page_size
                    end = base + (top if b == count else offsets[b])
                    last = (end - 1) // page_size
                    if first == last:
                        needed[first] = 1
                    else:
                        needed[first : last + 1] = b"\x01" * (last + 1 - first)
        for object_id, run in self._humongous.items():
            if object_id in live_ids:
                obj = run[0].objects[0]
                first = obj.address // page_size
                last = (obj.address + obj.size - 1) // page_size
                needed[first : last + 1] = b"\x01" * (last + 1 - first)
        return table.rewrite_no_need(needed)
