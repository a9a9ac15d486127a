"""The simulated heap: address space, generations, tracing, evacuation."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import PAGE_SIZE, REGION_SIZE, YOUNG_GEN, SimConfig
from repro.errors import OutOfMemoryError, UnknownGenerationError
from repro.heap.evacuation import EvacuationPlan
from repro.heap.objects import NO_REFS, HeapObject
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
        """Reset a region and return it to the free pool."""
        region.reset()
        self._free_regions.append(region)

    def free_all(self) -> None:
        """Return every region, of every generation and every humongous
        run, to the free pool and empty the remembered set: the heap then
        holds no object.  The generations stay, empty, and so do the
        allocation counters and ``peak_committed_bytes``.
        """
        for gen in self.generations.values():
            for region in gen.release_all_regions():
                self.free_region(region)
        for run in self._humongous.values():
            for region in run:
                self.free_region(region)
        self._humongous.clear()
        self.old_to_young_remset.clear()

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
        site_id: int = 0,
        trace_id: int = 0,
        refs: Sequence[HeapObject] = (),
    ) -> HeapObject:
        """Allocate an object of ``size`` bytes into generation ``gen_id``.

        The newly written memory is marked dirty in the page table, exactly
        as the MMU would after the store of the object body.  The object
        gets a list of references only when ``refs`` is non-empty.
        """
        try:
            gen = self.generations[gen_id]
        except KeyError:
            raise UnknownGenerationError(f"no generation with id {gen_id}") from None
        obj = HeapObject(size, site_id, trace_id)
        if size > self.region_size:
            address = self._allocate_humongous(obj, gen_id)
        else:
            address = gen.allocate(obj)
        self.page_table.mark_written_range(address, size)
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
        sizes: Sequence[int],
        gen_id: int = YOUNG_GEN,
        site_id: int = 0,
        trace_id: int = 0,
    ) -> List[HeapObject]:
        """:meth:`allocate` once per entry of ``sizes``, in order.

        Nothing under ``src/`` calls this: it is kept only because the
        end-to-end benchmark's tracer wraps it by name.  Delete it together
        with the benchmark's ``heap.allocate_batch.*`` metrics (the open
        benchmark item in ROADMAP.md).
        """
        return [self.allocate(size, gen_id, site_id, trace_id) for size in sizes]

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
        run[0].objects.append(obj)
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
        self, epoch: int, only_young: bool = False
    ) -> Tuple[int, int]:
        """Free the regions of humongous objects no longer reachable.

        ``epoch`` is the mark epoch of the collector's latest trace: a
        humongous object is live iff its ``mark_epoch`` equals it.

        Returns ``(objects_reclaimed, bytes_freed)``.  Collectors call
        this during their collections (G1 reclaims dead humongous
        objects eagerly at every young pause since 8u40).  With
        ``only_young`` (remembered-set collections, whose trace covers
        only the young generation) tenured humongous objects are left
        alone.
        """
        reclaimed = 0
        freed_bytes = 0
        for object_id in list(self._humongous):
            obj = self._humongous[object_id][0].objects[0]
            if obj.mark_epoch == epoch:
                continue
            if only_young and obj.gen_id != YOUNG_GEN:
                continue
            for region in self._humongous.pop(object_id):
                freed_bytes += region.size
                self.free_region(region)
            reclaimed += 1
        return reclaimed, freed_bytes

    # -- reference mutation (store barriers) ---------------------------------------

    def write_ref(self, parent: HeapObject, child: HeapObject) -> None:
        """Add ``parent -> child``; dirties the parent's pages.

        A leaf's first child gives it a list of its own.
        """
        refs = parent._refs
        if refs is NO_REFS:
            parent._refs = [child]
        else:
            refs.append(child)
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
        epoch: int,
        source_gen: Generation,
        plan: EvacuationPlan,
    ) -> Tuple[int, int, int]:
        """Copy live objects out of ``regions`` and reclaim the regions.

        Args:
            regions: collection-set regions (must belong to ``source_gen``).
            epoch: the mark epoch of the collector's latest trace; an
                object survives iff its ``mark_epoch`` equals it.
            source_gen: generation owning the regions.
            plan: the :class:`~repro.heap.evacuation.EvacuationPlan`
                naming each survivor's destination generation.

        Returns:
            ``(survivor_bytes, promoted_bytes, scanned_objects)`` where
            promoted bytes are those copied into a *different* generation.

        One loop over the survivors, region by region in allocation
        order: the plan names the destination, the object is bumped into
        it, its new pages are marked written, and a survivor placed
        outside the young generation that points at a young object joins
        the old->young remembered set.  Each source region is freed as
        soon as its survivors have moved, so a later destination region
        may reuse it.
        """
        survivor_bytes = 0
        promoted_bytes = 0
        scanned = 0
        mark_written = self.page_table.mark_written_range
        remset = self.old_to_young_remset
        destination = plan.destination
        for region in regions:
            source_gen.release_region(region)
        for region in regions:
            objects = region.objects
            scanned += len(objects)
            source_gen_id = region.gen_id
            for obj in objects:
                if obj.mark_epoch != epoch:
                    continue
                dest = destination(obj)
                size = obj.size
                mark_written(dest.allocate(obj), size)
                dest_gen_id = dest.gen_id
                if dest_gen_id != source_gen_id:
                    promoted_bytes += size
                else:
                    survivor_bytes += size
                if dest_gen_id != YOUNG_GEN:
                    for child in obj._refs:
                        if child.gen_id == YOUNG_GEN:
                            # Promotion created an old->young edge.
                            remset[obj.object_id] = obj
                            break
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
        owned by exactly one generation (or a humongous run); a region's
        objects tile ``[0, top)`` in order and carry its generation;
        generation byte accounting matches region contents.
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
            assert region.top == 0 and not region.objects, (
                f"free region {region.index} not reset"
            )
        for gen in self.generations.values():
            actual = sum(r.used_bytes for r in gen.regions)
            assert gen.used_bytes == actual, (
                f"gen {gen.name}: accounted {gen.used_bytes} != {actual}"
            )
            for region in gen.regions:
                cursor = region.base
                for obj in region.objects:
                    assert obj.address == cursor, (
                        f"region {region.index}: object {obj.object_id} at "
                        f"{obj.address}, expected {cursor}"
                    )
                    assert obj.gen_id == gen.gen_id, (
                        f"object {obj.object_id} tagged gen {obj.gen_id} "
                        f"inside a gen-{gen.gen_id} region"
                    )
                    cursor += obj.size
                assert cursor == region.base + region.top, (
                    f"region {region.index}: objects span "
                    f"{cursor - region.base} bytes but bump pointer is "
                    f"{region.top}"
                )

    # -- page advice (paper §3.2 / §4.2) --------------------------------------------

    def mark_unused_pages_no_need(self, epoch: int) -> int:
        """Set the no-need bit on every page holding no live object.

        This models the NG2C modification that POLM2's Recorder invokes
        before each snapshot: walk the heap, madvise away pages with no
        reachable data so CRIU skips them.  ``epoch`` is the mark epoch
        of a full trace: an object is live iff its ``mark_epoch`` equals
        it.  Returns the number of pages marked.

        The sweep walks every generation's regions and the humongous
        runs, so only objects the heap holds count: pages of regions
        that were just evacuated and freed are advised away too (still
        dirty from their old contents, holding nothing reachable), and
        so are pages full of dead objects not yet reclaimed.
        """
        table = self.page_table
        needed = bytearray(table.num_pages)
        page_size = self.page_size
        regions = [
            region
            for gen in self.generations.values()
            for region in gen.regions
        ]
        regions.extend(run[0] for run in self._humongous.values())
        for region in regions:
            for obj in region.objects:
                if obj.mark_epoch == epoch:
                    address = obj.address
                    first = address // page_size
                    last = (address + obj.size - 1) // page_size
                    if first == last:
                        needed[first] = 1
                    else:
                        needed[first : last + 1] = b"\x01" * (last + 1 - first)
        return table.rewrite_no_need(needed)
