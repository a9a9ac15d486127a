"""Generations: named sets of regions with a current allocation region."""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import OutOfMemoryError
from repro.heap.objects import HeapObject
from repro.heap.region import Region

#: Callable that hands out a free region, or None when the heap is full.
RegionSource = Callable[[], Optional[Region]]


class Generation:
    """A generation is a growable set of regions sharing a lifetime class.

    NG2C creates these dynamically (``System.newGeneration``); G1 has
    exactly two (young and old).  Allocation bumps into the current
    region and claims a fresh region from the heap's free pool when the
    current one fills up.
    """

    def __init__(self, gen_id: int, name: str, region_source: RegionSource) -> None:
        self.gen_id = gen_id
        self.name = name
        self._region_source = region_source
        self.regions: List[Region] = []
        self._alloc_region: Optional[Region] = None
        self._used_bytes = 0
        #: Set True once the generation is retired (NG2C drops empty
        #: dynamic generations after collection).
        self.retired = False

    # -- allocation -----------------------------------------------------------

    def allocate(self, obj: HeapObject) -> int:
        """Place ``obj`` into this generation; returns its address.

        Raises:
            OutOfMemoryError: no current region has room and the heap has
                no free regions left.
        """
        size = obj.size
        region = self._alloc_region
        if region is None or region.top + size > region.size:
            region = self._claim_region(size)
        address = region.bump_allocate(obj)
        obj.gen_id = self.gen_id
        self._used_bytes += size
        return address

    def _claim_region(self, needed: int) -> Region:
        region = self._region_source()
        if region is None:
            raise OutOfMemoryError(
                f"generation {self.name!r}: no free regions for {needed}-byte allocation"
            )
        if needed > region.size:
            raise OutOfMemoryError(
                f"object of {needed} bytes exceeds region size {region.size}"
            )
        region.gen_id = self.gen_id
        self.regions.append(region)
        self._alloc_region = region
        return region

    def bump_room(self) -> int:
        """Free bytes left in the current allocation region (0 if none)."""
        region = self._alloc_region
        return region.free_bytes if region is not None else 0

    def allocate_batch(
        self,
        page_table,
        id_base: int,
        sizes,
        starts,
        start: int,
        stop: int,
        site_id: int,
    ) -> List[Tuple[Region, int, int, int]]:
        """Bulk-allocate batch objects ``[start, stop)`` into this generation.

        ``sizes``/``starts`` are the whole batch's size column and its
        exclusive prefix sums; the object at batch index ``i`` gets
        identity hash ``id_base + i``.  The chunking mirrors
        :meth:`place_slice` — and therefore per-object bump allocation —
        exactly: fill the current region with the longest prefix that fits
        (one bisect over the prefix sums), claim a fresh region precisely
        where the scalar path would, repeat.  Page dirtying and occupancy
        are updated once per chunk.  Returns ``(region, base_slot,
        chunk_start, chunk_stop)`` per chunk so the caller can materialize
        views on demand.
        """
        chunks: List[Tuple[Region, int, int, int]] = []
        p = start
        while p < stop:
            region = self._alloc_region
            if region is None or not region.has_room(sizes[p]):
                region = self._claim_region(sizes[p])
            limit = starts[p] + (region.size - region.top)
            j = bisect_right(starts, limit, p + 1, stop)
            if j == stop and starts[stop - 1] + sizes[stop - 1] <= limit:
                q = stop
            else:
                q = j - 1
            dest_top, span, base_slot = region.append_batch(
                id_base, sizes, starts, p, q, site_id
            )
            base = region.base
            page_table.mark_written_range(base + dest_top, span)
            page_table.adjust_occupancy_run(
                base, region._offsets, base_slot, base_slot + (q - p),
                region.top, 1,
            )
            self._used_bytes += span
            chunks.append((region, base_slot, p, q))
            p = q
        return chunks

    def place_slice(
        self,
        page_table,
        src: Region,
        start: int,
        stop: int,
        sync_ages: bool = False,
    ) -> int:
        """Bulk-copy ``src`` objects ``[start, stop)`` into this generation.

        The columnar evacuation placement: fills the current allocation
        region with the longest prefix of the slice that fits (one bisect
        over the source offset prefix sums), claims a fresh region exactly
        where per-object bump allocation would have, and moves each chunk
        as a column-slice copy.  Page dirtying and occupancy are updated
        once per chunk; view placement fields are fixed up in one pass.
        Returns the bytes placed.
        """
        offsets = src._offsets
        sizes = src._sizes
        gen_id = self.gen_id
        placed = 0
        p = start
        while p < stop:
            region = self._alloc_region
            if region is None or not region.has_room(sizes[p]):
                region = self._claim_region(sizes[p])
            # Largest q with every object in [p, q) ending within the free
            # space: ends are the next starts (gap-free tiling), so one
            # bisect over the offsets finds the capacity split.
            limit = offsets[p] + (region.size - region.top)
            j = bisect_right(offsets, limit, p + 1, stop)
            if j == stop and offsets[stop - 1] + sizes[stop - 1] <= limit:
                q = stop
            else:
                q = j - 1
            dest_top, span, base_slot, rebased, views = region.absorb_slice(
                src, p, q
            )
            dbase = region.base
            page_table.mark_written_range(dbase + dest_top, span)
            page_table.adjust_occupancy_run(
                dbase, region._offsets, base_slot, base_slot + (q - p),
                region.top, 1,
            )
            slot = base_slot
            # Lazy batch placeholders (None) move as pure column state;
            # a later view_at materializes from the destination columns.
            if sync_ages:
                for view, off, age in zip(
                    views, rebased, region._ages[base_slot:]
                ):
                    if view is not None:
                        view._region = region
                        view._slot = slot
                        view.address = dbase + off
                        view.gen_id = gen_id
                        view._age = age
                    slot += 1
            else:
                for view, off in zip(views, rebased):
                    if view is not None:
                        view._region = region
                        view._slot = slot
                        view.address = dbase + off
                        view.gen_id = gen_id
                    slot += 1
            self._used_bytes += span
            placed += span
            p = q
        return placed

    # -- accounting -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def committed_bytes(self) -> int:
        return sum(region.size for region in self.regions)

    @property
    def object_count(self) -> int:
        return sum(len(region.objects) for region in self.regions)

    def iter_objects(self) -> Iterator[HeapObject]:
        for region in self.regions:
            yield from region.objects

    # -- region management ------------------------------------------------------

    def release_region(self, region: Region) -> None:
        """Detach a region (after evacuation); caller returns it to the pool."""
        self.regions.remove(region)
        self._used_bytes -= region.used_bytes
        if self._alloc_region is region:
            self._alloc_region = None

    def release_all_regions(self) -> List[Region]:
        """Detach every region (whole-generation reclamation)."""
        released = list(self.regions)
        self.regions.clear()
        self._alloc_region = None
        self._used_bytes = 0
        return released

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Generation(id={self.gen_id}, name={self.name!r}, "
            f"regions={len(self.regions)}, used={self.used_bytes})"
        )
