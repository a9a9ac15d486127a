"""Generations: named sets of regions with a current allocation region."""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

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
