"""Heap regions: fixed-size, bump-allocated slices of the address space.

Both G1 and NG2C organize the heap as equal-sized regions; a generation is
a set of regions.  Evacuation copies live objects out of a region and
returns the whole region to the free list — which is exactly why
pretenuring pays off: when objects with the same lifetime share regions,
entire regions die together and are reclaimed *without copying anything*.

A region is a bump pointer and its objects in allocation order.  Bump
allocation tiles ``[0, top)`` without gaps, so the objects' addresses
ascend from ``base`` and each object ends where the next one starts.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import RegionFullError
from repro.heap.objects import HeapObject


class Region:
    """A fixed-size region with a bump pointer and its objects in order."""

    __slots__ = ("index", "base", "size", "top", "gen_id", "objects")

    def __init__(self, index: int, base: int, size: int) -> None:
        self.index = index
        self.base = base
        self.size = size
        self.top = 0
        self.gen_id: Optional[int] = None
        self.objects: List[HeapObject] = []

    # -- allocation -----------------------------------------------------------

    def bump_allocate(self, obj: HeapObject) -> int:
        """Place ``obj`` at the bump pointer and return its address."""
        top = self.top
        size = obj.size
        if top + size > self.size:
            raise RegionFullError(
                f"region {self.index}: {size} bytes requested, "
                f"{self.size - top} free"
            )
        address = self.base + top
        self.top = top + size
        obj.address = address
        self.objects.append(obj)
        return address

    # -- accounting -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self.top

    @property
    def free_bytes(self) -> int:
        return self.size - self.top

    def page_span(self, page_size: int) -> range:
        """Pages covered by the *used* part of this region."""
        if self.top == 0:
            return range(0)
        first = self.base // page_size
        last = (self.base + self.top - 1) // page_size
        return range(first, last + 1)

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Return the region to the free pool (contents become garbage)."""
        del self.objects[:]
        self.top = 0
        self.gen_id = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Region(index={self.index}, gen={self.gen_id}, "
            f"used={self.used_bytes}/{self.size}, objs={len(self.objects)})"
        )
