"""Virtual page table with dirty and no-need bits.

CRIU's incremental checkpoints (paper §4.2) rely on two kernel page-table
bits:

* the **dirty** bit — set by the MMU whenever a page is written, cleared by
  CRIU at each snapshot, so the next snapshot includes only pages written
  since the previous one;
* the **no-need** bit — set through ``madvise`` by POLM2's Recorder on every
  page that contains no live objects, so the Dumper can skip them.

This module models both bits over a flat virtual address space.  The flag
array is a ``bytearray`` so whole-table operations (clearing dirty bits at
a checkpoint, rewriting no-need advice before one) run as C-level
``bytes.translate`` / big-int bitwise passes instead of Python loops —
these run once per snapshot and used to dominate snapshot overhead.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.config import PAGE_SIZE
from repro.errors import InvalidAddressError

_DIRTY = 0x1
_NO_NEED = 0x2
_DIRTY_BYTE = bytes((_DIRTY,))

#: translate() tables for whole-array flag rewrites.  Flag bytes only ever
#: hold combinations of the two bits above, but the tables cover all 256
#: values so stray state can never corrupt a bulk pass.
_CLEAR_DIRTY_TABLE = bytes(value & ~_DIRTY for value in range(256))
_CLEAR_NO_NEED_TABLE = bytes(value & ~_NO_NEED for value in range(256))
#: Maps a "page is needed" byte (0 = no live data) to the advice bit.
_NEEDED_TO_NO_NEED = bytes(
    _NO_NEED if value == 0 else 0 for value in range(256)
)


class PageTable:
    """Tracks per-page dirty / no-need flags for a linear address space."""

    def __init__(self, address_space_bytes: int, page_size: int = PAGE_SIZE) -> None:
        if address_space_bytes <= 0:
            raise ValueError("address space must be positive")
        if page_size <= 0:
            raise ValueError("page size must be positive")
        self.page_size = page_size
        self.num_pages = (address_space_bytes + page_size - 1) // page_size
        self._flags = bytearray(self.num_pages)

    # -- address helpers ----------------------------------------------------

    def page_index(self, address: int) -> int:
        if not 0 <= address < self.num_pages * self.page_size:
            raise InvalidAddressError(f"address {address:#x} outside address space")
        return address // self.page_size

    def pages_for_range(self, address: int, length: int) -> range:
        """Page indices spanned by ``length`` bytes starting at ``address``."""
        if length <= 0:
            return range(0)
        first = self.page_index(address)
        last = self.page_index(address + length - 1)
        return range(first, last + 1)

    # -- dirty bit (written-since-last-snapshot) ----------------------------

    def mark_dirty_range(self, address: int, length: int) -> None:
        """Record a write of ``length`` bytes at ``address`` (store barrier)."""
        if length <= 0:
            return
        # Hot path: inline the page arithmetic (no bounds re-validation —
        # addresses come from the allocator, which already checked them).
        flags = self._flags
        page_size = self.page_size
        first = address // page_size
        last = (address + length - 1) // page_size
        if first == last:
            flags[first] |= _DIRTY
            return
        for page in range(first, last + 1):
            flags[page] |= _DIRTY

    def mark_written_range(self, address: int, length: int) -> None:
        """A fresh write (an object allocated or evacuated to ``address``):
        dirty the pages and clear any stale no-need advice in one store.

        Flag bytes hold only the two modelled bits, so "dirty, not
        no-need" is exactly the byte ``_DIRTY``; most objects fit in one
        page, which takes a single byte store.
        """
        if length <= 0:
            return
        page_size = self.page_size
        first = address // page_size
        last = (address + length - 1) // page_size
        if first == last:
            self._flags[first] = _DIRTY
            return
        self._flags[first : last + 1] = _DIRTY_BYTE * (last + 1 - first)

    def mark_dirty_pages(self, pages: Iterable[int]) -> None:
        for page in pages:
            self._flags[page] |= _DIRTY

    def is_dirty(self, page: int) -> bool:
        return bool(self._flags[page] & _DIRTY)

    def dirty_pages(self) -> List[int]:
        return [i for i, f in enumerate(self._flags) if f & _DIRTY]

    def clear_dirty(self) -> int:
        """Clear every dirty bit (CRIU does this at snapshot time).

        Returns the number of pages that were dirty.  Flag bytes only hold
        the two modelled bits, so the count is two C-level byte counts and
        the clear is one ``translate`` pass.
        """
        flags = self._flags
        count = flags.count(_DIRTY) + flags.count(_DIRTY | _NO_NEED)
        if count:
            flags[:] = flags.translate(_CLEAR_DIRTY_TABLE)
        return count

    # -- no-need bit (madvise MADV_FREE-style) -------------------------------

    def set_no_need(self, pages: Iterable[int]) -> None:
        for page in pages:
            self._flags[page] |= _NO_NEED

    def clear_no_need(self, pages: Iterable[int]) -> None:
        for page in pages:
            self._flags[page] &= ~_NO_NEED

    def clear_all_no_need(self) -> None:
        self._flags[:] = self._flags.translate(_CLEAR_NO_NEED_TABLE)

    def is_no_need(self, page: int) -> bool:
        return bool(self._flags[page] & _NO_NEED)

    def no_need_pages(self) -> List[int]:
        return [i for i, f in enumerate(self._flags) if f & _NO_NEED]

    def rewrite_no_need(self, needed: bytearray) -> int:
        """Replace all no-need advice from a per-page "needed" byte map.

        ``needed[i] != 0`` means page ``i`` holds live data.  Every other
        page gets the no-need bit; pages with live data get it cleared —
        exactly the clear-then-remark sequence the Recorder performs before
        each snapshot, collapsed into two ``translate`` passes and one
        big-int OR.  Returns the number of pages marked no-need.
        """
        if len(needed) != self.num_pages:
            raise ValueError(
                f"needed map covers {len(needed)} pages, table has {self.num_pages}"
            )
        cleared = self._flags.translate(_CLEAR_NO_NEED_TABLE)
        advice = needed.translate(_NEEDED_TO_NO_NEED)
        merged = int.from_bytes(cleared, "little") | int.from_bytes(advice, "little")
        self._flags[:] = merged.to_bytes(self.num_pages, "little")
        return needed.count(0)

    # -- snapshot support -----------------------------------------------------

    def snapshot_candidate_pages(self) -> List[int]:
        """Pages CRIU would include: dirty and not marked no-need."""
        return [
            i
            for i, f in enumerate(self._flags)
            if (f & _DIRTY) and not (f & _NO_NEED)
        ]

    def snapshot_candidate_count(self) -> int:
        """Number of dirty-and-not-no-need pages (checkpoint hot path).

        Flag bytes only hold the two modelled bits, so candidates are
        exactly the bytes equal to ``_DIRTY`` — one C-level count.
        """
        return self._flags.count(_DIRTY)

    def counts(self) -> "PageCounts":
        flags = self._flags
        both = flags.count(_DIRTY | _NO_NEED)
        dirty = flags.count(_DIRTY) + both
        no_need = flags.count(_NO_NEED) + both
        return PageCounts(
            total=self.num_pages, dirty=dirty, no_need=no_need, dirty_and_no_need=both
        )


class PageCounts:
    """Aggregate page-table statistics."""

    __slots__ = ("total", "dirty", "no_need", "dirty_and_no_need")

    def __init__(self, total: int, dirty: int, no_need: int, dirty_and_no_need: int):
        self.total = total
        self.dirty = dirty
        self.no_need = no_need
        self.dirty_and_no_need = dirty_and_no_need

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PageCounts(total={self.total}, dirty={self.dirty}, "
            f"no_need={self.no_need}, both={self.dirty_and_no_need})"
        )
