"""Heap regions: fixed-size, bump-allocated slices of the address space.

Both G1 and NG2C organize the heap as equal-sized regions; a generation is
a set of regions.  Evacuation copies live objects out of a region and
returns the whole region to the free list — which is exactly why
pretenuring pays off: when objects with the same lifetime share regions,
entire regions die together and are reclaimed *without copying anything*.

Columnar storage
----------------

A region stores its objects struct-of-arrays: parallel ``array('q')``
columns hold object id, size, allocation-site id, start offset, and age,
and ``objects`` keeps the matching :class:`HeapObject` views.  Two facts
make the layout compact: a region's generation is uniform (``gen_id`` is
one scalar, not a column), and bump allocation tiles ``[0, top)`` without
gaps, so the offset column is a prefix sum and ``base + offset`` *is* the
address column.  The epoch-mark column (``_marks``) is materialized per
collection by :meth:`live_flags` and collapsed to position runs, which is
what lets the collector kernels work in contiguous-slice units:

* marking — one bulk column<->IdSet membership pass (big-int bit windows)
  or one epoch comparison sweep, producing a byte mask whose runs are
  found with C-level ``find``;
* ``live_bytes`` — a masked column sum: per live run, one subtraction of
  prefix offsets;
* aging / promotion selection — one vectorized pass over the age column
  using 64-bit lane arithmetic on the packed big int;
* evacuation — :meth:`absorb_slice` copies column slices between regions
  and rebases offsets with a single lane add.

Views and columns are kept in lockstep by every mutation path; dead views
keep their last placement values when a region's columns are discarded
(see :mod:`repro.heap.objects`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.core.idset import IdSet
from repro.errors import RegionFullError
from repro.heap.objects import HeapObject

#: One 64-bit little-endian lane holding the value 1; repeated to build
#: the "all lanes = 1" constant for n-lane arithmetic.
_ONE_LANE = b"\x01" + b"\x00" * 7


def lane_ones(count: int) -> int:
    """The n-lane constant 0x0001_0001...: value 1 in every 64-bit lane."""
    return int.from_bytes(_ONE_LANE * count, "little")


def _pack_lanes(values: array, start: int, stop: int) -> int:
    """Pack ``values[start:stop]`` into one big int, 64 bits per lane."""
    return int.from_bytes(values[start:stop].tobytes(), "little")


def _unpack_lanes(packed: int, count: int) -> array:
    """Inverse of :func:`_pack_lanes` for ``count`` lanes."""
    out = array("q")
    out.frombytes(packed.to_bytes(count * 8, "little"))
    return out


def _flags_to_bounds(flags) -> Tuple[List[int], List[int]]:
    """Collapse a 0/1 byte mask into parallel run start/stop lists.

    Kept as two flat lists (not tuples) so callers can feed them straight
    into ``map``/``sum`` without per-run unpacking.
    """
    starts: List[int] = []
    stops: List[int] = []
    append_start = starts.append
    append_stop = stops.append
    find = flags.find
    n = len(flags)
    i = find(1)
    while i >= 0:
        append_start(i)
        j = find(0, i + 1)
        if j < 0:
            append_stop(n)
            break
        append_stop(j)
        i = find(1, j + 1)
    return starts, stops


def _flags_to_runs(flags) -> List[Tuple[int, int]]:
    """Collapse a 0/1 byte mask into half-open ``(start, stop)`` runs."""
    runs: List[Tuple[int, int]] = []
    append = runs.append
    find = flags.find
    n = len(flags)
    i = find(1)
    while i >= 0:
        j = find(0, i + 1)
        if j < 0:
            append((i, n))
            break
        append((i, j))
        i = find(1, j + 1)
    return runs


#: Maps the ASCII digits of a binary string to 0/1 flag bytes.
_BITCHAR_TO_FLAG = bytes(
    1 if value == 0x31 else 0 for value in range(256)
)


def _mask_to_byteflags(mask: int, count: int) -> bytes:
    """Expand a ``count``-bit membership mask to one flag byte per bit.

    Every step is a C-level pass (binary formatting, zero padding,
    reversal, translation), so the expansion is O(count) with no Python
    per-bit work — the trick that keeps mask handling cheaper than one
    set probe per object.
    """
    return (
        format(mask, "b").zfill(count)[::-1].encode("ascii")
        .translate(_BITCHAR_TO_FLAG)
    )


class Region:
    """A fixed-size region with a bump pointer and columnar object storage."""

    __slots__ = (
        "index",
        "base",
        "size",
        "top",
        "gen_id",
        "objects",
        "_ids",
        "_sizes",
        "_sites",
        "_offsets",
        "_ages",
        "_marks",
        "_id_breaks",
    )

    def __init__(self, index: int, base: int, size: int) -> None:
        self.index = index
        self.base = base
        self.size = size
        self.top = 0
        self.gen_id: Optional[int] = None
        #: Object views, parallel to the columns below.
        self.objects: List[HeapObject] = []
        self._ids = array("q")
        self._sizes = array("q")
        self._sites = array("q")
        self._offsets = array("q")
        self._ages = array("q")
        #: Epoch-mark column: the most recently materialized liveness mask
        #: (one byte per object), kept for inspection by tests/benchmarks.
        self._marks = bytearray()
        #: Sorted slots i (0 < i < n) where ``ids[i] != ids[i-1] + 1``.
        #: Maintained incrementally on every append, so block discovery in
        #: :meth:`_id_blocks` is O(breaks) — no repacking of the column.
        self._id_breaks = array("q")

    # -- column access (read-only by convention) --------------------------------

    @property
    def id_column(self) -> array:
        return self._ids

    @property
    def size_column(self) -> array:
        return self._sizes

    @property
    def site_column(self) -> array:
        return self._sites

    @property
    def offset_column(self) -> array:
        return self._offsets

    @property
    def age_column(self) -> array:
        return self._ages

    @property
    def mark_column(self) -> bytearray:
        return self._marks

    # -- allocation -----------------------------------------------------------

    def has_room(self, size: int) -> bool:
        return self.top + size <= self.size

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
        obj._region = self
        objects = self.objects
        obj._slot = len(objects)
        ids = self._ids
        object_id = obj.object_id
        if ids and object_id != ids[-1] + 1:
            self._id_breaks.append(len(ids))
        ids.append(object_id)
        self._sizes.append(size)
        self._sites.append(obj.site_id)
        self._offsets.append(top)
        self._ages.append(obj._age)
        objects.append(obj)
        return address

    def adopt_humongous(self, obj: HeapObject) -> None:
        """Register an over-region-size object whose run starts here.

        The heap has already claimed the backing regions and set ``top``;
        the object occupies ``[base, base + size)`` and only the run's
        first region carries its columns (a single lane).
        """
        obj._region = self
        obj._slot = len(self.objects)
        ids = self._ids
        if ids and obj.object_id != ids[-1] + 1:
            self._id_breaks.append(len(ids))
        self._ids.append(obj.object_id)
        self._sizes.append(obj.size)
        self._sites.append(obj.site_id)
        self._offsets.append(0)
        self._ages.append(obj._age)
        self.objects.append(obj)

    # -- accounting -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self.top

    @property
    def free_bytes(self) -> int:
        return self.size - self.top

    # -- columnar liveness kernels ---------------------------------------------

    def live_flags(self, live) -> bytearray:
        """Materialize the epoch-mark column: one byte per object, 1 = live.

        ``live`` is an ``int`` mark epoch, an :class:`IdSet`, or any
        container of object ids (tested with ``in``).
        """
        if isinstance(live, int):
            flags = bytearray(
                1 if o.mark_epoch == live else 0 for o in self.objects
            )
        elif isinstance(live, IdSet):
            flags = bytearray(len(self._ids))
            for start, stop in self._id_blocks():
                count = stop - start
                mask = live.extract_mask(self._ids[start], count)
                if mask == 0:
                    continue
                if mask == (1 << count) - 1:
                    flags[start:stop] = b"\x01" * count
                else:
                    flags[start:stop] = _mask_to_byteflags(mask, count)
        else:
            flags = bytearray(
                1 if oid in live else 0 for oid in self._ids
            )
        self._marks = flags
        return flags

    def live_runs(self, live) -> List[Tuple[int, int]]:
        """Half-open position runs of live objects, in column order."""
        return _flags_to_runs(self.live_flags(live))

    def _id_blocks(self) -> List[Tuple[int, int]]:
        """Maximal runs of *consecutive* ids in the id column.

        The break positions are maintained incrementally by every append
        path (:meth:`bump_allocate`, :meth:`adopt_humongous`,
        :meth:`absorb_slice`), so this is O(breaks) with no per-call scan
        of the column — on allocation-order columns ids are consecutive
        for whole regions at a time and the break list is tiny.
        """
        n = len(self._ids)
        if n == 0:
            return []
        breaks = self._id_breaks
        if not breaks:
            return [(0, n)]
        blocks: List[Tuple[int, int]] = []
        start = 0
        for stop in breaks:
            blocks.append((start, stop))
            start = stop
        blocks.append((start, n))
        return blocks

    def run_bytes(self, start: int, stop: int) -> int:
        """Bytes spanned by objects ``[start, stop)`` (contiguous tiling)."""
        if start >= stop:
            return 0
        offsets = self._offsets
        end = self.top if stop == len(offsets) else offsets[stop]
        return end - offsets[start]

    def live_bytes(self, live) -> int:
        """Bytes occupied by live objects in this region.

        ``live`` is an ``int`` mark epoch (an object counts iff
        ``obj.mark_epoch`` equals it), an :class:`IdSet`, or any container
        of live object ids.  Every form funnels through the columnar mark
        column and a run-sum over the offset prefix sums.
        """
        starts, stops = _flags_to_bounds(self.live_flags(live))
        if not starts:
            return 0
        offsets = self._offsets
        get = offsets.__getitem__
        # Run spans sum telescopically: sum(offsets[stop]) - sum(offsets
        # [start]), with the open tail clamped to ``top`` — both sums are
        # C-level map reductions, no per-run Python arithmetic.
        total = -sum(map(get, starts))
        if stops[-1] == len(offsets):
            return total + self.top + sum(map(get, stops[:-1]))
        return total + sum(map(get, stops))

    # -- vectorized aging (tenuring input) ---------------------------------------

    def age_up_and_split(
        self, start: int, stop: int, threshold: int
    ) -> List[Tuple[int, int, bool]]:
        """Increment ages of objects ``[start, stop)`` and split by tenuring.

        One lane-add bumps every age in the run; one biased lane compare
        computes ``age >= threshold`` per lane without unpacking.  Returns
        maximal sub-runs ``(a, b, promote)`` in column order.  The column
        is written back; view ages are synced by the evacuation fixup.
        """
        count = stop - start
        if count <= 0:
            return []
        if not 0 < threshold <= (1 << 62):
            # Degenerate thresholds (never used by the shipped collectors)
            # take the scalar path rather than risking lane carries.
            ages = self._ages
            out: List[Tuple[int, int, bool]] = []
            for i in range(start, stop):
                ages[i] += 1
                promote = ages[i] >= threshold
                if out and out[-1][2] == promote:
                    out[-1] = (out[-1][0], i + 1, promote)
                else:
                    out.append((i, i + 1, promote))
            return out
        ones = lane_ones(count)
        packed = _pack_lanes(self._ages, start, stop) + ones
        self._ages[start:stop] = _unpack_lanes(packed, count)
        msb = ones << 63
        mask = (packed + ((1 << 63) - threshold) * ones) & msb
        if mask == 0:
            return [(start, stop, False)]
        if mask == msb:
            return [(start, stop, True)]
        # Mixed run: lane verdicts are the high byte of each lane.
        verdicts = mask.to_bytes(count * 8, "little")[7::8]
        out = []
        run_start = start
        current = verdicts[0]
        for i in range(1, count):
            if verdicts[i] != current:
                out.append((run_start, start + i, current != 0))
                run_start = start + i
                current = verdicts[i]
        out.append((run_start, stop, current != 0))
        return out

    # -- columnar evacuation ------------------------------------------------------

    def absorb_slice(
        self, src: "Region", start: int, stop: int
    ) -> Tuple[int, int, int, array, List[HeapObject]]:
        """Bulk-copy objects ``src[start:stop)`` onto this region's tail.

        Columns move as C-level slice copies; offsets are rebased with a
        single lane add/subtract (no inter-lane carry: offsets fit well
        under 2^63 and every source offset is >= the rebase delta when it
        is negative).  Returns ``(dest_top, span_bytes, base_slot,
        rebased_offsets, moved_views)``; the caller fixes up views, page
        accounting, and generation bookkeeping.
        """
        count = stop - start
        dest_top = self.top
        src_offsets = src._offsets
        span = src.run_bytes(start, stop)
        if dest_top + span > self.size:
            raise RegionFullError(
                f"region {self.index}: {span} bytes requested, "
                f"{self.size - dest_top} free"
            )
        delta = dest_top - src_offsets[start]
        if delta == 0:
            rebased = src_offsets[start:stop]
        else:
            packed = _pack_lanes(src_offsets, start, stop)
            if delta > 0:
                packed += delta * lane_ones(count)
            else:
                packed -= (-delta) * lane_ones(count)
            rebased = _unpack_lanes(packed, count)
        base_slot = len(self.objects)
        ids = self._ids
        if ids and src._ids[start] != ids[-1] + 1:
            self._id_breaks.append(base_slot)
        src_breaks = src._id_breaks
        lo = bisect_right(src_breaks, start)
        hi = bisect_left(src_breaks, stop)
        if lo < hi:
            shift = base_slot - start
            self._id_breaks.extend(k + shift for k in src_breaks[lo:hi])
        self._ids.extend(src._ids[start:stop])
        self._sizes.extend(src._sizes[start:stop])
        self._sites.extend(src._sites[start:stop])
        self._ages.extend(src._ages[start:stop])
        self._offsets.extend(rebased)
        views = src.objects[start:stop]
        self.objects.extend(views)
        self.top = dest_top + span
        return dest_top, span, base_slot, rebased, views

    # -- page spans ----------------------------------------------------------------

    def page_span(self, page_size: int) -> range:
        """Pages covered by the *used* part of this region."""
        if self.top == 0:
            return range(0)
        first = self.base // page_size
        last = (self.base + self.top - 1) // page_size
        return range(first, last + 1)

    # -- lifecycle ------------------------------------------------------------

    def wipe_contents(self) -> None:
        """Discard columns and views (contents became garbage or moved).

        Views still attached here are detached so a later mutation on a
        dead view can never write into a recycled region's columns;
        evacuated survivors already point at their destination region and
        are left alone.
        """
        for view in self.objects:
            if view._region is self:
                view._region = None
                view._slot = -1
        del self.objects[:]
        del self._ids[:]
        del self._sizes[:]
        del self._sites[:]
        del self._offsets[:]
        del self._ages[:]
        del self._marks[:]
        del self._id_breaks[:]

    def reset(self) -> None:
        """Return the region to the free pool (contents become garbage)."""
        self.wipe_contents()
        self.top = 0
        self.gen_id = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Region(index={self.index}, gen={self.gen_id}, "
            f"used={self.used_bytes}/{self.size}, objs={len(self.objects)})"
        )
