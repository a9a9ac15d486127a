"""Compact, immutable id-set kernel for snapshot algebra.

POLM2's Analyzer is dominated by set algebra over per-GC-cycle heap
snapshots (paper §3.3): matching recorded object ids against snapshot id
sequences means intersecting, subtracting, and unioning sets of 64-bit
identity hash codes, over and over.  Boxed-int ``frozenset``s pay ~60
bytes and one hash probe per element for that; this module replaces them
with a roaring-style two-level structure:

* the id space is split into 2^16-wide **chunks** keyed by ``id >> 16``;
* a chunk holding few ids is a **sparse run**: a sorted ``array('q')``
  of absolute ids (8 bytes each, C-backed);
* a dense chunk is a **bitmap block**: a Python ``int`` over the chunk's
  65 536 bit positions, so intersection/difference/union collapse to
  single big-int bitwise operations (one C pass over 8 KiB, not one
  hash probe per element).

Identity hashes in the simulated runtime are monotonically assigned, so
snapshot live-sets are dense ranges — exactly the shape bitmap blocks
compress ~60x and intersect orders of magnitude faster than frozensets.

Serialization (:meth:`IdSet.to_bytes`) keeps the same hybrid: sparse
chunks are varint-delta encoded (sorted low bits, gap-coded, 1-3 bytes
per id), bitmap blocks are dumped as raw little-endian bytes so decoding
is a single C ``int.from_bytes`` — the payload the binary columnar
snapshot store (``snapshots.bin``) embeds per id column.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Chunk geometry: ids are grouped by their high bits (``id >> 16``).
CHUNK_BITS = 16
CHUNK_SPAN = 1 << CHUNK_BITS
CHUNK_MASK = CHUNK_SPAN - 1
BITMAP_BYTES = CHUNK_SPAN // 8

#: A chunk holding more than this many ids is stored as a bitmap block.
#: 512/65536 ≈ 0.8 % density: below it a sorted run is smaller and its
#: Python-level per-element work is bounded; above it the big-int bitmap
#: wins on both bytes (≤ 16 B/id, usually ≪) and set-algebra speed.
SPARSE_MAX = 512

#: bit positions set in each byte value, for bitmap expansion.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)


def _zigzag(n: int) -> int:
    """Map a signed int to an unsigned one (0, -1, 1, -2 -> 0, 1, 2, 3)."""
    return n << 1 if n >= 0 else ((-n) << 1) - 1


def _unzigzag(z: int) -> int:
    return z >> 1 if not z & 1 else -((z + 1) >> 1)


def _write_uvarint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _read_uvarint(view: bytes, offset: int) -> Tuple[int, int]:
    """Decode one LEB128 varint; returns (value, next offset)."""
    result = 0
    shift = 0
    end = len(view)
    while True:
        if offset >= end:
            raise ValueError("truncated varint")
        byte = view[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _bitmap_from_lows(lows: Iterable[int]) -> int:
    bits = bytearray(BITMAP_BYTES)
    for low in lows:
        bits[low >> 3] |= 1 << (low & 7)
    return int.from_bytes(bits, "little")


def _bitmap_to_run(key: int, bitmap: int) -> array:
    """Expand a bitmap block into a sorted absolute-id run."""
    base = key << CHUNK_BITS
    out: List[int] = []
    append = out.append
    raw = bitmap.to_bytes(BITMAP_BYTES, "little")
    for index, byte in enumerate(raw):
        if byte:
            origin = base + (index << 3)
            for bit in _BYTE_BITS[byte]:
                append(origin + bit)
    return array("q", out)


class IdSet:
    """An immutable set of 64-bit object ids, chunked roaring-style.

    Construction accepts any iterable of ints — unsorted, with
    duplicates — and canonicalizes: each 2^16-wide chunk is stored as a
    sorted ``array('q')`` run when it holds ≤ ``SPARSE_MAX`` ids and as
    a big-int bitmap block otherwise, so two IdSets with equal content
    always have identical internal form (equality is a dict compare).

    Set algebra (``&``, ``|``, ``-``) returns new IdSets and accepts
    plain sets/frozensets on the right (coerced).  Iteration yields ids
    in ascending order.  Instances must never be mutated after
    construction — snapshots, cohorts, and caches share them freely.
    """

    __slots__ = ("_chunks", "_len", "_hash")

    def __init__(self, ids: Iterable[int] = ()) -> None:
        chunks: Dict[int, object] = {}
        total = 0
        values = sorted(set(ids))
        n = len(values)
        i = 0
        while i < n:
            key = values[i] >> CHUNK_BITS
            limit = (key + 1) << CHUNK_BITS
            j = i
            while j < n and values[j] < limit:
                j += 1
            chunks[key] = self._make_container(values[i:j])
            total += j - i
            i = j
        self._chunks = chunks
        self._len = total
        self._hash: Optional[int] = None

    # -- construction helpers -------------------------------------------------------

    @staticmethod
    def _make_container(values: List[int]):
        """Canonical container for one chunk's sorted absolute ids."""
        if len(values) <= SPARSE_MAX:
            return array("q", values)
        return _bitmap_from_lows(v & CHUNK_MASK for v in values)

    @classmethod
    def _from_chunks(cls, chunks: Dict[int, object], total: int) -> "IdSet":
        result = cls.__new__(cls)
        result._chunks = chunks
        result._len = total
        result._hash = None
        return result

    @classmethod
    def coerce(cls, ids) -> "IdSet":
        """Return ``ids`` itself when already an IdSet, else build one."""
        if isinstance(ids, cls):
            return ids
        return cls(ids)

    # -- basic protocol ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __contains__(self, value: int) -> bool:
        container = self._chunks.get(value >> CHUNK_BITS)
        if container is None:
            return False
        if isinstance(container, array):
            index = bisect_left(container, value)
            return index < len(container) and container[index] == value
        return bool(container >> (value & CHUNK_MASK) & 1)

    def __iter__(self) -> Iterator[int]:
        for key in sorted(self._chunks):
            container = self._chunks[key]
            if isinstance(container, array):
                yield from container
            else:
                yield from _bitmap_to_run(key, container)

    def to_list(self) -> List[int]:
        """All ids, ascending, materialized with C-backed bulk copies."""
        out: List[int] = []
        for key in sorted(self._chunks):
            container = self._chunks[key]
            if isinstance(container, array):
                out.extend(container.tolist())
            else:
                out.extend(_bitmap_to_run(key, container).tolist())
        return out

    def max(self) -> int:
        """Largest id, O(chunks); raises ValueError when empty."""
        if not self._len:
            raise ValueError("max() of an empty IdSet")
        key = max(self._chunks)
        container = self._chunks[key]
        if isinstance(container, array):
            return container[-1]
        return (key << CHUNK_BITS) + container.bit_length() - 1

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes (containers + chunk index)."""
        total = sys.getsizeof(self._chunks)
        for container in self._chunks.values():
            total += sys.getsizeof(container)
        return total

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IdSet):
            return self._len == other._len and self._chunks == other._chunks
        if isinstance(other, (set, frozenset)):
            return self._len == len(other) and all(v in self for v in other)
        return NotImplemented

    def __hash__(self) -> int:
        # Matches hash(frozenset(...)) so an IdSet that compares equal to
        # a frozenset also hashes equal (rarely exercised; cached).
        if self._hash is None:
            self._hash = hash(frozenset(self.to_list()))
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.to_list()[:6]
        suffix = ", ..." if self._len > 6 else ""
        return f"IdSet({preview}{suffix} len={self._len})"

    # -- set algebra ------------------------------------------------------------------

    def _store(self, chunks: Dict[int, object], key: int, values: List[int]) -> int:
        """Store a sparse result (absolute ids, sorted) if non-empty."""
        if values:
            chunks[key] = array("q", values)
            return len(values)
        return 0

    def __and__(self, other) -> "IdSet":
        if not isinstance(other, IdSet):
            if not isinstance(other, (set, frozenset)):
                return NotImplemented
            other = IdSet(other)
        a, b = self._chunks, other._chunks
        if len(b) < len(a):
            a, b = b, a
        chunks: Dict[int, object] = {}
        total = 0
        for key, ca in a.items():
            cb = b.get(key)
            if cb is None:
                continue
            a_is_run = isinstance(ca, array)
            b_is_run = isinstance(cb, array)
            if not a_is_run and not b_is_run:
                bitmap = ca & cb
                if bitmap:
                    count = bitmap.bit_count()
                    if count <= SPARSE_MAX:
                        chunks[key] = _bitmap_to_run(key, bitmap)
                    else:
                        chunks[key] = bitmap
                    total += count
                continue
            if a_is_run and b_is_run:
                small, large = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
                probe = frozenset(small)
                total += self._store(
                    chunks, key, [v for v in large if v in probe]
                )
                continue
            run, raw = (ca, cb) if a_is_run else (cb, ca)
            raw_bytes = raw.to_bytes(BITMAP_BYTES, "little")
            total += self._store(
                chunks,
                key,
                [
                    v
                    for v in run
                    if raw_bytes[(v & CHUNK_MASK) >> 3] >> ((v & CHUNK_MASK) & 7) & 1
                ],
            )
        return IdSet._from_chunks(chunks, total)

    __rand__ = __and__

    def __or__(self, other) -> "IdSet":
        if not isinstance(other, IdSet):
            if not isinstance(other, (set, frozenset)):
                return NotImplemented
            other = IdSet(other)
        if not other._len:
            return self
        if not self._len:
            return other
        chunks: Dict[int, object] = {}
        total = 0
        for key in self._chunks.keys() | other._chunks.keys():
            ca = self._chunks.get(key)
            cb = other._chunks.get(key)
            if ca is None or cb is None:
                container = ca if cb is None else cb
                chunks[key] = container
                total += (
                    len(container)
                    if isinstance(container, array)
                    else container.bit_count()
                )
                continue
            a_is_run = isinstance(ca, array)
            b_is_run = isinstance(cb, array)
            if not a_is_run and not b_is_run:
                bitmap = ca | cb
                chunks[key] = bitmap
                total += bitmap.bit_count()
                continue
            if a_is_run and b_is_run:
                merged = sorted(set(ca.tolist()) | set(cb.tolist()))
                count = len(merged)
                if count <= SPARSE_MAX:
                    chunks[key] = array("q", merged)
                else:
                    chunks[key] = _bitmap_from_lows(
                        v & CHUNK_MASK for v in merged
                    )
                total += count
                continue
            run, raw = (ca, cb) if a_is_run else (cb, ca)
            bits = bytearray(raw.to_bytes(BITMAP_BYTES, "little"))
            for v in run:
                low = v & CHUNK_MASK
                bits[low >> 3] |= 1 << (low & 7)
            bitmap = int.from_bytes(bits, "little")
            chunks[key] = bitmap
            total += bitmap.bit_count()
        return IdSet._from_chunks(chunks, total)

    __ror__ = __or__

    def __sub__(self, other) -> "IdSet":
        if not isinstance(other, IdSet):
            if not isinstance(other, (set, frozenset)):
                return NotImplemented
            other = IdSet(other)
        if not other._len or not self._len:
            return self
        chunks: Dict[int, object] = {}
        total = 0
        for key, ca in self._chunks.items():
            cb = other._chunks.get(key)
            if cb is None:
                chunks[key] = ca
                total += len(ca) if isinstance(ca, array) else ca.bit_count()
                continue
            a_is_run = isinstance(ca, array)
            b_is_run = isinstance(cb, array)
            if not a_is_run and not b_is_run:
                bitmap = ca & ~cb
                if bitmap:
                    count = bitmap.bit_count()
                    if count <= SPARSE_MAX:
                        chunks[key] = _bitmap_to_run(key, bitmap)
                    else:
                        chunks[key] = bitmap
                    total += count
                continue
            if a_is_run and b_is_run:
                probe = frozenset(cb)
                total += self._store(
                    chunks, key, [v for v in ca if v not in probe]
                )
                continue
            if a_is_run:
                raw_bytes = cb.to_bytes(BITMAP_BYTES, "little")
                total += self._store(
                    chunks,
                    key,
                    [
                        v
                        for v in ca
                        if not raw_bytes[(v & CHUNK_MASK) >> 3]
                        >> ((v & CHUNK_MASK) & 7)
                        & 1
                    ],
                )
                continue
            bits = bytearray(ca.to_bytes(BITMAP_BYTES, "little"))
            for v in cb:
                low = v & CHUNK_MASK
                bits[low >> 3] &= ~(1 << (low & 7)) & 0xFF
            bitmap = int.from_bytes(bits, "little")
            if bitmap:
                count = bitmap.bit_count()
                if count <= SPARSE_MAX:
                    chunks[key] = _bitmap_to_run(key, bitmap)
                else:
                    chunks[key] = bitmap
                total += count
        return IdSet._from_chunks(chunks, total)

    # -- (de)serialization -----------------------------------------------------------
    #
    # Layout: uvarint chunk count, then per chunk (ascending key order):
    #   key        — zigzag uvarint for the first chunk, uvarint gap after;
    #   kind byte  — 0 = sparse varint-delta run, 1 = bitmap block;
    #   sparse     — uvarint count, then the sorted low 16-bit values
    #                gap-coded (first raw, deltas ≥ 1), one uvarint each;
    #   bitmap     — uvarint byte length + the block's little-endian
    #                bytes with trailing zeros trimmed (decodes with one
    #                C ``int.from_bytes``).

    def to_bytes(self) -> bytes:
        buf = bytearray()
        _write_uvarint(buf, len(self._chunks))
        previous_key = 0
        first = True
        for key in sorted(self._chunks):
            if first:
                _write_uvarint(buf, _zigzag(key))
                first = False
            else:
                _write_uvarint(buf, key - previous_key)
            previous_key = key
            container = self._chunks[key]
            if isinstance(container, array):
                buf.append(0)
                _write_uvarint(buf, len(container))
                previous_low = 0
                first_low = True
                for value in container:
                    low = value & CHUNK_MASK
                    if first_low:
                        _write_uvarint(buf, low)
                        first_low = False
                    else:
                        _write_uvarint(buf, low - previous_low)
                    previous_low = low
            else:
                raw = container.to_bytes(
                    (container.bit_length() + 7) // 8, "little"
                )
                buf.append(1)
                _write_uvarint(buf, len(raw))
                buf += raw
        return bytes(buf)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "IdSet":
        """Decode :meth:`to_bytes` output; raises ValueError when malformed."""
        chunks: Dict[int, object] = {}
        total = 0
        offset = 0
        chunk_count, offset = _read_uvarint(payload, offset)
        key = 0
        for chunk_index in range(chunk_count):
            gap, offset = _read_uvarint(payload, offset)
            key = _unzigzag(gap) if chunk_index == 0 else key + gap
            if offset >= len(payload):
                raise ValueError("truncated chunk kind byte")
            kind = payload[offset]
            offset += 1
            base = key << CHUNK_BITS
            if kind == 0:
                count, offset = _read_uvarint(payload, offset)
                if count > SPARSE_MAX:
                    raise ValueError(
                        f"sparse run of {count} ids exceeds {SPARSE_MAX}"
                    )
                low = 0
                values = array("q")
                for value_index in range(count):
                    gap, offset = _read_uvarint(payload, offset)
                    low = gap if value_index == 0 else low + gap
                    if low > CHUNK_MASK:
                        raise ValueError(f"chunk-local id {low} out of range")
                    values.append(base + low)
                if values:
                    chunks[key] = values
                    total += count
            elif kind == 1:
                length, offset = _read_uvarint(payload, offset)
                if length > BITMAP_BYTES:
                    raise ValueError(f"bitmap block of {length} bytes too large")
                if offset + length > len(payload):
                    raise ValueError("truncated bitmap block")
                bitmap = int.from_bytes(payload[offset : offset + length], "little")
                offset += length
                if bitmap:
                    count = bitmap.bit_count()
                    if count <= SPARSE_MAX:
                        chunks[key] = _bitmap_to_run(key, bitmap)
                    else:
                        chunks[key] = bitmap
                    total += count
            else:
                raise ValueError(f"unknown chunk kind {kind}")
        if offset != len(payload):
            raise ValueError(
                f"{len(payload) - offset} trailing bytes after id-set payload"
            )
        return cls._from_chunks(chunks, total)


#: The canonical empty set — immutability makes sharing safe.
EMPTY_IDSET = IdSet()
