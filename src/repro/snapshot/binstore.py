"""Binary columnar snapshot store (``snapshots.bin``) and its id codec.

The one on-disk snapshot layout, schema ``polm2-snapshots-v2``: id
columns stay binary, so loading never parses id lists out of text:

```
magic    8 B   b"POLM2SNP"
u32      4 B   metadata header length (little-endian)
header         JSON object:
                 schema        "polm2-snapshots-v2"
                 count         number of snapshots
                 columns       per-field metadata columns, one entry per
                               snapshot: seq, time_ms, engine,
                               pages_written, size_bytes, duration_us,
                               incremental, kind ("delta" | "full")
id columns     per snapshot, in order:
                 delta  -> u32 len + born_ids column
                           u32 len + dead_ids column
                 full   -> u32 len + live_object_ids column
```

Snapshots live in memory as full live sets; the file keeps the paper's
incremental images.  :class:`StoreWriter` stores every ``incremental``
snapshot after the first as a ``delta``, born and dead ids against the
snapshot before it, and every other one ``full``; :func:`iter_binary`
applies each delta to the live set before it (the empty set when a
delta comes first).

Each id column is an :func:`encode_ids` payload.  The id space is split
into 2^16-wide chunks keyed by ``id >> 16``; a chunk of at most 512 ids
is gap-coded varints, a denser one a bitmap, so a dense range costs
about one bit per id and decodes in a few C passes:

```
uvarint        chunk count
per chunk, ascending key:
  key          zigzag uvarint for the first chunk, uvarint gap after
  kind byte    0 = sparse, 1 = bitmap
  sparse       uvarint count, then the sorted chunk-local ids gap-coded
               (first raw, then deltas), one uvarint each
  bitmap       uvarint byte length + the chunk's 8 KiB little-endian
               bitmap with its trailing zero bytes trimmed
```

Columns are length-prefixed, which makes the file mmap-friendly: a
reader can locate any snapshot's columns by skipping, and truncation is
detected (and reported with the offending path and field) instead of
misparsed.

Version policy matches the profile IR (``polm2-profile-v2``): this
reader accepts exactly ``polm2-snapshots-v2``; a future
``polm2-snapshots-v3`` file fails with a one-line
:class:`~repro.errors.ProfileFormatError` telling the user to upgrade,
never a misparse; so does a file without the magic (e.g. a JSON-lines
snapshot file from before this layout).
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_left
from itertools import compress
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ProfileFormatError
from repro.snapshot.snapshot import Snapshot

#: First bytes of every binary snapshot store.
SNAPSHOTS_MAGIC = b"POLM2SNP"

#: Schema identifier embedded in (and required from) the header.
SNAPSHOTS_SCHEMA = "polm2-snapshots-v2"

_LEN = struct.Struct("<I")

#: Metadata columns, in header order, with the JSON types an entry may
#: take (``bool`` is not an ``int`` here).
_COLUMNS = {
    "seq": (int,),
    "time_ms": (int, float),
    "engine": (str,),
    "pages_written": (int,),
    "size_bytes": (int,),
    "duration_us": (int, float),
    "incremental": (bool,),
    "kind": (str,),
}

#: Id-column chunk geometry: ids are grouped by ``id >> 16``.
_CHUNK_BITS = 16
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1
_BITMAP_BYTES = (1 << _CHUNK_BITS) // 8

#: A chunk of more ids than this is stored as a bitmap.
_SPARSE_MAX = 512

#: The longest varint a 64-bit value needs.
_VARINT_MAX_BYTES = 10

#: ``bin()`` digits to the 0/1 selector bytes ``compress`` reads.
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


# -- id columns ------------------------------------------------------------------


def _write_uvarint(buf: bytearray, n: int) -> None:
    while n > 0x7F:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _read_uvarint(payload: bytes, offset: int) -> Tuple[int, int]:
    """One LEB128 varint; returns (value, next offset)."""
    result = 0
    for shift in range(0, 7 * _VARINT_MAX_BYTES, 7):
        if offset >= len(payload):
            raise ValueError("truncated varint")
        byte = payload[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
    raise ValueError(f"varint longer than {_VARINT_MAX_BYTES} bytes")


def encode_ids(ids: Sequence[int]) -> bytes:
    """One id column holding ``ids``, a sorted list of distinct ints."""
    chunks = []
    start = 0
    while start < len(ids):
        key = ids[start] >> _CHUNK_BITS
        end = bisect_left(ids, (key + 1) << _CHUNK_BITS, start)
        chunks.append((key, ids[start:end]))
        start = end
    buf = bytearray()
    _write_uvarint(buf, len(chunks))
    previous_key = None
    for key, values in chunks:
        if previous_key is None:
            _write_uvarint(buf, key << 1 if key >= 0 else (-key << 1) - 1)
        else:
            _write_uvarint(buf, key - previous_key)
        previous_key = key
        if len(values) <= _SPARSE_MAX:
            buf.append(0)
            _write_uvarint(buf, len(values))
            previous_low = 0
            for value in values:
                low = value & _CHUNK_MASK
                _write_uvarint(buf, low - previous_low)
                previous_low = low
        else:
            bits = bytearray(_BITMAP_BYTES)
            for value in values:
                low = value & _CHUNK_MASK
                bits[low >> 3] |= 1 << (low & 7)
            bits = bits.rstrip(b"\x00")
            buf.append(1)
            _write_uvarint(buf, len(bits))
            buf += bits
    return bytes(buf)


def decode_ids(payload: bytes) -> List[int]:
    """The ids of one :func:`encode_ids` column, in column order.

    A malformed payload raises ``ValueError`` naming what is wrong.
    """
    ids: List[int] = []
    chunk_count, offset = _read_uvarint(payload, 0)
    key = 0
    for index in range(chunk_count):
        gap, offset = _read_uvarint(payload, offset)
        if index:
            key += gap
        else:
            key = gap >> 1 if not gap & 1 else -((gap + 1) >> 1)
        if offset >= len(payload):
            raise ValueError("truncated chunk kind byte")
        kind = payload[offset]
        offset += 1
        base = key << _CHUNK_BITS
        if kind == 0:
            count, offset = _read_uvarint(payload, offset)
            if count > _SPARSE_MAX:
                raise ValueError(
                    f"sparse run of {count} ids exceeds {_SPARSE_MAX}"
                )
            low = 0
            for _ in range(count):
                gap, offset = _read_uvarint(payload, offset)
                low += gap
                if low > _CHUNK_MASK:
                    raise ValueError(f"chunk-local id {low} out of range")
                ids.append(base + low)
        elif kind == 1:
            length, offset = _read_uvarint(payload, offset)
            if length > _BITMAP_BYTES:
                raise ValueError(f"bitmap block of {length} bytes too large")
            if offset + length > len(payload):
                raise ValueError("truncated bitmap block")
            bitmap = int.from_bytes(payload[offset : offset + length], "little")
            offset += length
            # bin() lists the bits highest first; reversed, digit i is bit i.
            bits = bin(bitmap)[:1:-1].encode().translate(_BIT_SELECTORS)
            ids.extend(compress(range(base, base + len(bits)), bits))
        else:
            raise ValueError(f"unknown chunk kind {kind}")
    if offset != len(payload):
        raise ValueError(
            f"{len(payload) - offset} trailing bytes after id column"
        )
    return ids


# -- the store -------------------------------------------------------------------


class StoreWriter:
    """Writes one ``snapshots.bin``, a snapshot at a time.

    :meth:`add` encodes a snapshot's id columns on arrival and keeps
    only those bytes, its metadata and its live set (for the next
    delta); :meth:`close` writes the header and the columns.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._columns = {name: [] for name in _COLUMNS}
        self._payloads: List[bytes] = []
        self._previous: Optional[frozenset] = None

    def add(self, snapshot: Snapshot) -> None:
        live = snapshot.live_object_ids
        previous = self._previous
        if snapshot.incremental and previous is not None:
            kind = "delta"
            self._payloads.append(encode_ids(sorted(live - previous)))
            self._payloads.append(encode_ids(sorted(previous - live)))
        else:
            kind = "full"
            self._payloads.append(encode_ids(sorted(live)))
        for name, column in self._columns.items():
            column.append(kind if name == "kind" else getattr(snapshot, name))
        self._previous = live

    def close(self) -> None:
        header = json.dumps(
            {
                "schema": SNAPSHOTS_SCHEMA,
                "count": len(self._columns["kind"]),
                "columns": self._columns,
            },
            separators=(",", ":"),
        ).encode()
        with open(self.path, "wb") as handle:
            handle.write(SNAPSHOTS_MAGIC)
            handle.write(_LEN.pack(len(header)))
            handle.write(header)
            for payload in self._payloads:
                handle.write(_LEN.pack(len(payload)))
                handle.write(payload)


def write_store(path: str, snapshots: Iterable[Snapshot]) -> None:
    """Write the snapshot sequence as one binary columnar file."""
    writer = StoreWriter(path)
    for snapshot in snapshots:
        writer.add(snapshot)
    writer.close()


def _read_column(blob: bytes, offset: int, path: str, field: str, seq) -> tuple:
    """One length-prefixed id column; returns (ids, next offset)."""
    if offset + _LEN.size > len(blob):
        raise ProfileFormatError(
            f"{path}: truncated {field!r} id column for snapshot seq {seq} "
            f"({SNAPSHOTS_SCHEMA})"
        )
    (length,) = _LEN.unpack_from(blob, offset)
    offset += _LEN.size
    if offset + length > len(blob):
        raise ProfileFormatError(
            f"{path}: truncated {field!r} id column for snapshot seq {seq} "
            f"({SNAPSHOTS_SCHEMA})"
        )
    try:
        ids = decode_ids(blob[offset : offset + length])
    except ValueError as exc:
        raise ProfileFormatError(
            f"{path}: corrupt {field!r} id column for snapshot seq {seq}: {exc}"
        ) from exc
    return ids, offset + length


def _load_header(blob: bytes, path: str) -> dict:
    if not blob.startswith(SNAPSHOTS_MAGIC):
        raise ProfileFormatError(
            f"{path}: not a binary snapshot store (expected "
            f"{SNAPSHOTS_SCHEMA})"
        )
    if len(blob) < len(SNAPSHOTS_MAGIC) + _LEN.size:
        raise ProfileFormatError(
            f"{path}: truncated snapshot store header (expected "
            f"{SNAPSHOTS_SCHEMA})"
        )
    (header_len,) = _LEN.unpack_from(blob, len(SNAPSHOTS_MAGIC))
    start = len(SNAPSHOTS_MAGIC) + _LEN.size
    if start + header_len > len(blob):
        raise ProfileFormatError(
            f"{path}: truncated snapshot store header (expected "
            f"{SNAPSHOTS_SCHEMA})"
        )
    try:
        header = json.loads(blob[start : start + header_len])
    except ValueError as exc:
        raise ProfileFormatError(
            f"{path}: corrupt snapshot store header: {exc}"
        ) from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != SNAPSHOTS_SCHEMA:
        if isinstance(schema, str) and schema.startswith("polm2-snapshots-v"):
            raise ProfileFormatError(
                f"{path}: snapshot store schema {schema} is newer than the "
                f"supported {SNAPSHOTS_SCHEMA}; upgrade repro to read it"
            )
        raise ProfileFormatError(
            f"{path}: unknown snapshot store schema {schema!r} (expected "
            f"{SNAPSHOTS_SCHEMA})"
        )
    count = header.get("count")
    columns = header.get("columns")
    if not isinstance(count, int) or count < 0 or not isinstance(columns, dict):
        raise ProfileFormatError(
            f"{path}: malformed snapshot store header ({SNAPSHOTS_SCHEMA})"
        )
    for name in _COLUMNS:
        column = columns.get(name)
        if not isinstance(column, list) or len(column) != count:
            raise ProfileFormatError(
                f"{path}: metadata column {name!r} missing or wrong length "
                f"(expected {count} entries, {SNAPSHOTS_SCHEMA})"
            )
    header["_body_offset"] = start + header_len
    return header


def _metadata(columns: dict, index: int, path: str) -> dict:
    """Snapshot ``index``'s metadata entries, each of its column's type."""
    row = {}
    for name, types in _COLUMNS.items():
        value = columns[name][index]
        if type(value) not in types:
            expected = " or ".join(kind.__name__ for kind in types)
            raise ProfileFormatError(
                f"{path}: metadata column {name!r} holds {value!r} for "
                f"snapshot {index}, expected {expected} ({SNAPSHOTS_SCHEMA})"
            )
        row[name] = value
    return row


def iter_binary(path: str) -> Iterator[Snapshot]:
    """Stream full snapshots out of a binary store, applying each delta.

    Metadata columns are decoded up front (they are tiny); id columns
    are decoded one snapshot at a time, so the caller decides how many
    snapshots stay alive.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    header = _load_header(blob, path)
    columns = header["columns"]
    offset = header["_body_offset"]
    live = frozenset()
    for index in range(header["count"]):
        row = _metadata(columns, index, path)
        seq = row["seq"]
        kind = row.pop("kind")
        if kind == "delta":
            born, offset = _read_column(blob, offset, path, "born_ids", seq)
            dead, offset = _read_column(blob, offset, path, "dead_ids", seq)
            live = live.union(born).difference(dead)
        elif kind == "full":
            ids, offset = _read_column(
                blob, offset, path, "live_object_ids", seq
            )
            live = frozenset(ids)
        else:
            raise ProfileFormatError(
                f"{path}: unknown snapshot kind {kind!r} for seq {seq} "
                f"({SNAPSHOTS_SCHEMA})"
            )
        row["time_ms"] = float(row["time_ms"])
        row["duration_us"] = float(row["duration_us"])
        yield Snapshot(live_object_ids=live, **row)
    if offset != len(blob):
        raise ProfileFormatError(
            f"{path}: {len(blob) - offset} trailing bytes after the last id "
            f"column ({SNAPSHOTS_SCHEMA})"
        )
