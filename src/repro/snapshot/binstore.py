"""Binary columnar snapshot store (``snapshots.bin``).

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
incremental images.  :func:`write_store` stores every ``incremental``
snapshot after the first as a ``delta``, born and dead ids against the
snapshot before it, and every other one ``full``; :func:`iter_binary`
applies each delta to the live set before it (the empty set when a
delta comes first).

Each id column is an :meth:`repro.core.idset.IdSet.to_bytes` payload —
varint-delta runs for sparse chunks, raw bitmap blocks for dense ranges
— so decoding a column is mostly one C ``int.from_bytes`` per dense
chunk.  Columns are length-prefixed, which makes the file mmap-friendly:
a reader can locate any snapshot's columns by skipping, and truncation
is detected (and reported with the offending path and field) instead of
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
from typing import Iterator, Optional, Sequence

from repro.core.idset import EMPTY_IDSET, IdSet
from repro.errors import ProfileFormatError
from repro.snapshot.snapshot import Snapshot

#: First bytes of every binary snapshot store.
SNAPSHOTS_MAGIC = b"POLM2SNP"

#: Schema identifier embedded in (and required from) the header.
SNAPSHOTS_SCHEMA = "polm2-snapshots-v2"

_LEN = struct.Struct("<I")

#: Metadata columns, in header order.
_COLUMNS = (
    "seq",
    "time_ms",
    "engine",
    "pages_written",
    "size_bytes",
    "duration_us",
    "incremental",
    "kind",
)


def write_store(path: str, snapshots: Sequence[Snapshot]) -> None:
    """Write the snapshot sequence as one binary columnar file."""
    columns = {name: [] for name in _COLUMNS}
    payloads = []
    previous: Optional[IdSet] = None
    for snapshot in snapshots:
        live = snapshot.live_object_ids
        columns["seq"].append(snapshot.seq)
        columns["time_ms"].append(snapshot.time_ms)
        columns["engine"].append(snapshot.engine)
        columns["pages_written"].append(snapshot.pages_written)
        columns["size_bytes"].append(snapshot.size_bytes)
        columns["duration_us"].append(snapshot.duration_us)
        columns["incremental"].append(snapshot.incremental)
        if snapshot.incremental and previous is not None:
            columns["kind"].append("delta")
            payloads.append(
                ((live - previous).to_bytes(), (previous - live).to_bytes())
            )
        else:
            columns["kind"].append("full")
            payloads.append((live.to_bytes(),))
        previous = live
    header = json.dumps(
        {
            "schema": SNAPSHOTS_SCHEMA,
            "count": len(payloads),
            "columns": columns,
        },
        separators=(",", ":"),
    ).encode()
    with open(path, "wb") as handle:
        handle.write(SNAPSHOTS_MAGIC)
        handle.write(_LEN.pack(len(header)))
        handle.write(header)
        for column_group in payloads:
            for payload in column_group:
                handle.write(_LEN.pack(len(payload)))
                handle.write(payload)


def _read_column(blob: bytes, offset: int, path: str, field: str, seq) -> tuple:
    """One length-prefixed id column; returns (IdSet, next offset)."""
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
        ids = IdSet.from_bytes(blob[offset : offset + length])
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
    live = EMPTY_IDSET
    for index in range(header["count"]):
        seq = columns["seq"][index]
        kind = columns["kind"][index]
        common = dict(
            seq=int(seq),
            time_ms=float(columns["time_ms"][index]),
            engine=columns["engine"][index],
            pages_written=int(columns["pages_written"][index]),
            size_bytes=int(columns["size_bytes"][index]),
            duration_us=float(columns["duration_us"][index]),
            incremental=bool(columns["incremental"][index]),
        )
        if kind == "delta":
            born, offset = _read_column(blob, offset, path, "born_ids", seq)
            dead, offset = _read_column(blob, offset, path, "dead_ids", seq)
            live = (live | born) - dead
        elif kind == "full":
            live, offset = _read_column(
                blob, offset, path, "live_object_ids", seq
            )
        else:
            raise ProfileFormatError(
                f"{path}: unknown snapshot kind {kind!r} for seq {seq} "
                f"({SNAPSHOTS_SCHEMA})"
            )
        yield Snapshot(live_object_ids=live, **common)
    if offset != len(blob):
        raise ProfileFormatError(
            f"{path}: {len(blob) - offset} trailing bytes after the last id "
            f"column ({SNAPSHOTS_SCHEMA})"
        )
