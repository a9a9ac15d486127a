"""Tests for the binary columnar snapshot store (``snapshots.bin``) and
its id-column codec."""

import json

import pytest

from repro.config import CostModel, SimConfig
from repro.errors import ProfileFormatError
from repro.heap.heap import SimHeap
from repro.snapshot.binstore import (
    SNAPSHOTS_MAGIC,
    SNAPSHOTS_SCHEMA,
    _load_header,
    decode_ids,
    encode_ids,
    iter_binary,
    write_store,
)
from repro.snapshot.criu import CRIUEngine
from repro.snapshot.jmap import JmapDumper
from repro.snapshot.snapshot import Snapshot


def make_snapshot(seq, ids, incremental=True):
    return Snapshot(
        seq=seq,
        time_ms=float(seq),
        engine="criu",
        pages_written=3,
        size_bytes=64 * len(ids),
        duration_us=2.5 * seq,
        live_object_ids=ids,
        incremental=incremental,
    )


def build_snapshots():
    """A full first image, then incremental snapshots whose live sets
    gain 500 ids and lose 100 each time."""
    live = frozenset(range(1000))
    snapshots = [make_snapshot(1, live, incremental=False)]
    for seq in range(2, 8):
        live = live.union(range(seq * 1000, seq * 1000 + 500)).difference(
            range((seq - 2) * 500, (seq - 2) * 500 + 100)
        )
        snapshots.append(make_snapshot(seq, live))
    return snapshots


def save(path, snapshots=None):
    write_store(path, build_snapshots() if snapshots is None else snapshots)


def kinds(path):
    with open(path, "rb") as handle:
        return _load_header(handle.read(), path)["columns"]["kind"]


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        snapshots = build_snapshots()
        save(path, snapshots)
        with open(path, "rb") as handle:
            assert handle.read(len(SNAPSHOTS_MAGIC)) == SNAPSHOTS_MAGIC
        loaded = list(iter_binary(path))
        assert len(loaded) == len(snapshots)
        for original, restored in zip(snapshots, loaded):
            assert restored == original
            assert restored.live_object_ids == original.live_object_ids

    def test_deltas_stay_deltas(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        save(path)
        assert kinds(path) == ["full"] + ["delta"] * 6

    def test_criu_and_jmap_snapshots_round_trip(self, tmp_path):
        # CRIU snapshots over a mutating heap are written full, then as
        # deltas against the snapshot before; a jmap dump among them (of
        # a live set no CRIU snapshot holds) is written full.
        heap = SimHeap(SimConfig.small())
        criu, jmap = CRIUEngine(CostModel()), JmapDumper(CostModel())
        live = [heap.allocate(64) for _ in range(40)]
        snapshots = []
        for step in range(4):
            live = live[5:] + [heap.allocate(128) for _ in range(7)]
            heap.write_ref(live[0], live[-1])
            ids = frozenset(obj.object_id for obj in live)
            snapshots.append(criu.checkpoint(heap, ids, float(step)))
            if step == 1:
                snapshots.append(jmap.dump(heap, live[:-2], float(step)))
        path = str(tmp_path / "snapshots.bin")
        write_store(path, snapshots)
        assert kinds(path) == ["full", "delta", "full", "delta", "delta"]
        assert list(iter_binary(path)) == snapshots

    def test_empty_store(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        write_store(path, [])
        assert list(iter_binary(path)) == []

    def test_unknown_format_rejected(self, tmp_path):
        # A JSON-lines snapshot file (the layout before snapshots.bin) is
        # not read: one line naming the file.
        path = str(tmp_path / "snapshots.jsonl")
        with open(path, "w") as handle:
            for snapshot in build_snapshots():
                handle.write(json.dumps(snapshot.to_dict()) + "\n")
        with pytest.raises(ProfileFormatError) as excinfo:
            list(iter_binary(path))
        message = str(excinfo.value)
        assert path in message
        assert "not a binary snapshot store" in message
        assert len(message.splitlines()) == 1


#: Chunk geometry of the id columns: 2^16 ids per chunk, one 8 KiB bitmap.
CHUNK_SPAN = 1 << 16
BITMAP_BYTES = CHUNK_SPAN // 8


def uvarint(n):
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


class TestIdColumnCodec:
    @pytest.mark.parametrize(
        "ids",
        [
            set(),
            {0},
            {42},
            set(range(CHUNK_SPAN + 500)),
            set(range(CHUNK_SPAN + CHUNK_SPAN // 2)),
            {i * 3000 for i in range(1000)},
            {(1 << 62) + i * 7 for i in range(100)},
            {1 << 62, (1 << 62) + 1, (1 << 63) - 1, 7},
            {-(1 << 63), -70000, -65537, -65536, -3, -1, 0, 5, 70000},
            set(range(512)),
            set(range(513)),
        ],
        ids=[
            "empty",
            "zero",
            "single",
            "dense",
            "dense-two-chunks",
            "sparse",
            "high64",
            "identity-hash-extremes",
            "negative",
            "sparse-max-512",
            "dense-min-513",
        ],
    )
    def test_round_trip(self, ids):
        assert decode_ids(encode_ids(sorted(ids))) == sorted(ids)

    def test_sparse_dense_threshold(self):
        # One chunk: count, key, then the kind byte (0 sparse, 1 bitmap).
        assert encode_ids(list(range(512)))[2] == 0
        assert encode_ids(list(range(513)))[2] == 1

    def test_dense_payload_is_compact(self):
        # A full chunk serializes as ~one bitmap block, not 8 B/id.
        assert len(encode_ids(list(range(CHUNK_SPAN)))) <= BITMAP_BYTES + 16

    @pytest.mark.parametrize(
        "ids, payload_hex",
        [
            (
                [i for i in range(100, 800) if i % 7],
                "01000164000000000000000000000000f0fd7ebfdfeff7fbfd7ebfdfeff7fbfd"
                "7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfef"
                "f7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7ebfdfeff7fbfd7e"
                "bfdfeff7fbfd7ebf",
            ),
            (
                [i * 40_000 + 3 for i in range(10)],
                "0600000203c0b8020100028371c0b80201000183e201010002c31ac0b80201"
                "0002c38b01c0b802010001c3fc01",
            ),
            (
                [-70000, -65537, -65536, -3, -1, 0, 5, 70000],
                "0403000290dd03ef2201000300fdff03020100020005010001f022",
            ),
        ],
        ids=["dense", "sparse", "negative"],
    )
    def test_v2_bytes_are_pinned(self, ids, payload_hex):
        # The polm2-snapshots-v2 column bytes, as the format first wrote
        # them: a codec change that moves them breaks existing files.
        assert encode_ids(ids).hex() == payload_hex
        assert decode_ids(bytes.fromhex(payload_hex)) == ids

    @pytest.mark.parametrize(
        "payload, match",
        [
            (encode_ids(list(range(5000)))[:300], "truncated"),
            (encode_ids([1, 2, 3]) + b"\x00", "trailing"),
            (bytes([1, 0, 7]), "unknown chunk kind 7"),
            (bytes([1, 0, 0]) + uvarint(513), "sparse run of 513 ids"),
            (bytes([1, 0, 0, 1]) + uvarint(CHUNK_SPAN), "chunk-local id 65536"),
            (bytes([1, 0, 1]) + uvarint(BITMAP_BYTES + 1), "8193 bytes too large"),
            (bytes([1, 0, 1, 4, 0xFF]), "truncated bitmap block"),
            (b"\xff" * 10 + b"\x01", "varint longer than 10 bytes"),
        ],
        ids=[
            "truncated",
            "trailing",
            "unknown-kind",
            "sparse-over-512",
            "chunk-local-over-65535",
            "bitmap-over-8192",
            "truncated-bitmap",
            "over-long-varint",
        ],
    )
    def test_malformed_payload_raises(self, payload, match):
        with pytest.raises(ValueError, match=match):
            decode_ids(payload)


class TestCorruption:
    def test_truncated_id_column(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        save(path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-20])
        with pytest.raises(ProfileFormatError) as excinfo:
            list(iter_binary(path))
        message = str(excinfo.value)
        assert path in message
        assert "truncated" in message

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        with open(path, "wb") as handle:
            handle.write(SNAPSHOTS_MAGIC + b"\xff\xff\xff\x7f")
        with pytest.raises(ProfileFormatError, match="truncated"):
            list(iter_binary(path))

    def test_corrupt_header_json(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        body = b"not json"
        with open(path, "wb") as handle:
            handle.write(SNAPSHOTS_MAGIC)
            handle.write(len(body).to_bytes(4, "little"))
            handle.write(body)
        with pytest.raises(ProfileFormatError, match="corrupt"):
            list(iter_binary(path))

    def test_corrupt_id_column_payload(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        save(path, [make_snapshot(1, range(100), incremental=False)])
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # flip bits inside the last id column
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(ProfileFormatError) as excinfo:
            list(iter_binary(path))
        assert "live_object_ids" in str(excinfo.value)

    def test_over_long_varint_fails_fast(self, tmp_path):
        # A 320 KB id column of one endless varint: the decoder stops
        # after 10 bytes instead of building a 2.2-Mbit integer.
        path = str(tmp_path / "snapshots.bin")
        save(path, [make_snapshot(1, range(100), incremental=False)])
        blob = open(path, "rb").read()
        body = _load_header(blob, path)["_body_offset"]
        column = b"\xff" * (320 * 1024) + b"\x01"
        with open(path, "wb") as handle:
            handle.write(blob[:body] + len(column).to_bytes(4, "little") + column)
        with pytest.raises(ProfileFormatError) as excinfo:
            list(iter_binary(path))
        message = str(excinfo.value)
        assert len(message.splitlines()) == 1
        assert path in message
        assert "varint longer than 10 bytes" in message

    @pytest.mark.parametrize(
        "column, value",
        [("seq", [1]), ("time_ms", {}), ("pages_written", None),
         ("incremental", 1), ("engine", 7)],
        ids=["seq-list", "time-object", "pages-null", "incremental-int",
             "engine-int"],
    )
    def test_ill_typed_metadata_entry(self, tmp_path, column, value):
        path = str(tmp_path / "snapshots.bin")
        save(path)
        blob = open(path, "rb").read()
        header = _load_header(blob, path)
        body = header.pop("_body_offset")
        header["columns"][column][2] = value
        encoded = json.dumps(header).encode()
        with open(path, "wb") as handle:
            handle.write(SNAPSHOTS_MAGIC + len(encoded).to_bytes(4, "little"))
            handle.write(encoded + blob[body:])
        with pytest.raises(ProfileFormatError) as excinfo:
            list(iter_binary(path))
        message = str(excinfo.value)
        assert len(message.splitlines()) == 1
        assert path in message
        assert f"column {column!r}" in message
        assert "snapshot 2" in message

    def test_trailing_bytes_detected(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        save(path)
        with open(path, "ab") as handle:
            handle.write(b"extra")
        with pytest.raises(ProfileFormatError, match="trailing"):
            list(iter_binary(path))


class TestVersionPolicy:
    def _write_with_schema(self, path, schema):
        header = json.dumps(
            {"schema": schema, "count": 0, "columns": {}}
        ).encode()
        with open(path, "wb") as handle:
            handle.write(SNAPSHOTS_MAGIC)
            handle.write(len(header).to_bytes(4, "little"))
            handle.write(header)

    def test_v3_rejected_with_one_line_upgrade_error(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        self._write_with_schema(path, "polm2-snapshots-v3")
        with pytest.raises(ProfileFormatError) as excinfo:
            list(iter_binary(path))
        message = str(excinfo.value)
        assert len(message.splitlines()) == 1
        assert "polm2-snapshots-v3" in message
        assert SNAPSHOTS_SCHEMA in message
        assert "upgrade" in message

    def test_unknown_schema_rejected(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        self._write_with_schema(path, "something-else")
        with pytest.raises(ProfileFormatError, match="unknown snapshot store"):
            list(iter_binary(path))
