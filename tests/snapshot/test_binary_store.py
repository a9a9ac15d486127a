"""Tests for the binary columnar snapshot store (``snapshots.bin``)."""

import json

import pytest

from repro.errors import ProfileFormatError
from repro.snapshot.binstore import SNAPSHOTS_MAGIC, SNAPSHOTS_SCHEMA
from repro.snapshot.snapshot import Snapshot, SnapshotStore


def make_full(seq, ids, time_ms=None):
    return Snapshot(
        seq=seq,
        time_ms=time_ms if time_ms is not None else float(seq),
        engine="jmap",
        pages_written=0,
        size_bytes=64 * len(ids),
        duration_us=5.0 * seq,
        live_object_ids=ids,
        incremental=False,
    )


def make_delta(seq, born, dead, predecessor):
    return Snapshot(
        seq=seq,
        time_ms=float(seq),
        engine="criu",
        pages_written=3,
        size_bytes=128,
        duration_us=2.5 * seq,
        born_ids=born,
        dead_ids=dead,
        predecessor=predecessor,
    )


def build_store():
    store = SnapshotStore()
    first = make_full(1, range(1000))
    store.append(first)
    previous = first
    for seq in range(2, 8):
        snapshot = make_delta(
            seq,
            born=range(seq * 1000, seq * 1000 + 500),
            dead=range((seq - 2) * 500, (seq - 2) * 500 + 100),
            predecessor=previous,
        )
        store.append(snapshot)
        previous = snapshot
    return store


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        store = build_store()
        store.save(path)
        with open(path, "rb") as handle:
            assert handle.read(len(SNAPSHOTS_MAGIC)) == SNAPSHOTS_MAGIC
        loaded = SnapshotStore.load(path)
        assert len(loaded) == len(store)
        for original, restored in zip(store, loaded):
            assert restored == original
            assert restored.is_delta == original.is_delta
            assert restored.live_object_ids == original.live_object_ids

    def test_deltas_stay_deltas(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        build_store().save(path)
        loaded = list(SnapshotStore.iter_file(path))
        assert not loaded[0].is_delta
        assert all(s.is_delta for s in loaded[1:])
        # Chain is rebuilt: each delta's predecessor is the previous one.
        for left, right in zip(loaded, loaded[1:]):
            assert right.predecessor is left

    def test_empty_store(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        SnapshotStore().save(path)
        assert list(SnapshotStore.iter_file(path)) == []

    def test_unknown_format_rejected(self, tmp_path):
        # A JSON-lines snapshot file (the layout before snapshots.bin) is
        # not read: one line naming the file.
        path = str(tmp_path / "snapshots.jsonl")
        with open(path, "w") as handle:
            for snapshot in build_store():
                handle.write(json.dumps(snapshot.to_dict()) + "\n")
        with pytest.raises(ProfileFormatError) as excinfo:
            list(SnapshotStore.iter_file(path))
        message = str(excinfo.value)
        assert path in message
        assert "not a binary snapshot store" in message
        assert len(message.splitlines()) == 1


class TestCorruption:
    def test_truncated_id_column(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        build_store().save(path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-20])
        with pytest.raises(ProfileFormatError) as excinfo:
            list(SnapshotStore.iter_file(path))
        message = str(excinfo.value)
        assert path in message
        assert "truncated" in message

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        with open(path, "wb") as handle:
            handle.write(SNAPSHOTS_MAGIC + b"\xff\xff\xff\x7f")
        with pytest.raises(ProfileFormatError, match="truncated"):
            list(SnapshotStore.iter_file(path))

    def test_corrupt_header_json(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        body = b"not json"
        with open(path, "wb") as handle:
            handle.write(SNAPSHOTS_MAGIC)
            handle.write(len(body).to_bytes(4, "little"))
            handle.write(body)
        with pytest.raises(ProfileFormatError, match="corrupt"):
            list(SnapshotStore.iter_file(path))

    def test_corrupt_id_column_payload(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        store = SnapshotStore()
        store.append(make_full(1, range(100)))
        store.save(path)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # flip bits inside the last id column
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(ProfileFormatError) as excinfo:
            list(SnapshotStore.iter_file(path))
        assert "live_object_ids" in str(excinfo.value)

    def test_trailing_bytes_detected(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        build_store().save(path)
        with open(path, "ab") as handle:
            handle.write(b"extra")
        with pytest.raises(ProfileFormatError, match="trailing"):
            list(SnapshotStore.iter_file(path))


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
            list(SnapshotStore.iter_file(path))
        message = str(excinfo.value)
        assert len(message.splitlines()) == 1
        assert "polm2-snapshots-v3" in message
        assert SNAPSHOTS_SCHEMA in message
        assert "upgrade" in message

    def test_unknown_schema_rejected(self, tmp_path):
        path = str(tmp_path / "snapshots.bin")
        self._write_with_schema(path, "something-else")
        with pytest.raises(ProfileFormatError, match="unknown snapshot store"):
            list(SnapshotStore.iter_file(path))
