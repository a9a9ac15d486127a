"""Tests for the binary columnar snapshot store (``snapshots.bin``)."""

import json

import pytest

from repro.config import CostModel, SimConfig
from repro.core.idset import IdSet
from repro.errors import ProfileFormatError
from repro.heap.heap import SimHeap
from repro.snapshot.binstore import (
    SNAPSHOTS_MAGIC,
    SNAPSHOTS_SCHEMA,
    _load_header,
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
    live = IdSet(range(1000))
    snapshots = [make_snapshot(1, live, incremental=False)]
    for seq in range(2, 8):
        live = (live | IdSet(range(seq * 1000, seq * 1000 + 500))) - IdSet(
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
            ids = IdSet(obj.object_id for obj in live)
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
