"""Tests for the offline record-then-analyze workflow."""

import hashlib
import json
import os
import shutil
from array import array

import pytest

from repro.__main__ import main
from repro.core.offline import (
    RECORDING_SCHEMA_VERSION,
    analyze_recording,
    record_to_dir,
)
from repro.core.pipeline import POLM2Pipeline
from repro.core.recorder import AllocationRecords
from repro.errors import ProfileFormatError
from repro.snapshot.binstore import iter_binary, write_store
from repro.snapshot.snapshot import Snapshot
from repro.workloads import make_workload


class TestSnapshotPersistence:
    def test_store_roundtrip(self, tmp_path):
        snapshots = [
            Snapshot(
                seq=seq,
                time_ms=float(seq),
                engine="criu",
                pages_written=seq,
                size_bytes=seq * 4096,
                duration_us=seq * 10.0,
                live_object_ids=frozenset({seq, seq + 10}),
                incremental=seq > 1,
            )
            for seq in (1, 2)
        ]
        path = str(tmp_path / "snaps.bin")
        write_store(path, snapshots)
        loaded = list(iter_binary(path))
        assert len(loaded) == 2
        assert loaded[0].live_object_ids == frozenset({1, 11})
        assert loaded[1].incremental
        assert loaded[1].size_bytes == 8192


class TestRecordAnalyze:
    @pytest.fixture(scope="class")
    def recording(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("rec") / "cassandra-wi")
        record_to_dir("cassandra-wi", out, duration_ms=10_000.0, seed=7)
        return out

    def test_recording_directory_contents(self, recording):
        assert os.path.exists(os.path.join(recording, "traces.json"))
        # Recordings use the binary columnar snapshot store.
        assert os.path.exists(os.path.join(recording, "snapshots.bin"))
        assert sorted(os.listdir(recording)) == [
            "meta.json",
            "snapshots.bin",
            "streams.bin",
            "traces.json",
        ]
        with open(os.path.join(recording, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta["workload"] == "cassandra-wi"
        assert meta["snapshot_format"] == "binary"
        assert meta["allocations_recorded"] > 0
        assert meta["snapshots_taken"] > 0

    def test_offline_analysis_matches_online(self, recording):
        offline = analyze_recording(recording)
        pipeline = POLM2Pipeline(lambda: make_workload("cassandra-wi", seed=7))
        online = pipeline.run_profiling_phase(duration_ms=10_000.0)
        assert {d.location for d in offline.alloc_directives} == {
            d.location for d in online.alloc_directives
        }
        assert offline.conflicts_detected == online.conflicts_detected

    def test_analyze_requires_meta(self, tmp_path):
        with pytest.raises(ProfileFormatError):
            analyze_recording(str(tmp_path))

    def test_analyzed_profile_is_usable(self, recording):
        profile = analyze_recording(recording)
        pipeline = POLM2Pipeline(lambda: make_workload("cassandra-wi", seed=7))
        result = pipeline.run_production_phase(profile, duration_ms=8_000.0)
        assert result.ops_completed > 0

    def test_meta_carries_schema_version(self, recording):
        with open(os.path.join(recording, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta["schema_version"] == RECORDING_SCHEMA_VERSION


class TestRecordingDeterminism:
    def test_recording_ignores_earlier_runs_in_the_process(self, tmp_path):
        # Object ids come from a process-wide counter that every run
        # restarts, so another run in between changes nothing.
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        record_to_dir("lucene", first, duration_ms=1_500.0, seed=42)
        POLM2Pipeline(lambda: make_workload("cassandra-wi", seed=0)).run(
            "g1", duration_ms=300.0
        )
        record_to_dir("lucene", second, duration_ms=1_500.0, seed=42)
        for name in sorted(os.listdir(first)):
            with open(os.path.join(first, name), "rb") as a, open(
                os.path.join(second, name), "rb"
            ) as b:
                assert a.read() == b.read(), name
        with open(os.path.join(first, "snapshots.bin"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        # The same bytes a fresh process records.
        assert digest.startswith("3641b8b7ed85")


def _edit_json(name, change):
    """A recording edit that rewrites the JSON file ``name``."""

    def edit(recording_dir):
        path = os.path.join(recording_dir, name)
        with open(path) as handle:
            payload = json.load(handle)
        with open(path, "w") as handle:
            json.dump(change(payload), handle)

    return edit


def _set_meta(key, value):
    return _edit_json("meta.json", lambda meta: {**meta, key: value})


def _first_frame(change_frame):
    def change(table):
        frames = table[min(table, key=int)]
        frames[0] = change_frame(frames[0])
        return table

    return _edit_json("traces.json", change)


def _rekey_first_trace(table):
    first = min(table, key=int)
    table["trace-" + first] = table.pop(first)
    return table


def _drop_last_trace(table):
    del table[max(table, key=int)]
    return table


def _repeat_first_stream(recording_dir):
    # A second, empty stream for trace 1 after the real one.
    with open(os.path.join(recording_dir, "streams.bin"), "ab") as handle:
        handle.write(array("q", (1, 0)).tobytes())


#: ``(case id, recording edit, file the error must name)``.
_MALFORMED = [
    ("max-generations-str", _set_meta("max_generations", "x"), "meta.json"),
    ("max-generations-list", _set_meta("max_generations", [1]), "meta.json"),
    ("traces-not-object", _edit_json("traces.json", lambda t: []), "traces.json"),
    ("trace-key-not-int", _edit_json("traces.json", _rekey_first_trace),
     "traces.json"),
    ("one-element-frame", _first_frame(lambda f: f[:1]), "traces.json"),
    ("line-not-int", _first_frame(lambda f: [f[0], f[1], "ten"]), "traces.json"),
    # The table loses a trace whose stream streams.bin still carries.
    ("stream-without-trace", _edit_json("traces.json", _drop_last_trace),
     "streams.bin"),
    ("stream-repeated", _repeat_first_stream, "streams.bin"),
]


class TestRecordingFormatErrors:
    """Corrupt or future-versioned recordings fail loudly, naming the file."""

    @pytest.fixture(scope="class")
    def recording(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("rec-err") / "cassandra-wi")
        record_to_dir("cassandra-wi", out, duration_ms=4_000.0, seed=5)
        return out

    def _copy(self, recording, tmp_path):
        dest = str(tmp_path / "copy")
        shutil.copytree(recording, dest)
        return dest

    def test_missing_meta_names_path_and_version(self, tmp_path):
        with pytest.raises(ProfileFormatError) as err:
            analyze_recording(str(tmp_path))
        message = str(err.value)
        assert os.path.join(str(tmp_path), "meta.json") in message
        assert f"schema v{RECORDING_SCHEMA_VERSION}" in message

    def test_corrupt_meta_names_path_and_version(self, recording, tmp_path):
        broken = self._copy(recording, tmp_path)
        with open(os.path.join(broken, "meta.json"), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ProfileFormatError) as err:
            analyze_recording(broken)
        message = str(err.value)
        assert os.path.join(broken, "meta.json") in message
        assert f"schema v{RECORDING_SCHEMA_VERSION}" in message

    def test_future_recording_schema_rejected(self, recording, tmp_path):
        broken = self._copy(recording, tmp_path)
        meta_path = os.path.join(broken, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["schema_version"] = RECORDING_SCHEMA_VERSION + 1
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(ProfileFormatError) as err:
            analyze_recording(broken)
        message = str(err.value)
        assert "\n" not in message
        assert "newer than the supported" in message

    def test_truncated_streams_names_path(self, recording, tmp_path):
        broken = self._copy(recording, tmp_path)
        streams_path = os.path.join(broken, "streams.bin")
        size = os.path.getsize(streams_path)
        with open(streams_path, "rb") as handle:
            blob = handle.read(size - 4)
        with open(streams_path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(ProfileFormatError) as err:
            analyze_recording(broken)
        message = str(err.value)
        assert streams_path in message
        assert "truncated" in message

    def test_missing_snapshots_names_path(self, recording, tmp_path):
        broken = self._copy(recording, tmp_path)
        snapshots_path = os.path.join(broken, "snapshots.bin")
        os.remove(snapshots_path)
        with pytest.raises(ProfileFormatError) as err:
            analyze_recording(broken)
        assert snapshots_path in str(err.value)

    def test_corrupt_snapshot_line_names_path(self, recording, tmp_path):
        broken = self._copy(recording, tmp_path)
        snapshots_path = os.path.join(broken, "snapshots.bin")
        with open(snapshots_path, "ab") as handle:
            handle.write(b"{broken line\n")
        with pytest.raises(ProfileFormatError) as err:
            analyze_recording(broken)
        message = str(err.value)
        assert snapshots_path in message
        assert "trailing bytes" in message
        assert "\n" not in message

    @pytest.mark.parametrize(
        "edit, named",
        [case[1:] for case in _MALFORMED],
        ids=[case[0] for case in _MALFORMED],
    )
    def test_malformed_contents_fail_in_one_line(
        self, recording, tmp_path, capsys, edit, named
    ):
        # Through the library and through ``repro analyze`` (exit 2).
        broken = self._copy(recording, tmp_path)
        edit(broken)
        with pytest.raises(ProfileFormatError) as err:
            analyze_recording(broken)
        message = str(err.value)
        assert os.path.join(broken, named) in message
        assert "\n" not in message
        out = str(tmp_path / "profile.json")
        assert main(["analyze", broken, "-o", out]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not os.path.exists(out)


class TestLegacyLayouts:
    """Recordings in a pre-binary layout fail with one line naming the file."""

    @pytest.fixture(scope="class")
    def recording(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("rec-legacy") / "cassandra-wi")
        record_to_dir("cassandra-wi", out, duration_ms=4_000.0, seed=3)
        return out

    def _legacy_error(self, broken):
        with pytest.raises(ProfileFormatError) as err:
            analyze_recording(broken)
        message = str(err.value)
        assert "\n" not in message
        return message

    def test_per_trace_stream_files_rejected(self, recording, tmp_path):
        legacy = str(tmp_path / "legacy")
        shutil.copytree(recording, legacy)
        records = AllocationRecords.load_from_dir(legacy)
        os.remove(os.path.join(legacy, "streams.bin"))
        for tid, stream in records.streams.items():
            with open(os.path.join(legacy, f"stream_{tid}.ids"), "w") as handle:
                handle.write("\n".join(str(oid) for oid in stream))
        message = self._legacy_error(legacy)
        assert os.path.join(legacy, "streams.bin") in message

    def test_json_lines_snapshots_rejected(self, recording, tmp_path):
        legacy = str(tmp_path / "legacy")
        shutil.copytree(recording, legacy)
        snapshots_path = os.path.join(legacy, "snapshots.bin")
        snapshots = list(iter_binary(snapshots_path))
        os.remove(snapshots_path)
        with open(os.path.join(legacy, "snapshots.jsonl"), "w") as handle:
            for snapshot in snapshots:
                handle.write(json.dumps(snapshot.to_dict()) + "\n")
        assert snapshots_path in self._legacy_error(legacy)
