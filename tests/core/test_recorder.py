"""Unit tests for the Recorder agent and allocation records."""

import dataclasses
import os

import pytest

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.recorder import AllocationRecords, Recorder
from repro.errors import ProfileFormatError
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM


def build_vm_with_recorder(snapshot_every: int = 1):
    """A small VM with a Recorder and a Dumper whose snapshots land in
    the returned list."""
    vm = VM(SimConfig.small(), collector=NG2CCollector())
    recorder = Recorder(snapshot_every=snapshot_every)
    snapshots = []
    dumper = Dumper(snapshots.append)
    vm.attach_agent(recorder)
    vm.attach_agent(dumper)
    model = ClassModel("C")
    model.add_method("m").add_alloc_site(10, "Obj", 512)
    vm.classloader.load(model)
    return vm, recorder, dumper, snapshots


class TestAllocationRecords:
    def test_log_interns_traces(self):
        records = AllocationRecords()
        trace = (("C", "m", 10),)
        t1 = records.log(trace, 1)
        t2 = records.log(trace, 2)
        assert t1 == t2
        assert records.trace_count == 1
        assert list(records.streams[t1]) == [1, 2]
        assert records.total_allocations == 2

    def test_distinct_traces_distinct_streams(self):
        records = AllocationRecords()
        records.log((("C", "a", 1),), 1)
        records.log((("C", "b", 2),), 2)
        assert records.trace_count == 2

    def test_flush_and_load_roundtrip(self, tmp_path):
        records = AllocationRecords()
        trace = (("C", "m", 10), ("D", "n", 20))
        for oid in (5, 6, 7):
            records.log(trace, oid)
        records.flush_to_dir(str(tmp_path))
        loaded = AllocationRecords.load_from_dir(str(tmp_path))
        assert loaded.traces == records.traces
        assert loaded.streams == records.streams

    def test_load_missing_table_raises(self, tmp_path):
        with pytest.raises(ProfileFormatError):
            AllocationRecords.load_from_dir(str(tmp_path / "nope"))

    def test_flush_writes_single_streams_file(self, tmp_path):
        records = AllocationRecords()
        for line in range(40):
            records.log((("C", "m", line),), line)
        records.flush_to_dir(str(tmp_path))
        names = sorted(os.listdir(str(tmp_path)))
        assert names == ["streams.bin", "traces.json"]

    def test_load_legacy_per_trace_layout(self, tmp_path):
        # The historical layout (traces.json plus one stream_<tid>.ids
        # text file per trace) is not read: a one-line error names the
        # missing streams.bin.
        (tmp_path / "traces.json").write_text(
            '{"1": [["C", "m", 10]], "2": [["C", "n", 20]]}'
        )
        (tmp_path / "stream_1.ids").write_text("5\n6\n7")
        (tmp_path / "stream_2.ids").write_text("8")
        with pytest.raises(ProfileFormatError) as err:
            AllocationRecords.load_from_dir(str(tmp_path))
        message = str(err.value)
        assert str(tmp_path / "streams.bin") in message
        assert "\n" not in message

    def test_load_corrupt_streams_file_raises(self, tmp_path):
        records = AllocationRecords()
        records.log((("C", "m", 10),), 1)
        records.flush_to_dir(str(tmp_path))
        blob = (tmp_path / "streams.bin").read_bytes()
        (tmp_path / "streams.bin").write_bytes(blob[:-4])  # truncate
        with pytest.raises(ProfileFormatError):
            AllocationRecords.load_from_dir(str(tmp_path))
        (tmp_path / "streams.bin").write_bytes(b"NOTMAGIC" + blob[8:])
        with pytest.raises(ProfileFormatError):
            AllocationRecords.load_from_dir(str(tmp_path))

    def test_int_keyed_fast_path_matches_log(self):
        """intern_trace + append must number and store identically to log."""
        slow = AllocationRecords()
        fast = AllocationRecords()
        traces = [(("C", "m", line),) for line in (1, 2, 1, 3, 2, 1)]
        for oid, trace in enumerate(traces):
            slow.log(trace, oid)
            fast.append(fast.intern_trace(trace), oid)
        assert slow.traces == fast.traces
        assert slow.streams == fast.streams


class TestRecorderInstrumentation:
    def test_all_sites_record_hooked_at_load(self):
        vm, recorder, _, _ = build_vm_with_recorder()
        site = vm.classloader.lookup("C").method("m").alloc_site(10)
        assert site.record_hook
        assert recorder.instrumented_site_count == 1

    def test_allocations_logged_with_trace(self):
        vm, recorder, _, _ = build_vm_with_recorder()
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            obj = thread.alloc(10)
        assert recorder.records.total_allocations == 1
        trace_id = next(iter(recorder.records.streams))
        assert recorder.records.traces[trace_id] == (("C", "m", 10),)
        assert list(recorder.records.streams[trace_id]) == [obj.object_id]

    def test_logging_charges_mutator_time(self):
        vm, recorder, _, _ = build_vm_with_recorder()
        thread = vm.new_thread("t")
        before = vm.clock.now_us
        with thread.entry("C", "m"):
            thread.alloc(10)
        assert vm.clock.now_us > before


class TestSnapshotTriggering:
    def test_snapshot_after_every_gc_cycle(self):
        vm, recorder, dumper, _ = build_vm_with_recorder(snapshot_every=1)
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            while vm.collector.cycles < 3:
                thread.alloc(10, keep=False)
        assert dumper.snapshots_taken == vm.collector.cycles

    def test_snapshot_every_n_cycles(self):
        vm, recorder, dumper, _ = build_vm_with_recorder(snapshot_every=2)
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            while vm.collector.cycles < 4:
                thread.alloc(10, keep=False)
        assert dumper.snapshots_taken == vm.collector.cycles // 2

    def test_no_need_marked_before_snapshot(self):
        vm, recorder, _, snapshots = build_vm_with_recorder()
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            while not snapshots:
                thread.alloc(10, keep=False)
        # Everything allocated was garbage, so the snapshot skipped the
        # (dead) young pages: far fewer pages than were dirtied.
        snap = snapshots[0]
        assert snap.pages_written * vm.heap.page_size < vm.config.young_bytes

    def test_snapshot_time_charged_to_clock(self):
        vm, recorder, _, snapshots = build_vm_with_recorder()
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            while not snapshots:
                thread.alloc(10, keep=False)
        snap = snapshots[0]
        assert vm.clock.now_us >= snap.duration_us

    def test_invalid_snapshot_every(self):
        with pytest.raises(ValueError):
            Recorder(snapshot_every=0)


class TestSingleFullTracePerSnapshot:
    """Satellite: a partial (remembered-set) collection must not cause the
    heap to be fully traced twice at the same safepoint — the Recorder's
    snapshot trace is adopted by the collector and reused."""

    def build(self):
        config = dataclasses.replace(SimConfig.small(), use_remembered_sets=True)
        vm = VM(config, collector=G1Collector())
        recorder = Recorder(snapshot_every=1)
        dumper = Dumper(lambda snapshot: None)
        vm.attach_agent(recorder)
        vm.attach_agent(dumper)
        model = ClassModel("C")
        model.add_method("m").add_alloc_site(10, "Obj", 512)
        vm.classloader.load(model)
        return vm, recorder, dumper

    def test_at_most_one_full_trace_per_snapshot(self):
        vm, _, dumper = self.build()
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            count = 0
            while dumper.snapshots_taken < 5:
                count += 1
                # Keep every 8th object live so traces and evacuations
                # have real work and the remembered set stays populated.
                thread.alloc(10, keep=count % 8 == 0)
        assert vm.heap.partial_trace_count >= 1, "remset young traces expected"
        assert vm.heap.full_trace_count <= dumper.snapshots_taken

    def test_mixed_collection_reuses_recorder_trace(self):
        vm, _, dumper = self.build()
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            count = 0
            while vm.collector.cycles == 0:
                count += 1
                thread.alloc(10, keep=count % 8 == 0)
            # The young pause just ran: partial trace, then the Recorder's
            # snapshot full-traced through the collector (adoption).
            assert not vm.collector.last_trace_was_partial
            traces_before = vm.heap.full_trace_count
            vm.collector.collect_mixed()
            assert vm.heap.full_trace_count == traces_before
