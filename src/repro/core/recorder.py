"""The Recorder: allocation logging plus snapshot triggering (paper §3.2/§4.1).

A Java agent attached to the profiled JVM with two jobs:

1. **Instrument allocations.**  At class-load time it rewrites every
   allocation site to call back into the Recorder, which logs the current
   stack trace (interned — each distinct trace is kept once in memory and
   written to disk only at shutdown) and the allocated object's identity
   hash code (appended to a per-trace stream).
2. **Trigger snapshots.**  After every GC cycle (configurable period) it
   first asks the collector to mark pages holding no live objects with the
   no-need bit (the ``madvise`` optimization of §4.2) and then signals the
   Dumper to take an incremental snapshot.
"""

from __future__ import annotations

import json
import os
from array import array
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.idset import IdSet
from repro.errors import ProfileFormatError
from repro.runtime.code import AllocSite, ClassModel, CodeLocation
from repro.runtime.events import (
    SNAPSHOT_POINT,
    GCEndEvent,
    SnapshotPointEvent,
    VMAgent,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.heap.objects import HeapObject
    from repro.runtime.vm import VM

#: Magic prefix of the single-file streams layout (see ``flush_to_dir``).
_STREAMS_MAGIC = b"POLM2IDS"
_STREAMS_FILENAME = "streams.bin"


def _parse_trace(frames: object) -> Tuple[CodeLocation, ...]:
    """One ``traces.json`` entry: a list of ``[class, method, line]``."""
    if not isinstance(frames, list):
        raise ValueError(f"expected a list of frames, got {frames!r}")
    trace = []
    for frame in frames:
        if (
            not isinstance(frame, list)
            or len(frame) != 3
            or not isinstance(frame[0], str)
            or not isinstance(frame[1], str)
            or type(frame[2]) is not int
        ):
            raise ValueError(
                f"frame {frame!r} is not [class, method, int line]"
            )
        trace.append((frame[0], frame[1], frame[2]))
    return tuple(trace)


class AllocationRecords:
    """In-memory allocation records: trace table + per-trace id streams.

    Mirrors the Recorder's storage strategy: a table of interned stack
    traces (flushed once) and an append-only stream of object ids per
    trace.  Streams are ``array('q')`` — packed 64-bit ints, appended to
    on every single allocation — rather than lists of boxed Python ints.
    """

    def __init__(self) -> None:
        self._trace_ids: Dict[Tuple[CodeLocation, ...], int] = {}
        self.traces: Dict[int, Tuple[CodeLocation, ...]] = {}
        self.streams: Dict[int, array] = {}

    def intern_trace(self, trace: Tuple[CodeLocation, ...]) -> int:
        """Intern ``trace`` and return its record trace id (1-based,
        first-encounter order), creating its empty stream on first use."""
        trace_id = self._trace_ids.get(trace)
        if trace_id is None:
            trace_id = len(self._trace_ids) + 1
            self._trace_ids[trace] = trace_id
            self.traces[trace_id] = trace
            self.streams[trace_id] = array("q")
        return trace_id

    def append(self, trace_id: int, object_id: int) -> None:
        """Append one allocation to an already-interned trace's stream."""
        self.streams[trace_id].append(object_id)

    def log(self, trace: Tuple[CodeLocation, ...], object_id: int) -> int:
        """Record one allocation; returns the interned trace id.

        Convenience path that hashes the trace tuple; the Recorder's hot
        path interns once per VM trace id and calls :meth:`append`.
        """
        trace_id = self.intern_trace(trace)
        self.streams[trace_id].append(object_id)
        return trace_id

    @property
    def trace_count(self) -> int:
        return len(self.traces)

    @property
    def total_allocations(self) -> int:
        return sum(len(stream) for stream in self.streams.values())

    # -- persistence (the "flushed to disk at the end" behaviour of §3.2) ----

    def flush_to_dir(self, path: str) -> None:
        """Write the trace table and the id streams to ``path``.

        The streams land in one length-prefixed binary file
        (``streams.bin``): an 8-byte magic, then per stream a
        ``(trace_id, count)`` pair of machine int64s followed by ``count``
        int64 object ids (native byte order, straight out of the
        ``array('q')`` buffers).
        """
        os.makedirs(path, exist_ok=True)
        table = {
            str(tid): [list(frame) for frame in trace]
            for tid, trace in self.traces.items()
        }
        with open(os.path.join(path, "traces.json"), "w") as handle:
            json.dump(table, handle)
        with open(os.path.join(path, _STREAMS_FILENAME), "wb") as handle:
            handle.write(_STREAMS_MAGIC)
            for tid, stream in self.streams.items():
                handle.write(array("q", (tid, len(stream))).tobytes())
                handle.write(stream.tobytes())

    @classmethod
    def load_from_dir(cls, path: str) -> "AllocationRecords":
        records = cls()
        table_path = os.path.join(path, "traces.json")
        try:
            with open(table_path) as handle:
                table = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ProfileFormatError(
                f"{table_path}: cannot read trace table: {exc}"
            ) from exc
        if not isinstance(table, dict):
            raise ProfileFormatError(
                f"{table_path}: trace table must be a JSON object mapping "
                "trace ids to frame lists"
            )
        for tid_str, trace_list in table.items():
            try:
                tid = int(tid_str)
                trace = _parse_trace(trace_list)
            except ValueError as exc:
                raise ProfileFormatError(
                    f"{table_path}: malformed trace {tid_str!r}: {exc}"
                ) from exc
            records._trace_ids[trace] = tid
            records.traces[tid] = trace
            records.streams[tid] = array("q")
        records._load_streams_file(os.path.join(path, _STREAMS_FILENAME))
        return records

    def _load_streams_file(self, streams_path: str) -> None:
        try:
            with open(streams_path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise ProfileFormatError(
                f"{streams_path}: cannot read allocation streams: {exc}"
            ) from exc
        if blob[: len(_STREAMS_MAGIC)] != _STREAMS_MAGIC:
            raise ProfileFormatError(
                f"{streams_path}: bad magic, not a streams file"
            )
        offset = len(_STREAMS_MAGIC)
        end = len(blob)
        seen = set()
        while offset < end:
            if offset + 16 > end:
                raise ProfileFormatError(f"{streams_path}: truncated header")
            header = array("q")
            header.frombytes(blob[offset : offset + 16])
            trace_id, count = header
            offset += 16
            if count < 0 or offset + 8 * count > end:
                raise ProfileFormatError(
                    f"{streams_path}: truncated stream for trace {trace_id}"
                )
            if trace_id not in self.traces:
                raise ProfileFormatError(
                    f"{streams_path}: stream for trace {trace_id} has no "
                    "entry in the trace table"
                )
            if trace_id in seen:
                raise ProfileFormatError(
                    f"{streams_path}: second stream for trace {trace_id}"
                )
            seen.add(trace_id)
            stream = array("q")
            stream.frombytes(blob[offset : offset + 8 * count])
            offset += 8 * count
            self.streams[trace_id] = stream


class Recorder(VMAgent):
    """The profiling-phase agent: class transformer + allocation logger.

    As a :class:`~repro.runtime.events.VMAgent` it subscribes to raw
    allocations and ``GC_END``; when a cycle ends on a snapshot period it
    marks no-need pages and publishes ``SNAPSHOT_POINT``, which the
    Dumper (a sibling agent) consumes.
    """

    def __init__(self, snapshot_every: int = 1, mark_no_need: bool = True) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.snapshot_every = snapshot_every
        #: When False, skips the madvise/no-need page marking of §4.2 —
        #: the ablation quantifying that optimization's contribution.
        self.mark_no_need = mark_no_need
        self.records = AllocationRecords()
        self.instrumented_site_count = 0
        self.vm: Optional["VM"] = None
        self._cycles_since_snapshot = 0
        #: VM trace id -> record trace id.  The VM interns each distinct
        #: stack trace once (see ``VM._recorded_trace``), so after the
        #: first sighting an allocation is logged with two int-keyed dict
        #: hits — the trace tuple is never hashed again.
        self._record_ids_by_vm_trace: Dict[int, int] = {}

    # -- agent lifecycle -----------------------------------------------------------

    def on_attach(self, vm: "VM") -> None:
        self.vm = vm

    def on_detach(self, vm: "VM") -> None:
        self.vm = None

    def telemetry(self) -> Dict[str, int]:
        return {
            "allocations_logged": self.records.total_allocations,
            "traces_interned": self.records.trace_count,
        }

    # -- ClassTransformer ------------------------------------------------------------

    def transform(self, class_model: ClassModel) -> ClassModel:
        """Flip the record hook on every allocation site of the class."""
        for site in class_model.iter_alloc_sites():
            site.record_hook = True
            self.instrumented_site_count += 1
        return class_model

    # -- allocation callback -----------------------------------------------------------

    def on_allocation(
        self, obj: "HeapObject", site: AllocSite, trace: tuple
    ) -> None:
        vm_trace_id = obj.trace_id
        record_id = self._record_ids_by_vm_trace.get(vm_trace_id)
        if record_id is not None:
            self.records.streams[record_id].append(obj.object_id)
        elif vm_trace_id:
            # First sighting of this trace: intern the tuple once.
            # VM interning is injective, so record ids still follow
            # first-encounter order exactly as trace-keyed logging did.
            record_id = self.records.log(trace, obj.object_id)
            self._record_ids_by_vm_trace[vm_trace_id] = record_id
        else:
            # No VM-interned id (direct calls outside a site): slow path.
            self.records.log(trace, obj.object_id)
        vm = self.vm
        if vm is not None:
            # Logging costs mutator time; this is the profiling overhead
            # the paper accepts in exchange for offline analysis.
            vm.clock.advance_us(vm.config.costs.record_log_us)

    def on_allocation_batch(
        self, objs: List["HeapObject"], site: AllocSite, trace: tuple
    ) -> None:
        """:meth:`on_allocation` for each of ``objs``, in order.

        Not an agent hook, and nothing under ``src/`` calls it: it is kept
        only because the end-to-end benchmark's tracer wraps it by name.
        Delete it together with the benchmark's
        ``recorder.alloc_batch_hook.*`` metrics (the open benchmark item
        in ROADMAP.md).
        """
        for obj in objs:
            self.on_allocation(obj, site, trace)

    # -- GC cycle callback ----------------------------------------------------------------

    def on_gc_end(self, event: GCEndEvent) -> None:
        pause = event.pause
        self._cycles_since_snapshot += 1
        if self._cycles_since_snapshot < self.snapshot_every:
            return
        self._cycles_since_snapshot = 0
        vm = self.vm
        if vm is None or not vm.events.has_listeners(SNAPSHOT_POINT):
            # Nobody consumes snapshot points (no Dumper attached): skip
            # the no-need marking and the checkpoint entirely.
            return
        collector = vm.collector
        live = collector.last_live_objects
        if collector.last_trace_was_partial:
            # Remembered-set collections only establish young liveness;
            # snapshots need the full live set.  Trace through the
            # *collector* so the result (live list + mark epoch) is adopted
            # as its latest trace: a mixed/generation collection at this
            # same safepoint then reuses it instead of tracing the heap a
            # second time.
            live = collector.trace_live()
        if self.mark_no_need:
            # §4.1: before signalling the Dumper, traverse the heap and set
            # the no-need bit on every page with no live objects (madvise).
            vm.heap.mark_unused_pages_no_need(collector.last_mark_epoch)
        # The live ids are the CRIU engine's logical content (identity
        # hashes are monotonic, so the set is runs + bitmap blocks).
        live_ids = IdSet(obj.object_id for obj in live)
        vm.events.publish(
            SNAPSHOT_POINT, SnapshotPointEvent(pause=pause, live_ids=live_ids)
        )
