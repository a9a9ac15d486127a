"""The Dumper: CRIU-backed incremental JVM snapshots (paper §3.2/§4.2).

Upon request from the Recorder, checkpoints the JVM's memory.  Snapshots
are incremental (dirty pages only) and skip pages the Recorder marked
no-need.  Snapshot creation stops the application, so the time each
checkpoint takes is charged to the virtual clock — this is the profiling
disturbance Figures 3/4 show the CRIU engine reducing by >90 % relative
to jmap.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, TYPE_CHECKING

from repro.errors import ReproError
from repro.runtime.events import SnapshotPointEvent, VMAgent
from repro.snapshot.criu import CRIUEngine
from repro.snapshot.snapshot import Snapshot, SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.idset import IdSet
    from repro.heap.objects import HeapObject
    from repro.runtime.vm import VM


class Dumper(VMAgent):
    """Creates incremental memory snapshots of the profiled VM.

    An agent subscribed to ``SNAPSHOT_POINT`` events published by the
    Recorder: ``vm.attach_agent(dumper)`` wires it to a VM.
    """

    def __init__(self, store: Optional[SnapshotStore] = None) -> None:
        self.vm: Optional["VM"] = None
        self.engine: Optional[CRIUEngine] = None
        # NOTE: an explicit identity check — a freshly created store is
        # empty and therefore falsy, so ``store or SnapshotStore()`` would
        # silently discard a caller-provided store.
        self.store = store if store is not None else SnapshotStore()

    # -- agent lifecycle -----------------------------------------------------------

    def on_attach(self, vm: "VM") -> None:
        self.vm = vm
        if self.engine is None:
            self.engine = CRIUEngine(vm.config.costs)

    def on_snapshot_point(self, event: SnapshotPointEvent) -> None:
        self.take_snapshot(event.live, live_ids=event.live_ids)

    def telemetry(self) -> Dict[str, int]:
        return {"snapshots_taken": self.snapshots_taken}

    # -- snapshotting ---------------------------------------------------------------

    def take_snapshot(
        self,
        live_objects: Iterable["HeapObject"],
        live_ids: Optional["IdSet"] = None,
    ) -> Snapshot:
        """Checkpoint now; the application is stopped for the duration.

        ``live_ids``, when provided (the snapshot-point path), is the
        prebuilt :class:`IdSet` of ``live_objects``' ids, saving the
        engine one per-object pass.
        """
        if self.vm is None or self.engine is None:
            raise ReproError("Dumper is not attached to a VM")
        snapshot = self.engine.checkpoint(
            self.vm.heap, live_objects, self.vm.clock.now_ms, live_ids=live_ids
        )
        self.vm.clock.advance_us(snapshot.duration_us)
        self.store.append(snapshot)
        return snapshot

    @property
    def snapshots_taken(self) -> int:
        return len(self.store)
