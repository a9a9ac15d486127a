"""The Dumper: CRIU-backed incremental JVM snapshots (paper §3.2/§4.2).

Upon request from the Recorder, checkpoints the JVM's memory.  Snapshots
are incremental (dirty pages only) and skip pages the Recorder marked
no-need.  Snapshot creation stops the application, so the time each
checkpoint takes is charged to the virtual clock — this is the profiling
disturbance Figures 3/4 show the CRIU engine reducing by >90 % relative
to jmap.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, TYPE_CHECKING

from repro.errors import ReproError
from repro.runtime.events import SnapshotPointEvent, VMAgent
from repro.snapshot.criu import CRIUEngine
from repro.snapshot.snapshot import Snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.vm import VM


class Dumper(VMAgent):
    """Creates incremental memory snapshots of the profiled VM.

    An agent subscribed to ``SNAPSHOT_POINT`` events published by the
    Recorder: ``vm.attach_agent(dumper)`` wires it to a VM.  Each
    snapshot goes to ``consume`` the moment it is taken (the analyzer's
    ``ProfileBuilder.feed_snapshot``, or a caller's list); the Dumper
    keeps none of them, only the count in :attr:`snapshots_taken`.
    """

    def __init__(self, consume: Callable[[Snapshot], None]) -> None:
        self.consume = consume
        self.vm: Optional["VM"] = None
        self.engine: Optional[CRIUEngine] = None
        self.snapshots_taken = 0

    # -- agent lifecycle -----------------------------------------------------------

    def on_attach(self, vm: "VM") -> None:
        self.vm = vm
        if self.engine is None:
            self.engine = CRIUEngine(vm.config.costs)

    def on_snapshot_point(self, event: SnapshotPointEvent) -> None:
        self.take_snapshot(event.live_ids)

    def telemetry(self) -> Dict[str, int]:
        return {"snapshots_taken": self.snapshots_taken}

    # -- snapshotting ---------------------------------------------------------------

    def take_snapshot(self, live_ids: FrozenSet[int]) -> Snapshot:
        """Checkpoint now; the application is stopped for the duration.

        ``live_ids`` holds the identity hashes of the reachable objects.
        The snapshot is handed to ``consume`` before this returns.
        """
        if self.vm is None or self.engine is None:
            raise ReproError("Dumper is not attached to a VM")
        snapshot = self.engine.checkpoint(
            self.vm.heap, live_ids, self.vm.clock.now_ms
        )
        self.vm.clock.advance_us(snapshot.duration_us)
        self.snapshots_taken += 1
        self.consume(snapshot)
        return snapshot
