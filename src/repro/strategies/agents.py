"""Small reusable VM agents built on the event bus.

These are the "dividend" agents of the event-layer refactor: observers
that need no special wiring in the pipeline, just ``vm.attach_agent``.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.runtime.events import VMAgent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gc.base import GenerationalCollector
    from repro.runtime.events import (
        ClassLoadEvent,
        GCEndEvent,
        SafepointEvent,
        SnapshotPointEvent,
    )


class TelemetryAgent(VMAgent):
    """Counts bus traffic; counters land in ``PhaseResult.telemetry``."""

    def __init__(self) -> None:
        self.classes_loaded = 0
        self.allocations_seen = 0
        self.safepoints = 0
        self.gc_pauses = 0
        self.snapshot_points = 0

    def on_class_load(self, event: "ClassLoadEvent") -> None:
        self.classes_loaded += 1

    def on_allocation(self, obj, site, trace) -> None:
        self.allocations_seen += 1

    def on_safepoint(self, event: "SafepointEvent") -> None:
        self.safepoints += 1

    def on_gc_end(self, event: "GCEndEvent") -> None:
        self.gc_pauses += 1

    def on_snapshot_point(self, event: "SnapshotPointEvent") -> None:
        self.snapshot_points += 1

    def telemetry(self) -> Dict[str, int]:
        return {
            "classes_loaded": self.classes_loaded,
            "allocations_seen": self.allocations_seen,
            "safepoints": self.safepoints,
            "gc_pauses": self.gc_pauses,
            "snapshot_points": self.snapshot_points,
        }


class GenerationRotationAgent(VMAgent):
    """Rotates an NG2C generation at every ``flush`` safepoint.

    The paper's Cassandra experts call ``newGeneration()`` at each
    memtable flush; here that is an agent reacting to the workload's
    flush safepoint.
    """

    def __init__(
        self, collector: "GenerationalCollector", generation_index: int = 1
    ) -> None:
        self.collector = collector
        self.generation_index = generation_index
        self.generations_rotated = 0

    def on_safepoint(self, event: "SafepointEvent") -> None:
        if event.kind != "flush":
            return
        self.collector.rotate_generation(self.generation_index)
        self.generations_rotated += 1

    def telemetry(self) -> Dict[str, int]:
        return {"generations_rotated": self.generations_rotated}
