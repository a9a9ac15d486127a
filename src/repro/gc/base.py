"""Shared collector machinery: tracing, pause accounting, GC events."""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import GCError
from repro.gc.events import GCPause, PauseLog
from repro.heap.objects import HeapObject
from repro.runtime.events import GC_END, GC_START, GCEndEvent, GCStartEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.vm import VM


class GenerationalCollector(abc.ABC):
    """Base class for the simulated collectors.

    Subclasses implement policy (when to collect what, where survivors
    go); this base provides the mechanics every policy shares — root
    tracing, pause recording against the virtual clock, and the
    ``GC_START``/``GC_END`` events on the VM's bus.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.vm: Optional["VM"] = None
        self.pause_log = PauseLog()
        self.cycles = 0
        #: Live objects found by the most recent trace (consumed by the
        #: Recorder and by snapshot engines).
        self.last_live_objects: List[HeapObject] = []
        #: True when the last trace covered only the young generation
        #: (remembered-set mode) — consumers needing full liveness (the
        #: Recorder's snapshot trigger) must re-trace themselves.
        self.last_trace_was_partial = False
        #: Heap mark epoch of the most recent trace.  At the same
        #: safepoint, ``obj.mark_epoch == last_mark_epoch`` is equivalent
        #: to ``obj in last_live_objects``; it is the only live test the
        #: heap takes (evacuation, humongous reclamation, no-need pages).
        #: Stale once anyone runs a newer trace.
        self.last_mark_epoch = 0

    # -- wiring ---------------------------------------------------------------------

    def attach(self, vm: "VM") -> None:
        self.vm = vm
        self._on_attach()

    def _on_attach(self) -> None:
        """Subclass hook: create generations, size policies."""

    # -- abstract policy ---------------------------------------------------------------

    @abc.abstractmethod
    def before_allocation(self, size: int) -> None:
        """Run collections if allocating ``size`` bytes demands it."""

    @abc.abstractmethod
    def resolve_allocation_gen(self, pretenure_index: int) -> int:
        """Map a profile generation index (0 = young) to a heap generation id.

        Collectors without pretenuring ignore the index and return young.
        """

    def after_allocation(self, size: int, gen_id: int) -> None:
        """Post-allocation hook (pretenured-byte accounting); optional."""

    @abc.abstractmethod
    def handle_oom(self) -> None:
        """Last-ditch response to an allocation failure (full collection)."""

    # -- properties -----------------------------------------------------------------

    @property
    def mutator_overhead(self) -> float:
        """Multiplier on mutator op cost (barrier taxes); 1.0 = none."""
        return 1.0

    @property
    def supports_pretenuring(self) -> bool:
        return False

    @property
    def pauses(self) -> List[GCPause]:
        return self.pause_log.pauses

    # -- shared mechanics ----------------------------------------------------------------

    def _require_vm(self) -> "VM":
        if self.vm is None:
            raise GCError(f"{self.name}: collector not attached to a VM")
        return self.vm

    def trace_live(self) -> List[HeapObject]:
        """Trace the full object graph from VM roots."""
        vm = self._require_vm()
        live = vm.heap.trace_live(vm.iter_roots())
        self.last_live_objects = live
        self.last_trace_was_partial = False
        self.last_mark_epoch = vm.heap.mark_epoch
        return live

    def trace_young_live(self) -> List[HeapObject]:
        """Young-only liveness via roots + the old->young remembered set.

        G1's real young-collection mechanism: instead of tracing the whole
        heap, start from (i) roots that point directly into the young
        generation and (ii) young children of remembered-set parents, then
        close over young-to-young references only.  Conservative: a dead
        tenured parent still in the remembered set keeps its young
        children alive (floating garbage) until a full-liveness collection
        prunes it.  Stale entries (parents with no young children left)
        are dropped as they are scanned, as card refinement would.
        """
        vm = self._require_vm()
        heap = vm.heap
        stack: List[HeapObject] = [
            root for root in vm.iter_roots() if root.gen_id == 0
        ]
        stale: List[int] = []
        for parent_id, parent in heap.old_to_young_remset.items():
            kids = [c for c in parent._refs if c.gen_id == 0]
            if not kids:
                stale.append(parent_id)
                continue
            stack.extend(kids)
        for parent_id in stale:
            del heap.old_to_young_remset[parent_id]
        # Epoch marking instead of a per-cycle visited set: same traversal,
        # no set allocation or id hashing (see SimHeap.trace_live).
        epoch = heap.new_mark_epoch(partial=True)
        live: List[HeapObject] = []
        while stack:
            obj = stack.pop()
            if obj.gen_id != 0 or obj.mark_epoch == epoch:
                continue
            obj.mark_epoch = epoch
            live.append(obj)
            stack.extend(obj._refs)
        self.last_live_objects = live
        self.last_trace_was_partial = True
        self.last_mark_epoch = epoch
        return live

    def young_liveness(self) -> List[HeapObject]:
        """Liveness for a young collection, honouring the remset config."""
        vm = self._require_vm()
        if vm.config.use_remembered_sets:
            return self.trace_young_live()
        return self.trace_live()

    def record_pause(
        self, kind: str, duration_us: float, stats: Optional[Dict[str, int]] = None
    ) -> GCPause:
        """Advance the clock by a stop-the-world pause and log the event.

        Publishes ``GC_START`` before the pause and ``GC_END`` after it
        completes; the Recorder uses ``GC_END`` to ask the Dumper for a
        snapshot.
        """
        vm = self._require_vm()
        self.cycles += 1
        pause = GCPause(
            cycle=self.cycles,
            start_ms=vm.clock.now_ms,
            duration_ms=duration_us / 1000.0,
            kind=kind,
            collector=self.name,
            stats=dict(stats or {}),
        )
        events = vm.events
        if events.has_listeners(GC_START):
            events.publish(
                GC_START,
                GCStartEvent(
                    cycle=self.cycles,
                    kind=kind,
                    start_ms=pause.start_ms,
                    collector=self.name,
                ),
            )
        vm.clock.advance_us(duration_us)
        self.pause_log.append(pause)
        if events.has_listeners(GC_END):
            events.publish(GC_END, GCEndEvent(pause))
        return pause
