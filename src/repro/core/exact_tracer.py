"""An exact object-lifetime tracer, Merlin / Elephant Tracks style.

The paper's §6.1 surveys profilers that compute *exact* lifetimes —
Merlin (Hertz et al.) timestamps objects as they lose incoming references
and replays death order; Elephant Tracks extends it; Resurrector trades
precision for speed.  Their cost is prohibitive: "up to 300 times slower"
(Merlin), "3 to 40 times slowdown" (Resurrector) — which is exactly why
POLM2 estimates lifetimes from periodic incremental snapshots instead.

:class:`ExactLifetimeTracer` implements the exact approach over the
simulated runtime so the trade-off is measurable here too:

* every allocation is logged with its birth cycle (like the Recorder);
* every reference update is observed (Merlin's timestamp propagation) —
  a per-pointer-write mutator tax the Recorder never pays;
* at every GC cycle the tracer re-processes the reachable set to assign
  exact death cycles to objects that became unreachable.

Its output is profile-compatible: :meth:`build_profile` produces an
:class:`~repro.core.profile.AllocationProfile` from exact lifetimes, so
the profile-quality-vs-overhead comparison is apples to apples.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, TYPE_CHECKING

from repro.core.analyzer import survival_to_generation
from repro.core.idset import EMPTY_IDSET, IdSet
from repro.core.profile import AllocationProfile
from repro.core.recorder import AllocationRecords
from repro.core.sttree import STTree
from repro.runtime.code import AllocSite, ClassModel
from repro.runtime.events import GCEndEvent, VMAgent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.heap.objects import HeapObject
    from repro.runtime.vm import VM


class ExactLifetimeTracer(VMAgent):
    """Exact lifetime profiler: precise, and proportionally expensive."""

    def __init__(self, min_samples: int = 8) -> None:
        self.records = AllocationRecords()
        self.min_samples = min_samples
        #: object id -> GC cycle at allocation.
        self.birth_cycle: Dict[int, int] = {}
        #: object id -> GC cycle at which death was observed.
        self.death_cycle: Dict[int, int] = {}
        self.vm: Optional["VM"] = None
        #: ids seen alive, as a compact kernel; allocations between GCs
        #: buffer in ``_pending`` (cheap C appends) and fold in at GC end.
        self._recorded_live: IdSet = EMPTY_IDSET
        self._pending: array = array("q")
        self.instrumented_site_count = 0
        #: Totals for the overhead accounting.
        self.ref_updates_observed = 0
        self.objects_reprocessed = 0

    # -- agent lifecycle -----------------------------------------------------------

    def on_attach(self, vm: "VM") -> None:
        self.vm = vm
        # Reference-write observation is a heap-level seam (Merlin's
        # per-pointer-write tax), not a VM event — wired here directly.
        vm.heap.ref_write_listeners.append(self._on_ref_update)

    def on_detach(self, vm: "VM") -> None:
        vm.heap.ref_write_listeners.remove(self._on_ref_update)
        self.vm = None

    def telemetry(self) -> Dict[str, int]:
        return {
            "allocations_logged": self.records.total_allocations,
            "ref_updates_observed": self.ref_updates_observed,
            "objects_reprocessed": self.objects_reprocessed,
        }

    # -- ClassFileTransformer ---------------------------------------------------------

    def transform(self, class_model: ClassModel) -> ClassModel:
        for site in class_model.iter_alloc_sites():
            site.record_hook = True
            self.instrumented_site_count += 1
        return class_model

    # -- hooks -------------------------------------------------------------------------

    def on_allocation(
        self, obj: "HeapObject", site: AllocSite, trace: tuple
    ) -> None:
        self.records.log(trace, obj.object_id)
        cycle = self.vm.collector.cycles if self.vm.collector else 0
        self.birth_cycle[obj.object_id] = cycle
        self._pending.append(obj.object_id)
        self.vm.clock.advance_us(self.vm.config.costs.exact_log_us)

    def _on_ref_update(self, parent: "HeapObject", child) -> None:
        # Merlin: every pointer store/clear updates the timestamp of the
        # objects that may have just lost their last incoming reference.
        self.ref_updates_observed += 1
        self.vm.clock.advance_us(self.vm.config.costs.exact_ref_update_us)

    def on_gc_end(self, event: GCEndEvent) -> None:
        pause = event.pause
        collector = self.vm.collector
        live = collector.last_live_objects
        if collector.last_trace_was_partial:
            # A remembered-set collection traced the young generation
            # only; every tenured object would read as dead.
            live = collector.trace_live()
        live_ids = IdSet(obj.object_id for obj in live)
        # Re-process the reachable set (trace replay) — charged per object.
        self.objects_reprocessed += len(live_ids)
        self.vm.clock.advance_us(
            self.vm.config.costs.exact_trace_obj_us * len(live_ids)
        )
        recorded = self._recorded_live
        if self._pending:
            recorded = recorded | IdSet(self._pending)
            del self._pending[:]
        died = recorded - live_ids
        for object_id in died.to_list():
            self.death_cycle[object_id] = pause.cycle
        self._recorded_live = recorded & live_ids

    # -- results --------------------------------------------------------------------------

    def exact_lifetime_cycles(self, object_id: int) -> Optional[int]:
        """Cycles survived, or None while the object still lives."""
        death = self.death_cycle.get(object_id)
        if death is None:
            return None
        return max(0, death - 1 - self.birth_cycle.get(object_id, 0))

    def build_profile(
        self, workload: str = "unknown", push_up: bool = True
    ) -> AllocationProfile:
        """Derive an allocation profile from *exact* lifetimes.

        Still-live objects count with their lifetime so far — exactly what
        an exact tracer knows at analysis time.
        """
        current_cycle = self.vm.collector.cycles if self.vm else 0
        tree = STTree()
        max_generations = self.vm.config.max_generations if self.vm else 16
        for trace_id, stream in self.records.streams.items():
            if len(stream) < self.min_samples:
                continue
            votes: Dict[int, int] = {}
            for object_id in stream:
                lifetime = self.exact_lifetime_cycles(object_id)
                if lifetime is None:
                    lifetime = max(
                        0, current_cycle - self.birth_cycle.get(object_id, 0)
                    )
                gen = survival_to_generation(lifetime, max_generations)
                votes[gen] = votes.get(gen, 0) + 1
            best = max(votes.values())
            gen = min(g for g, count in votes.items() if count == best)
            tree.insert(self.records.traces[trace_id], gen, len(stream))
        return AllocationProfile.from_sttree(
            tree,
            workload=workload,
            push_up=push_up,
            metadata={
                "profiler": "exact-tracer",
                "ref_updates_observed": self.ref_updates_observed,
                "objects_reprocessed": self.objects_reprocessed,
            },
        )
