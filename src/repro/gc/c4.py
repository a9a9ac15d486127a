"""A model of Azul's C4 (Continuously Concurrent Compacting Collector).

The paper uses C4 only as a throughput/memory reference point (§5):

* "there are no significant pause times (the duration of all pauses fall
  below 10 ms)" — so Figure 5/6 omit it;
* it is "the collector with worst performance" in Figure 7/8, because its
  read and write barriers tax the mutator continuously;
* it "pre-reserves all the available memory at launch time", so Figure 9
  omits it (its usage would plot near 2× for Cassandra).

The model reproduces exactly those three properties: collection work is
concurrent (it reclaims and compacts without stopping the world), each
cycle costs only a brief synchronization pause below 10 ms, mutator
operations pay a constant barrier multiplier, and reported memory equals
the full heap.
"""

from __future__ import annotations

import random
from typing import List

from repro.config import YOUNG_GEN
from repro.errors import GCError
from repro.gc.base import GenerationalCollector
from repro.gc.events import CONCURRENT
from repro.heap.evacuation import FixedDestination
from repro.heap.region import Region


class C4Collector(GenerationalCollector):
    """Concurrent compacting collector: tiny pauses, barrier-taxed mutator."""

    name = "C4"

    #: Heap occupancy fraction that starts a concurrent cycle.
    CYCLE_TRIGGER_OCCUPANCY = 0.55

    #: Compact a region concurrently when at least this fraction is garbage.
    COMPACT_GARBAGE_FRACTION = 0.30

    #: Synchronization pauses stay strictly below 10 ms (paper §5).
    MIN_PAUSE_MS = 0.8
    MAX_PAUSE_MS = 8.0

    def __init__(self) -> None:
        super().__init__()
        self._rng: random.Random = random.Random(0)

    def _on_attach(self) -> None:
        vm = self._require_vm()
        self._rng = random.Random(vm.config.seed ^ 0xC4C4)

    # -- properties ---------------------------------------------------------------

    @property
    def mutator_overhead(self) -> float:
        """Constant read/write-barrier tax on every mutator operation."""
        return self._require_vm().config.costs.c4_barrier_tax

    @property
    def pre_reserves_memory(self) -> bool:
        return True

    @property
    def reserved_bytes(self) -> int:
        return self._require_vm().config.heap_bytes

    # -- policy -------------------------------------------------------------------

    def before_allocation(self, size: int) -> None:
        vm = self.vm
        if vm is None:
            raise GCError(f"{self.name}: collector not attached to a VM")
        heap = vm.heap
        trigger = self.CYCLE_TRIGGER_OCCUPANCY * vm.config.heap_bytes
        if heap.used_bytes + size > trigger or len(heap._free_regions) < 8:
            self.concurrent_cycle()

    def resolve_allocation_gen(self, pretenure_index: int) -> int:
        # C4 is modelled as a single-space collector: everything allocates
        # into generation zero and is compacted concurrently in place.
        return YOUNG_GEN

    def handle_oom(self) -> None:
        self.concurrent_cycle()

    # -- collection ---------------------------------------------------------------

    def concurrent_cycle(self) -> None:
        """One concurrent mark/compact cycle.

        All marking and copying happens while the mutator runs (its cost is
        folded into the barrier tax); the world stops only for a brief
        synchronization pause, never ≥ 10 ms.
        """
        vm = self._require_vm()
        heap = vm.heap
        gen = heap.young
        live = self.trace_live()
        # Fresh same-safepoint trace: the epoch marks are the live set.
        epoch = self.last_mark_epoch
        live_by_region = heap.live_bytes_by_region(live)

        freed = 0
        compact_regions: List[Region] = []
        for region in list(gen.regions):
            if region.used_bytes == 0:
                continue
            live_bytes = live_by_region.get(region.index, 0)
            if live_bytes == 0:
                gen.release_region(region)
                heap.free_region(region)
                freed += 1
            elif (
                1.0 - live_bytes / region.used_bytes
                >= self.COMPACT_GARBAGE_FRACTION
            ):
                compact_regions.append(region)
        heap.reclaim_dead_humongous(epoch)
        compacted = 0
        if compact_regions:
            compacted, _, _ = heap.evacuate(
                compact_regions, epoch, gen, FixedDestination(gen)
            )
        pause_ms = self._rng.uniform(self.MIN_PAUSE_MS, self.MAX_PAUSE_MS)
        self.record_pause(
            CONCURRENT,
            pause_ms * 1000.0,
            stats={
                "regions_freed": freed,
                "compacted_bytes": compacted,
                "live_objects": len(live),
            },
        )
