"""NG2C: pretenuring garbage collection with dynamic generations.

Reproduces the collector POLM2 builds upon (Bruno et al., ISMM '17,
described in the paper's §2.2):

* the heap holds an arbitrary number of generations, created at runtime
  (``new_generation``);
* allocation sites annotated ``@Gen`` pretenure objects into the calling
  thread's *target generation* (``set_generation`` — modelled as the
  thread-local :attr:`repro.runtime.thread.SimThread.target_gen`, flipped
  by instrumented call sites);
* non-annotated allocations behave exactly like G1's: young allocation,
  survivor aging, promotion to old.

The payoff measured in the paper emerges mechanically: when like-lifetime
objects share a generation, its regions die *together*, so collection
reclaims whole regions without copying — versus G1 repeatedly copying the
same middle-lived bytes through survivor space, promotion, and compaction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import YOUNG_GEN
from repro.errors import GCError, UnknownGenerationError
from repro.gc import costmodel
from repro.gc.base import GenerationalCollector
from repro.gc.events import FULL, GEN, YOUNG
from repro.heap.evacuation import FixedDestination, SurvivorTenuring
from repro.heap.objects import HeapObject
from repro.heap.region import Region


class NG2CCollector(GenerationalCollector):
    """N-generation pretenuring collector with the NG2C API."""

    name = "NG2C"

    #: Compact a non-young region during a gen collection only when at
    #: least this fraction of it is garbage.
    COMPACT_GARBAGE_FRACTION = 0.50

    FREE_RESERVE_FRACTION = 0.04

    #: Tenured-occupancy fraction above which dynamic generations are
    #: collected after a young collection.
    GEN_COLLECT_PRESSURE = 0.45

    def __init__(self) -> None:
        super().__init__()
        self.old_gen_id = -1
        #: Profile generation index (1..K) -> heap generation id.
        self._gen_map: Dict[int, int] = {}
        #: Heap generation ids rotated away and awaiting reclamation.
        self._rotated_out: List[int] = []
        #: Total dynamic generations ever created (Table 1 metric).
        self.created_generation_count = 0
        self._free_reserve_regions = 4
        self._pretenured_since_gc = 0

    def _on_attach(self) -> None:
        vm = self._require_vm()
        self.old_gen_id = vm.heap.new_generation("old").gen_id
        total_regions = vm.config.heap_bytes // vm.heap.region_size
        self._free_reserve_regions = max(
            4, int(total_regions * self.FREE_RESERVE_FRACTION)
        )

    # -- NG2C API ----------------------------------------------------------------

    @property
    def supports_pretenuring(self) -> bool:
        return True

    def ensure_generation(self, index: int) -> int:
        """Map profile generation ``index`` to a heap generation, creating
        it on first use (``System.newGeneration``)."""
        if index <= 0:
            return YOUNG_GEN
        gen_id = self._gen_map.get(index)
        if gen_id is None:
            vm = self._require_vm()
            gen_id = vm.heap.new_generation(f"dyn{index}").gen_id
            self._gen_map[index] = gen_id
            self.created_generation_count += 1
        return gen_id

    def rotate_generation(self, index: int) -> int:
        """Re-point profile ``index`` at a brand-new heap generation.

        Models the manual NG2C usage the paper describes for Cassandra:
        "NG2C creates one generation each time a memory table is flushed".
        The previous heap generation keeps its (now dying) data until a gen
        collection reclaims and retires it.
        """
        if index <= 0:
            raise UnknownGenerationError("cannot rotate the young generation")
        old_id = self._gen_map.pop(index, None)
        if old_id is not None:
            self._rotated_out.append(old_id)
        return self.ensure_generation(index)

    def resolve_allocation_gen(self, pretenure_index: int) -> int:
        if pretenure_index <= 0:
            return YOUNG_GEN
        return self.ensure_generation(pretenure_index)

    @property
    def dynamic_generation_ids(self) -> List[int]:
        return list(self._gen_map.values()) + list(self._rotated_out)

    # -- policy ---------------------------------------------------------------------

    def before_allocation(self, size: int) -> None:
        # Runs once per allocation: plain attribute reads only (no
        # properties or helpers) on the no-collection path.
        vm = self.vm
        if vm is None:
            raise GCError(f"{self.name}: collector not attached to a VM")
        heap = vm.heap
        young_bytes = vm.config.young_bytes
        if heap.generations[YOUNG_GEN]._used_bytes + size > young_bytes:
            self.collect_young()
            # NG2C reclaims dying generations eagerly: most regions are
            # wholly dead (pretenured cohorts die together), so generation
            # collections are cheap and keeping the trigger low keeps the
            # committed footprint in line with G1's (paper Figure 9).
            if self._tenured_pressure() >= self.GEN_COLLECT_PRESSURE:
                self.collect_generations(
                    None if self.last_trace_was_partial else self.last_live_objects
                )
        elif self._pretenured_since_gc >= young_bytes:
            # Pretenured allocation grows the dynamic generations without
            # ever filling the young generation, so a pretenured-byte
            # budget (symmetric with the young-collection trigger) drives
            # generation collections on its own.
            self.collect_generations()
        reserve = self._free_reserve_regions
        if len(heap._free_regions) < reserve:
            self.collect_young()
            self.collect_generations(
                None if self.last_trace_was_partial else self.last_live_objects
            )
            if len(heap._free_regions) < max(2, reserve // 2):
                self.full_collect()

    def after_allocation(self, size: int, gen_id: int) -> None:
        if gen_id != YOUNG_GEN:
            self._pretenured_since_gc += size

    def handle_oom(self) -> None:
        self.full_collect()

    def _tenured_pressure(self) -> float:
        vm = self._require_vm()
        capacity = vm.config.heap_bytes - vm.config.young_bytes
        used = sum(
            gen.used_bytes
            for gid, gen in vm.heap.generations.items()
            if gid != YOUNG_GEN
        )
        return used / capacity

    # -- collections --------------------------------------------------------------------

    def collect_young(self) -> None:
        """Evacuate the young generation; identical mechanics to G1's."""
        vm = self._require_vm()
        heap = vm.heap
        young = heap.young
        old = heap.generation(self.old_gen_id)
        self.young_liveness()
        # The trace just ran at this safepoint: its mark epoch *is* the
        # live set, so no id set is materialized.
        epoch = self.last_mark_epoch
        regions = list(young.regions)
        # Survivor aging and the tenuring-threshold compare run as lane
        # arithmetic over the age column; eden regions stay one young run.
        plan = SurvivorTenuring(young, old, vm.config.tenure_threshold)
        survivor, promoted, scanned = heap.evacuate(regions, epoch, young, plan)
        heap.reclaim_dead_humongous(
            epoch, only_young=self.last_trace_was_partial
        )
        tenured = sum(
            gen.used_bytes
            for gid, gen in heap.generations.items()
            if gid != heap.young.gen_id
        )
        duration = costmodel.young_pause_us(
            vm.config.costs, scanned, survivor, promoted, tenured
        )
        self.record_pause(
            YOUNG,
            duration,
            stats={
                "scanned_objects": scanned,
                "survivor_bytes": survivor,
                "promoted_bytes": promoted,
                "regions_collected": len(regions),
            },
        )

    def collect_generations(self, live: Optional[List[HeapObject]] = None) -> None:
        """Collect old + dynamic generations.

        Regions holding no live data are reclaimed wholesale (the win of
        pretenuring); regions that are mostly garbage are compacted within
        their generation; empty rotated-out generations are retired.

        ``live`` may carry a live set traced *at this same safepoint* (a
        young collection that just ran); anything else would be stale, so
        absent that the generation collection traces for itself.
        """
        vm = self._require_vm()
        heap = vm.heap
        if live is None:
            live = self.trace_live()
        if live is self.last_live_objects and not self.last_trace_was_partial:
            # The list is the collector's own same-safepoint trace, so its
            # epoch marks are current — no id set needed.
            live_test = self.last_mark_epoch
        else:
            # An arbitrary caller-supplied live list: fall back to ids.
            live_test = self.live_id_set(live)
        live_by_region = heap.live_bytes_by_region(live)

        freed_wholesale = 0
        compacted = 0
        scanned = 0
        target_gen_ids = [
            gid for gid in heap.generations if gid != YOUNG_GEN
        ]
        for gen_id in target_gen_ids:
            gen = heap.generation(gen_id)
            dead_regions: List[Region] = []
            compact_regions: List[Region] = []
            for region in gen.regions:
                if region.used_bytes == 0:
                    continue
                live_bytes = live_by_region.get(region.index, 0)
                if live_bytes == 0:
                    dead_regions.append(region)
                elif (
                    1.0 - live_bytes / region.used_bytes
                    >= self.COMPACT_GARBAGE_FRACTION
                ):
                    compact_regions.append(region)
            for region in dead_regions:
                gen.release_region(region)
                heap.free_region(region)
                freed_wholesale += 1
            if compact_regions:
                moved, _, seen = heap.evacuate(
                    compact_regions, live_test, gen, FixedDestination(gen)
                )
                compacted += moved
                scanned += seen
        heap.reclaim_dead_humongous(live_test)
        self._retire_empty_rotated()
        self._pretenured_since_gc = 0
        duration = costmodel.gen_pause_us(
            vm.config.costs, scanned, compacted, freed_wholesale
        )
        self.record_pause(
            GEN,
            duration,
            stats={
                "scanned_objects": scanned,
                "compacted_bytes": compacted,
                "regions_freed_wholesale": freed_wholesale,
            },
        )

    def _retire_empty_rotated(self) -> None:
        heap = self._require_vm().heap
        still_waiting: List[int] = []
        for gen_id in self._rotated_out:
            gen = heap.generations.get(gen_id)
            if gen is None:
                continue
            if gen.used_bytes == 0:
                heap.retire_generation(gen_id)
            else:
                still_waiting.append(gen_id)
        self._rotated_out = still_waiting

    def full_collect(self) -> None:
        """Compact every generation within itself (preserves pretenuring)."""
        vm = self._require_vm()
        heap = vm.heap
        self.trace_live()
        epoch = self.last_mark_epoch
        moved = 0
        scanned = 0
        for gen_id in list(heap.generations):
            gen = heap.generation(gen_id)
            regions = list(gen.regions)
            copied, promoted, seen = heap.evacuate(
                regions, epoch, gen, FixedDestination(gen)
            )
            moved += copied + promoted
            scanned += seen
        self._retire_empty_rotated()
        duration = costmodel.full_pause_us(vm.config.costs, scanned, moved)
        self.record_pause(
            FULL,
            duration,
            stats={"scanned_objects": scanned, "moved_bytes": moved},
        )
