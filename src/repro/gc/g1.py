"""A G1-like two-generation collector (the OpenJDK default baseline).

Policy, as in the paper's background (§2.1): every object is allocated in
the young generation; survivors age through young collections and are
promoted to the old generation once they exceed the tenuring threshold;
old regions are compacted by *mixed* collections when old occupancy grows.

For big-data workloads this is exactly the pathology POLM2 attacks:
middle-lived objects (memtable rows, index postings, graph batches) are
copied repeatedly through survivor space, promoted en masse, and finally
compacted in the old generation — each step a stop-the-world pause
proportional to the volume of live data moved.
"""

from __future__ import annotations

from typing import List

from repro.config import YOUNG_GEN
from repro.errors import GCError
from repro.gc import costmodel
from repro.gc.base import GenerationalCollector
from repro.gc.events import FULL, MIXED, YOUNG
from repro.heap.evacuation import FixedDestination, SurvivorTenuring
from repro.heap.region import Region


class G1Collector(GenerationalCollector):
    """Two generations, survivor aging, mixed old-region compaction."""

    name = "G1"

    #: A mixed collection only evacuates old regions at least this garbage.
    MIN_GARBAGE_FRACTION = 0.10

    #: Cap on old regions evacuated per mixed collection (G1 spreads mixed
    #: work over several pauses).
    MAX_MIXED_REGIONS = 64

    #: Fraction of total regions kept free as evacuation headroom.
    FREE_RESERVE_FRACTION = 0.04

    #: Bounds for the adaptive young-sizing policy (fractions of the
    #: configured young size).
    MIN_YOUNG_FRACTION = 0.15
    MAX_YOUNG_FRACTION = 1.5

    def __init__(self) -> None:
        super().__init__()
        self.old_gen_id = -1
        self._free_reserve_regions = 4
        self._young_target = 0

    def _on_attach(self) -> None:
        vm = self._require_vm()
        self.old_gen_id = vm.heap.new_generation("old").gen_id
        total_regions = vm.config.heap_bytes // vm.heap.region_size
        self._free_reserve_regions = max(
            4, int(total_regions * self.FREE_RESERVE_FRACTION)
        )
        self._young_target = vm.config.young_bytes

    @property
    def young_target_bytes(self) -> int:
        """Current young-generation trigger (adaptive under a pause goal)."""
        return self._young_target

    def _adapt_young_size(self, pause_ms: float) -> None:
        """Chase -XX:MaxGCPauseMillis by resizing the young generation.

        HotSpot's ergonomics in one rule: over the goal -> shrink young
        (less to copy per pause, more pauses); comfortably under -> grow
        it back.  Note what this cannot do: the same middle-lived bytes
        still get copied, just in smaller slices — which is why a pause
        goal is no substitute for lifetime-aware placement (see the
        pause-goal ablation).
        """
        vm = self._require_vm()
        goal = vm.config.pause_goal_ms
        if goal is None:
            return
        floor = int(vm.config.young_bytes * self.MIN_YOUNG_FRACTION)
        ceiling = int(vm.config.young_bytes * self.MAX_YOUNG_FRACTION)
        if pause_ms > goal:
            self._young_target = max(floor, int(self._young_target * 0.8))
        elif pause_ms < 0.6 * goal:
            self._young_target = min(ceiling, int(self._young_target * 1.1))

    # -- policy -------------------------------------------------------------------

    def before_allocation(self, size: int) -> None:
        # Runs once per allocation: plain attribute reads only (no
        # properties or helpers) on the no-collection path.
        vm = self.vm
        if vm is None:
            raise GCError(f"{self.name}: collector not attached to a VM")
        heap = vm.heap
        if heap.generations[YOUNG_GEN]._used_bytes + size > self._young_target:
            self.collect_young()
            if self._old_occupancy() >= vm.config.mixed_trigger_occupancy:
                self.collect_mixed()
        reserve = self._free_reserve_regions
        if len(heap._free_regions) < reserve:
            self.collect_young()
            self.collect_mixed()
            if len(heap._free_regions) < max(2, reserve // 2):
                self.full_collect()

    def resolve_allocation_gen(self, pretenure_index: int) -> int:
        # G1 has no pretenuring: every allocation goes to the young gen.
        return YOUNG_GEN

    def handle_oom(self) -> None:
        self.full_collect()

    def _old_occupancy(self) -> float:
        vm = self._require_vm()
        old_capacity = vm.config.heap_bytes - vm.config.young_bytes
        return vm.heap.generation(self.old_gen_id).used_bytes / old_capacity

    # -- collections --------------------------------------------------------------

    def collect_young(self) -> None:
        """Evacuate the whole young generation (eden + survivor regions)."""
        vm = self._require_vm()
        heap = vm.heap
        young = heap.young
        old = heap.generation(self.old_gen_id)
        self.young_liveness()
        # The trace just ran at this safepoint: its mark epoch *is* the
        # live set, so no id set is materialized.
        epoch = self.last_mark_epoch
        regions: List[Region] = list(young.regions)
        # Survivor aging and the tenuring-threshold compare run as lane
        # arithmetic over the age column; eden regions stay one young run.
        plan = SurvivorTenuring(young, old, vm.config.tenure_threshold)
        survivor, promoted, scanned = heap.evacuate(regions, epoch, young, plan)
        heap.reclaim_dead_humongous(
            epoch, only_young=self.last_trace_was_partial
        )
        tenured = old.used_bytes
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
        self._adapt_young_size(duration / 1000.0)

    def collect_mixed(self) -> None:
        """Compact the old generation's most garbage-heavy regions."""
        vm = self._require_vm()
        heap = vm.heap
        old = heap.generation(self.old_gen_id)
        if self.last_live_objects and not self.last_trace_was_partial:
            # Reuse the full trace that just ran at this safepoint; its
            # epoch marks are still current (nothing traced in between).
            live = self.last_live_objects
        else:
            live = self.trace_live()
        epoch = self.last_mark_epoch
        live_by_region = heap.live_bytes_by_region(live)

        candidates: List[Region] = []
        for region in old.regions:
            if region.used_bytes == 0:
                continue
            live_bytes = live_by_region.get(region.index, 0)
            garbage = 1.0 - live_bytes / region.used_bytes
            if garbage >= self.MIN_GARBAGE_FRACTION:
                candidates.append(region)
        if not candidates:
            return
        candidates.sort(key=lambda r: live_by_region.get(r.index, 0))
        chosen = candidates[: self.MAX_MIXED_REGIONS]

        compacted, _, scanned = heap.evacuate(
            chosen, epoch, old, FixedDestination(old)
        )
        duration = costmodel.mixed_pause_us(vm.config.costs, scanned, compacted)
        self.record_pause(
            MIXED,
            duration,
            stats={
                "scanned_objects": scanned,
                "compacted_bytes": compacted,
                "regions_collected": len(chosen),
            },
        )

    def full_collect(self) -> None:
        """Stop-the-world full compaction: everything live moves to old."""
        vm = self._require_vm()
        heap = vm.heap
        young = heap.young
        old = heap.generation(self.old_gen_id)
        self.trace_live()
        epoch = self.last_mark_epoch
        moved = 0
        scanned = 0
        everything_old = FixedDestination(old)
        for gen in (young, old):
            regions = list(gen.regions)
            copied, promoted, seen = heap.evacuate(
                regions, epoch, gen, everything_old
            )
            moved += copied + promoted
            scanned += seen
        duration = costmodel.full_pause_us(vm.config.costs, scanned, moved)
        self.record_pause(
            FULL,
            duration,
            stats={"scanned_objects": scanned, "moved_bytes": moved},
        )
