"""BENCH: columnar heap kernels — struct-of-arrays collector inner loops
vs the per-object implementations they replaced.

Emits ``benchmarks/results/BENCH_heap_columnar.json`` with four kernel
microbenchmarks plus one composite scaling run:

* **marking** — region liveness materialization.  Legacy: one Python set
  probe per object.  Columnar: whole-id-column membership windows from
  :meth:`IdSet.extract_mask`, collapsed to position runs by bit-scans.
* **live bytes** — per-region live-byte accounting.  Legacy: per-object
  conditional sum.  Columnar: run-sum over the offset prefix column.
* **aging** — survivor age bump + tenuring split.  Legacy: per-object
  increment and threshold compare.  Columnar: one 64-bit lane add and one
  biased lane compare over the packed age column.
* **evacuation** — copying survivors out of a region set.  Legacy: the
  seed's per-object loop, embedded below (untrack, membership test, bump
  re-allocate, retrack, one object at a time).  Columnar: run detection
  + column-slice copies + bulk page accounting
  (``place_slice``/``absorb_slice``).
* **composite 10x** — mark + age + evacuate at 10x the object count on
  the columnar engine, gated against 2x the *legacy* engine's wall-clock
  at 1x (the ISSUE 6 criterion: ≥5x kernels make 10x objects affordable).

Every comparison asserts result parity with the legacy implementation
unconditionally.  Timing gates are skipped when ``REPRO_BENCH_SMOKE`` is
set, so CI smoke runs fail on correctness only, never on a slow runner.
"""

import json
import os
import time
from typing import List, Tuple

from conftest import RESULTS_DIR, save_result

from repro.config import YOUNG_GEN, SimConfig
from repro.core.idset import IdSet
from repro.heap.evacuation import FixedDestination, SurvivorTenuring
from repro.heap.heap import SimHeap
from repro.heap.objects import HeapObject, reset_identity_hashes
from repro.heap.region import Region

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Region-kernel population (one synthetic region, consecutive ids).
KERNEL_OBJECTS = 2_000 if SMOKE else 50_000
#: Evacuation population (a real heap, many regions).
EVAC_OBJECTS = 2_000 if SMOKE else 30_000
OBJ_SIZE = 64
#: Liveness pattern: alternating cohort blocks — live runs of LIVE_BLOCK
#: objects separated by dead runs of DEAD_BLOCK (allocation cohorts die
#: together; this is the run structure lifetime-aware placement produces).
#: The columnar kernels are O(runs + n/C) against the legacy O(n) probes,
#: so the speedup depends on run density; the emitted JSON records the
#: run count alongside the timings to keep that assumption explicit.
LIVE_BLOCK = 192
DEAD_BLOCK = 64
ROUNDS = 1 if SMOKE else 5
SCALE = 2 if SMOKE else 10


def best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def block_live_ids(objects: List[HeapObject]) -> set:
    """The cohort-block liveness pattern over ``objects`` (as a set)."""
    period = LIVE_BLOCK + DEAD_BLOCK
    return {
        obj.object_id
        for i, obj in enumerate(objects)
        if i % period < LIVE_BLOCK
    }


# --------------------------------------------------------------------------
# Legacy reference implementations (the seed's per-object loops, verbatim).
# --------------------------------------------------------------------------


def legacy_mark(region: Region, live_ids: set) -> bytearray:
    """Seed marking: one membership probe per object."""
    return bytearray(
        1 if obj.object_id in live_ids else 0 for obj in region.objects
    )


def legacy_live_bytes(region: Region, live_ids: set) -> int:
    """Seed ``Region.live_bytes``: per-object conditional sum."""
    return sum(
        obj.size for obj in region.objects if obj.object_id in live_ids
    )


def legacy_untrack(page_table, address: int, length: int) -> None:
    """Seed ``PageTable.untrack_object``: uncount one object per page."""
    if length <= 0:
        return
    occupancy = page_table._occupancy
    page_size = page_table.page_size
    first = address // page_size
    last = (address + length - 1) // page_size
    for page in range(first, last + 1):
        occupancy[page] -= 1


def legacy_evacuate(heap: SimHeap, regions, live, source_gen, destination_for):
    """Seed evacuation: one object at a time through a destination
    callable ``obj -> Generation``."""
    use_epoch = isinstance(live, int)
    survivor_bytes = 0
    promoted_bytes = 0
    scanned = 0
    page_table = heap.page_table
    for region in regions:
        source_gen.release_region(region)
    for region in regions:
        for obj in region.objects:
            scanned += 1
            # The old copy disappears whether or not the object
            # survives; untrack before allocation rewrites the address.
            legacy_untrack(page_table, obj.address, obj.size)
            if use_epoch:
                if obj.mark_epoch != live:
                    continue
            elif obj.object_id not in live:
                continue
            dest = destination_for(obj)
            address = dest.allocate(obj)
            page_table.place_object(address, obj.size)
            if dest.gen_id != region.gen_id:
                promoted_bytes += obj.size
            else:
                survivor_bytes += obj.size
            if dest.gen_id != YOUNG_GEN and any(
                child.gen_id == YOUNG_GEN for child in obj._refs
            ):
                # Promotion created an old->young edge.
                heap.old_to_young_remset[obj.object_id] = obj
        # Occupancy already handed over; don't untrack again on free.
        region.wipe_contents()
        heap.free_region(region)
    return survivor_bytes, promoted_bytes, scanned


def legacy_age_and_split(
    region: Region, threshold: int
) -> List[Tuple[int, bool]]:
    """Seed tenuring: per-object age bump + threshold compare (the
    ``destination`` closure of the seed's ``collect_young``)."""
    verdicts = []
    for obj in region.objects:
        obj.age += 1
        verdicts.append((obj.age, obj.age >= threshold))
    return verdicts


# --------------------------------------------------------------------------
# Fixtures.
# --------------------------------------------------------------------------


def build_kernel_region(count: int) -> Tuple[Region, set, IdSet]:
    """One big region with ``count`` consecutive-id objects."""
    reset_identity_hashes()
    region = Region(index=0, base=0, size=count * OBJ_SIZE)
    objects = [HeapObject(size=OBJ_SIZE) for _ in range(count)]
    for obj in objects:
        region.bump_allocate(obj)
    live_ids = block_live_ids(objects)
    return region, live_ids, IdSet(live_ids)


def build_evac_heap(count: int) -> Tuple[SimHeap, set, IdSet]:
    """A heap whose young generation holds ``count`` small objects."""
    reset_identity_hashes()
    heap = SimHeap(SimConfig())
    objects = [heap.allocate(OBJ_SIZE) for _ in range(count)]
    live_ids = block_live_ids(objects)
    return heap, live_ids, IdSet(live_ids)


def placement_state(heap: SimHeap):
    """Canonical placement snapshot for cross-engine parity asserts."""
    state = []
    for gen in heap.generations.values():
        for region in gen.regions:
            for obj in region.objects:
                state.append(
                    (obj.object_id, obj.address, obj.gen_id, obj.age)
                )
    return sorted(state)


def run_legacy_evacuation(heap: SimHeap, live_ids: set) -> None:
    dest = heap.new_generation("dest")
    legacy_evacuate(
        heap, list(heap.young.regions), live_ids, heap.young, lambda obj: dest
    )


def run_columnar_evacuation(heap: SimHeap, live: IdSet) -> None:
    dest = heap.new_generation("dest")
    heap.evacuate(
        list(heap.young.regions), live, heap.young, FixedDestination(dest)
    )


def legacy_gc_cycle(heap: SimHeap, live_ids: set, threshold: int) -> None:
    """Mark + age + evacuate, one object at a time (the seed's young
    collection inner loop, minus the graph trace)."""
    young = heap.young
    old = heap.new_generation("old")

    def destination(obj):
        obj.age += 1
        return old if obj.age >= threshold else young

    legacy_evacuate(heap, list(young.regions), live_ids, young, destination)


def columnar_gc_cycle(heap: SimHeap, live: IdSet, threshold: int) -> None:
    """The same cycle on the columnar engine: IdSet membership windows,
    lane aging, column-slice copies."""
    young = heap.young
    old = heap.new_generation("old")
    plan = SurvivorTenuring(young, old, threshold)
    heap.evacuate(list(young.regions), live, young, plan)


def time_destructive(builder, runner, rounds: int = ROUNDS) -> float:
    """best-of timing for single-shot operations: rebuild state untimed,
    time only the operation."""
    best = float("inf")
    for _ in range(rounds):
        state = builder()
        start = time.perf_counter()
        runner(*state)
        best = min(best, time.perf_counter() - start)
    return best


def test_heap_columnar_kernels():
    # -- marking -----------------------------------------------------------
    region, live_ids, live_set = build_kernel_region(KERNEL_OBJECTS)
    legacy_flags = legacy_mark(region, live_ids)
    runs = region.live_runs(live_set)
    assert region.mark_column == legacy_flags, "columnar marks diverged"
    flags_from_runs = bytearray(len(region.objects))
    for a, b in runs:
        flags_from_runs[a:b] = b"\x01" * (b - a)
    assert flags_from_runs == legacy_flags, "mark runs diverged"
    legacy_mark_s = best_of(lambda: legacy_mark(region, live_ids))
    columnar_mark_s = best_of(lambda: region.live_runs(live_set))
    mark_speedup = legacy_mark_s / columnar_mark_s

    # -- live bytes --------------------------------------------------------
    assert region.live_bytes(live_set) == legacy_live_bytes(region, live_ids)
    legacy_lb_s = best_of(lambda: legacy_live_bytes(region, live_ids))
    columnar_lb_s = best_of(lambda: region.live_bytes(live_set))
    live_bytes_speedup = legacy_lb_s / columnar_lb_s

    # -- aging -------------------------------------------------------------
    threshold = 3
    ref_region, _, _ = build_kernel_region(KERNEL_OBJECTS)
    col_region, _, _ = build_kernel_region(KERNEL_OBJECTS)
    legacy_verdicts = legacy_age_and_split(ref_region, threshold)
    splits = col_region.age_up_and_split(0, len(col_region.objects), threshold)
    assert col_region.age_column == ref_region.age_column, (
        "lane aging diverged from per-object aging"
    )
    for a, b, promote in splits:
        for i in range(a, b):
            assert legacy_verdicts[i][1] == promote, (
                f"tenuring verdict diverged at slot {i}"
            )
    # Timing on scratch regions (ages accumulate across rounds; cost does
    # not depend on the values, only the lane count).
    legacy_age_s = best_of(lambda: legacy_age_and_split(ref_region, threshold))
    columnar_age_s = best_of(
        lambda: col_region.age_up_and_split(
            0, len(col_region.objects), threshold
        )
    )
    aging_speedup = legacy_age_s / columnar_age_s

    # -- evacuation --------------------------------------------------------
    heap_a, ids_a, _ = build_evac_heap(EVAC_OBJECTS)
    run_legacy_evacuation(heap_a, ids_a)
    legacy_state = placement_state(heap_a)
    legacy_occ = heap_a.page_table.occupancy_snapshot()
    heap_b, _, live_b = build_evac_heap(EVAC_OBJECTS)
    run_columnar_evacuation(heap_b, live_b)
    assert placement_state(heap_b) == legacy_state, (
        "columnar evacuation placed objects differently"
    )
    assert heap_b.page_table.occupancy_snapshot() == legacy_occ, (
        "columnar evacuation left different page occupancy"
    )
    heap_b.verify()
    legacy_evac_s = time_destructive(
        lambda: build_evac_heap(EVAC_OBJECTS)[:2],
        lambda heap, ids: run_legacy_evacuation(heap, ids),
    )
    columnar_evac_s = time_destructive(
        lambda: build_evac_heap(EVAC_OBJECTS)[::2],
        lambda heap, live: run_columnar_evacuation(heap, live),
    )
    evac_speedup = legacy_evac_s / columnar_evac_s

    # -- composite: 10x objects vs legacy wall-clock at 1x -----------------
    composite_rounds = 1 if SMOKE else 2
    legacy_cycle_s = time_destructive(
        lambda: build_evac_heap(EVAC_OBJECTS)[:2],
        lambda heap, ids: legacy_gc_cycle(heap, ids, threshold),
        rounds=composite_rounds,
    )
    scaled_cycle_s = time_destructive(
        lambda: build_evac_heap(EVAC_OBJECTS * SCALE)[::2],
        lambda heap, live: columnar_gc_cycle(heap, live, threshold),
        rounds=composite_rounds,
    )
    scaled_ratio = scaled_cycle_s / legacy_cycle_s

    payload = {
        "bench": "heap_columnar",
        "smoke": SMOKE,
        "live_pattern": {
            "live_block": LIVE_BLOCK,
            "dead_block": DEAD_BLOCK,
            "runs": len(runs),
        },
        "marking": {
            "objects": KERNEL_OBJECTS,
            "legacy_s": round(legacy_mark_s, 6),
            "columnar_s": round(columnar_mark_s, 6),
            "speedup": round(mark_speedup, 2),
        },
        "live_bytes": {
            "objects": KERNEL_OBJECTS,
            "legacy_s": round(legacy_lb_s, 6),
            "columnar_s": round(columnar_lb_s, 6),
            "speedup": round(live_bytes_speedup, 2),
        },
        "aging": {
            "objects": KERNEL_OBJECTS,
            "legacy_s": round(legacy_age_s, 6),
            "columnar_s": round(columnar_age_s, 6),
            "speedup": round(aging_speedup, 2),
        },
        "evacuation": {
            "objects": EVAC_OBJECTS,
            "legacy_s": round(legacy_evac_s, 6),
            "columnar_s": round(columnar_evac_s, 6),
            "speedup": round(evac_speedup, 2),
        },
        "composite_scale": {
            "scale": SCALE,
            "objects_1x": EVAC_OBJECTS,
            "objects_scaled": EVAC_OBJECTS * SCALE,
            "legacy_1x_s": round(legacy_cycle_s, 6),
            "columnar_scaled_s": round(scaled_cycle_s, 6),
            "ratio_vs_legacy_1x": round(scaled_ratio, 2),
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_heap_columnar.json"), "w"
    ) as handle:
        json.dump(payload, handle, indent=2)

    lines = [
        "BENCH: columnar heap kernels (per-object legacy vs struct-of-arrays)",
        f"{'kernel':<22} {'legacy s':>10} {'columnar s':>11} {'speedup':>9}",
        f"{'marking':<22} {legacy_mark_s:>10.4f} "
        f"{columnar_mark_s:>11.4f} {mark_speedup:>8.2f}x",
        f"{'live bytes':<22} {legacy_lb_s:>10.4f} "
        f"{columnar_lb_s:>11.4f} {live_bytes_speedup:>8.2f}x",
        f"{'aging/tenuring':<22} {legacy_age_s:>10.4f} "
        f"{columnar_age_s:>11.4f} {aging_speedup:>8.2f}x",
        f"{'evacuation':<22} {legacy_evac_s:>10.4f} "
        f"{columnar_evac_s:>11.4f} {evac_speedup:>8.2f}x",
        "",
        f"composite gc cycle at {SCALE}x objects "
        f"({EVAC_OBJECTS * SCALE:,} objs): {scaled_cycle_s:.4f}s = "
        f"{scaled_ratio:.2f}x the legacy engine at 1x "
        f"({EVAC_OBJECTS:,} objs, {legacy_cycle_s:.4f}s)",
    ]
    save_result("BENCH_heap_columnar", "\n".join(lines))

    if not SMOKE:
        # Acceptance gates (ISSUE 6): ≥5x on the collector kernels, and a
        # 10x-object run within 2x the legacy engine's 1x wall-clock.
        assert mark_speedup >= 5.0, f"marking {mark_speedup:.2f}x < 5x"
        assert live_bytes_speedup >= 5.0, (
            f"live bytes {live_bytes_speedup:.2f}x < 5x"
        )
        assert aging_speedup >= 5.0, f"aging {aging_speedup:.2f}x < 5x"
        assert evac_speedup >= 5.0, f"evacuation {evac_speedup:.2f}x < 5x"
        assert scaled_ratio <= 2.0, (
            f"{SCALE}x-object cycle took {scaled_ratio:.2f}x legacy 1x "
            "wall-clock (> 2x)"
        )
