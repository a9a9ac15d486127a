"""BENCH: snapshot id-set kernels and the binary columnar store.

Emits ``benchmarks/results/BENCH_snapshot_io.json`` comparing the seed's
snapshot pipeline (JSON-lines file, boxed-int frozensets, set-based
cohort algebra — embedded here verbatim as the reference) against the
current one (``snapshots.bin`` columnar store, ``IdSet`` chunked
bitmap/run kernels, kernel cohort algebra):

* **snapshot load** — read every snapshot off disk and materialize every
  live set.  Legacy: ``json.loads`` per line plus frozenset delta
  application.  Current: binary columns decoded into IdSets (one C
  ``int.from_bytes`` per dense chunk) plus IdSet delta application.
* **live-set intersection** — matching the recorded ids against every
  snapshot's live set (the seed analyzer's per-snapshot survival pass).  Legacy:
  frozenset ∩ frozenset, one hash probe per element.  Current: IdSet ∩
  IdSet, one big-int AND + popcount per chunk.
* **cohort survival** — survival counting over every snapshot's born and
  dead ids, reported for parity and context (its runtime is dominated by
  per-id count crediting, identical in both implementations, so no gate
  applies; the current side also diffs consecutive live sets, as the
  streaming analyzer does).
* **id-set bytes** — resident bytes of all materialized live sets
  (frozenset table + 28 B/boxed id vs ``IdSet.nbytes``).

Result parity with the legacy implementation is asserted
unconditionally.  The timing gates (load ≥ 3×, intersection ≥ 3×) are
skipped when ``REPRO_BENCH_SMOKE`` is set, so CI smoke runs fail on
correctness only, never on a slow runner.
"""

import json
import os
import sys
import time
from typing import Dict, FrozenSet, List, Optional, Set

from conftest import RESULTS_DIR, save_result

from repro.core.analyzer import credit_counts
from repro.core.idset import EMPTY_IDSET, IdSet
from repro.snapshot.binstore import iter_binary, write_store
from repro.snapshot.snapshot import Snapshot

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Snapshot-chain shape: monotonic identity hashes, a full first image,
#: then incremental snapshots that gain and lose dense id ranges — the
#: population the CRIU engine records.
SNAPSHOTS = 10 if SMOKE else 60
BORN_PER_SNAPSHOT = 500 if SMOKE else 8_000
DEAD_PER_SNAPSHOT = 300 if SMOKE else 6_000
ROUNDS = 1 if SMOKE else 5

#: CPython small-object cost of one boxed id inside a frozenset.
INT_BYTES = 28


def best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------
# Legacy reference implementations (the seed's snapshot path, kept verbatim).
# --------------------------------------------------------------------------


class LegacySnapshot:
    """Seed snapshot content: frozenset live/born/dead id sets."""

    def __init__(self, payload: Dict, predecessor_live: FrozenSet[int]) -> None:
        self.seq = payload["seq"]
        if "live_object_ids" in payload:
            self.born_ids: FrozenSet[int] = frozenset()
            self.dead_ids: FrozenSet[int] = frozenset()
            self.live_object_ids = frozenset(payload["live_object_ids"])
            self.is_delta = False
        else:
            self.born_ids = frozenset(payload["born_ids"])
            self.dead_ids = frozenset(payload["dead_ids"])
            self.live_object_ids = (
                predecessor_live | self.born_ids
            ) - self.dead_ids
            self.is_delta = True


def legacy_save(snapshots: List[Snapshot], path: str) -> None:
    """Seed save path: one JSON object per snapshot, one per line; an
    incremental snapshot after the first holds its born/dead ids against
    the snapshot before it instead of its live set."""
    previous: Optional[IdSet] = None
    with open(path, "w") as handle:
        for snapshot in snapshots:
            payload = snapshot.to_dict()
            live = snapshot.live_object_ids
            if snapshot.incremental and previous is not None:
                del payload["live_object_ids"]
                payload["born_ids"] = (live - previous).to_list()
                payload["dead_ids"] = (previous - live).to_list()
            handle.write(json.dumps(payload) + "\n")
            previous = live


def legacy_load(path: str) -> List[LegacySnapshot]:
    """Seed load path: JSON lines -> frozensets, live sets materialized."""
    snapshots: List[LegacySnapshot] = []
    live: FrozenSet[int] = frozenset()
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                snapshot = LegacySnapshot(json.loads(line), live)
                live = snapshot.live_object_ids
                snapshots.append(snapshot)
    return snapshots


def legacy_intersection_counts(
    snapshots: List[LegacySnapshot], recorded: FrozenSet[int]
) -> List[int]:
    """Seed per-snapshot survival pass: one frozenset intersection per
    snapshot against the recorded ids."""
    return [len(s.live_object_ids & recorded) for s in snapshots]


def legacy_survival_counts(snapshots: List[LegacySnapshot]) -> Dict[int, int]:
    """Seed delta-chain survival counting: set-based cohorts."""
    counts: Dict[int, int] = {}

    def credit(ids, amount: int) -> None:
        seen = counts.keys() & ids
        if seen:
            for object_id in seen:
                counts[object_id] += amount
            ids = set(ids) - seen
        counts.update(dict.fromkeys(ids, amount))

    cohorts: Dict[int, Set[int]] = {}
    for index, snapshot in enumerate(snapshots):
        if snapshot.is_delta:
            born, dead = snapshot.born_ids, snapshot.dead_ids
        else:
            born, dead = snapshot.live_object_ids, frozenset()
        if dead:
            for birth in list(cohorts):
                cohort = cohorts[birth]
                died = cohort & dead
                if died:
                    cohort -= died
                    if not cohort:
                        del cohorts[birth]
                    credit(died, index - birth)
        if born:
            cohorts[index] = set(born)
    total = len(snapshots)
    for birth, cohort in cohorts.items():
        credit(cohort, total - birth)
    return counts


# --------------------------------------------------------------------------
# Current implementations under test.
# --------------------------------------------------------------------------


def current_load(path: str) -> List[Snapshot]:
    """Current load path: binary columns -> IdSets, deltas applied."""
    return list(iter_binary(path))


def current_intersection_counts(
    snapshots: List[Snapshot], recorded: IdSet
) -> List[int]:
    """The same per-snapshot matching over IdSet kernels."""
    return [len(s.live_object_ids & recorded) for s in snapshots]


def current_survival_counts(snapshots: List[Snapshot]) -> Dict[int, int]:
    """The streaming analyzer's cohort algebra over IdSet kernels: each
    live set is diffed against the previous one."""
    counts: Dict[int, int] = {}
    cohorts: Dict[int, IdSet] = {}
    previous = EMPTY_IDSET
    for index, snapshot in enumerate(snapshots):
        live = snapshot.live_object_ids
        born, dead = live - previous, previous - live
        previous = live
        if dead:
            for birth in list(cohorts):
                cohort = cohorts[birth]
                died = cohort & dead
                if died:
                    remaining = cohort - died
                    if remaining:
                        cohorts[birth] = remaining
                    else:
                        del cohorts[birth]
                    credit_counts(counts, died, index - birth)
        if born:
            cohorts[index] = born
    total = len(snapshots)
    for birth, cohort in cohorts.items():
        credit_counts(counts, cohort, total - birth)
    return counts


# --------------------------------------------------------------------------
# Fixture: one snapshot sequence with monotonic ids, saved in both formats.
# --------------------------------------------------------------------------


def build_snapshots() -> List[Snapshot]:
    snapshots: List[Snapshot] = []
    live = EMPTY_IDSET
    next_id = 0
    oldest = 0
    for seq in range(1, SNAPSHOTS + 1):
        live = live | IdSet(range(next_id, next_id + BORN_PER_SNAPSHOT))
        next_id += BORN_PER_SNAPSHOT
        if seq > 1:
            # The oldest still-living ids die: dense ranges on both
            # sides, exactly the monotonic-identity-hash shape.
            live = live - IdSet(range(oldest, oldest + DEAD_PER_SNAPSHOT))
            oldest += DEAD_PER_SNAPSHOT
        snapshots.append(
            Snapshot(
                seq=seq,
                time_ms=float(seq * 100),
                engine="criu",
                pages_written=64,
                size_bytes=64 * 4096,
                duration_us=500.0,
                live_object_ids=live,
                incremental=seq > 1,
            )
        )
    return snapshots


def legacy_live_bytes(snapshots: List[LegacySnapshot]) -> int:
    return sum(
        sys.getsizeof(s.live_object_ids) + INT_BYTES * len(s.live_object_ids)
        for s in snapshots
    )


def current_live_bytes(snapshots: List[Snapshot]) -> int:
    return sum(s.live_object_ids.nbytes for s in snapshots)


def test_snapshot_io_speed(tmp_path):
    snapshots = build_snapshots()
    jsonl_path = str(tmp_path / "snapshots.jsonl")
    bin_path = str(tmp_path / "snapshots.bin")
    legacy_save(snapshots, jsonl_path)
    write_store(bin_path, snapshots)

    # -- parity: both loaders reconstruct identical live sets ------------
    legacy_snapshots = legacy_load(jsonl_path)
    current_snapshots = current_load(bin_path)
    assert len(current_snapshots) == len(legacy_snapshots)
    for legacy, current in zip(legacy_snapshots, current_snapshots):
        assert current.live_object_ids == legacy.live_object_ids, (
            f"live-set drift at seq {legacy.seq}"
        )

    # -- parity: identical survival counts -------------------------------
    legacy_counts = legacy_survival_counts(legacy_snapshots)
    current_counts = current_survival_counts(current_snapshots)
    assert current_counts == legacy_counts, "survival counting drift"

    # -- parity: identical per-snapshot intersection cardinalities --------
    # Recorded ids: the Recorder sees a subset of allocations (alternating
    # ids keeps every chunk dense on both sides, the monotonic-hash shape).
    total_ids = SNAPSHOTS * BORN_PER_SNAPSHOT
    legacy_recorded = frozenset(range(0, total_ids, 2))
    current_recorded = IdSet(range(0, total_ids, 2))
    legacy_matches = legacy_intersection_counts(
        legacy_snapshots, legacy_recorded
    )
    current_matches = current_intersection_counts(
        current_snapshots, current_recorded
    )
    assert current_matches == legacy_matches, "intersection cardinality drift"

    # -- timings ----------------------------------------------------------
    legacy_load_s = best_of(lambda: legacy_load(jsonl_path))
    current_load_s = best_of(lambda: current_load(bin_path))
    load_speedup = legacy_load_s / current_load_s

    legacy_isect_s = best_of(
        lambda: legacy_intersection_counts(legacy_snapshots, legacy_recorded)
    )
    current_isect_s = best_of(
        lambda: current_intersection_counts(
            current_snapshots, current_recorded
        )
    )
    isect_speedup = legacy_isect_s / current_isect_s

    legacy_algebra_s = best_of(
        lambda: legacy_survival_counts(legacy_snapshots)
    )
    current_algebra_s = best_of(
        lambda: current_survival_counts(current_snapshots)
    )
    algebra_speedup = legacy_algebra_s / current_algebra_s

    # -- bytes -------------------------------------------------------------
    legacy_bytes = legacy_live_bytes(legacy_snapshots)
    current_bytes = current_live_bytes(current_snapshots)
    bytes_ratio = legacy_bytes / current_bytes
    jsonl_size = os.path.getsize(jsonl_path)
    bin_size = os.path.getsize(bin_path)

    payload = {
        "bench": "snapshot_io",
        "smoke": SMOKE,
        "chain": {
            "snapshots": SNAPSHOTS,
            "born_per_snapshot": BORN_PER_SNAPSHOT,
            "dead_per_snapshot": DEAD_PER_SNAPSHOT,
            "final_live": len(current_snapshots[-1].live_object_ids),
        },
        "load": {
            "legacy_jsonl_s": round(legacy_load_s, 6),
            "binary_s": round(current_load_s, 6),
            "speedup": round(load_speedup, 2),
        },
        "live_set_intersection": {
            "recorded_ids": len(current_recorded),
            "legacy_s": round(legacy_isect_s, 6),
            "idset_s": round(current_isect_s, 6),
            "speedup": round(isect_speedup, 2),
        },
        "cohort_survival": {
            "legacy_s": round(legacy_algebra_s, 6),
            "idset_s": round(current_algebra_s, 6),
            "speedup": round(algebra_speedup, 2),
        },
        "id_set_bytes": {
            "legacy_frozenset": legacy_bytes,
            "idset": current_bytes,
            "ratio": round(bytes_ratio, 2),
        },
        "file_bytes": {
            "jsonl": jsonl_size,
            "binary": bin_size,
            "ratio": round(jsonl_size / bin_size, 2),
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "BENCH_snapshot_io.json"), "w"
    ) as handle:
        json.dump(payload, handle, indent=2)

    lines = [
        "BENCH: snapshot id-set kernels + binary columnar store "
        "(legacy vs current)",
        f"{'path':<26} {'legacy':>12} {'current':>12} {'gain':>9}",
        f"{'snapshot load (s)':<26} {legacy_load_s:>12.4f} "
        f"{current_load_s:>12.4f} {load_speedup:>8.2f}x",
        f"{'live-set intersection (s)':<26} {legacy_isect_s:>12.4f} "
        f"{current_isect_s:>12.4f} {isect_speedup:>8.2f}x",
        f"{'cohort survival (s)':<26} {legacy_algebra_s:>12.4f} "
        f"{current_algebra_s:>12.4f} {algebra_speedup:>8.2f}x",
        f"{'live id-set bytes':<26} {legacy_bytes:>12,} "
        f"{current_bytes:>12,} {bytes_ratio:>8.2f}x",
        f"{'file bytes':<26} {jsonl_size:>12,} {bin_size:>12,} "
        f"{jsonl_size / bin_size:>8.2f}x",
        "",
        f"chain: {SNAPSHOTS} snapshots, +{BORN_PER_SNAPSHOT}/-"
        f"{DEAD_PER_SNAPSHOT} ids each, "
        f"{len(current_snapshots[-1].live_object_ids):,} live at the end",
    ]
    save_result("BENCH_snapshot_io", "\n".join(lines))

    if not SMOKE:
        # Acceptance gates: skipped in smoke mode so CI fails on parity
        # violations only, never on a slow shared runner.
        assert load_speedup >= 3.0, (
            f"snapshot load speedup {load_speedup:.2f}x < 3x"
        )
        assert isect_speedup >= 3.0, (
            f"live-set intersection speedup {isect_speedup:.2f}x < 3x"
        )
        assert bytes_ratio > 1.0, (
            f"IdSet live sets larger than frozensets: {bytes_ratio:.2f}x"
        )
