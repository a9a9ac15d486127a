"""Central configuration for the simulated runtime, collectors, and workloads.

The paper's testbed (Intel Xeon E5505, 16 GB RAM, 12 GB heap, 2 GB young
generation, 30-minute runs) is scaled down to laptop size.  The *ratios*
that drive GC behaviour are preserved:

* young generation is a small fraction of the heap (paper: 1/6),
* the workload working set nearly fills the heap,
* middle-lived data (memtables, index segments, graph batches) dominates.

All durations are virtual milliseconds/microseconds maintained by
:class:`repro.runtime.clock.VirtualClock`; no wall-clock time is involved,
which keeps every experiment deterministic and host-independent.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional

from repro.errors import ReproError


def resolve_object_scale(explicit: Optional[int] = None) -> int:
    """Resolve the scenario object-count multiplier.

    An explicit value (the ``--object-scale`` CLI flag, a harness
    argument) wins; otherwise ``$REPRO_OBJECT_SCALE`` applies; default 1.
    Scaling multiplies heap/young sizes and run duration together, so a
    run allocates ~scale× the objects while keeping the heap-pressure
    ratios — and therefore the GC behaviour per byte — unchanged.
    """
    if explicit is None:
        raw = os.environ.get("REPRO_OBJECT_SCALE", "").strip()
        if not raw:
            return 1
        try:
            explicit = int(raw)
        except ValueError:
            raise ReproError(
                f"REPRO_OBJECT_SCALE must be an integer, got {raw!r}"
            ) from None
    try:
        scale = int(explicit)
    except (TypeError, ValueError):
        raise ReproError(
            f"object scale must be an integer, got {explicit!r}"
        ) from None
    if scale < 1:
        raise ReproError(f"object scale must be >= 1, got {scale}")
    return scale


# --- fixed layout constants (not per-run tunables) -------------------------

#: Virtual page size in bytes, mirroring the 4 KiB kernel pages whose dirty
#: and "no-need" (madvise) bits CRIU consults.
PAGE_SIZE = 4096

#: Region size in bytes.  G1 on a 12 GB heap uses 4 MiB regions; at our
#: scaled heap we keep regions small enough that a generation spans many.
REGION_SIZE = 64 * 1024

#: Generation id of the young generation (all collectors allocate here by
#: default; NG2C calls this "generation zero").
YOUNG_GEN = 0

#: Generation id of the old generation in 2-generational collectors (G1).
OLD_GEN = 1


@dataclasses.dataclass
class CostModel:
    """Virtual-time cost model for GC pauses, mutator work, and snapshots.

    Durations are expressed in virtual microseconds.  The constants are
    calibrated so that a G1 young collection that promotes a full memtable
    lands in the hundreds of milliseconds (as in the paper's Figure 5)
    while an NG2C young collection with correct pretenuring stays in the
    tens of milliseconds.  Only *ratios* between strategies matter; they
    emerge from bytes actually scanned/copied, not from scripted numbers.
    """

    #: Fixed per-pause overhead (root scanning, safepoint, termination).
    pause_fixed_us: float = 1000.0

    #: Cost of examining one live object in the collection set.
    scan_obj_us: float = 0.30

    #: Cost of evacuating (copying) one KiB of live data.
    copy_kib_us: float = 6.0

    #: Extra cost per KiB when the copy crosses generations (promotion
    #: touches remembered sets and card tables).
    promote_kib_us: float = 3.0

    #: Cost per KiB of compacting old regions during mixed collections.
    compact_kib_us: float = 9.0

    #: Card-table / remembered-set scanning during any stop-the-world
    #: young collection, per KiB of *tenured* (non-young) heap.  This is
    #: the pause floor every generational STW collector pays regardless
    #: of how little it copies — the reason NG2C/POLM2 pauses are tens of
    #: milliseconds rather than zero in the paper's Figure 5.
    card_scan_kib_us: float = 0.45

    #: Cost of updating one incoming reference after an object moves.
    remset_ref_us: float = 0.08

    #: Mutator cost of one workload operation (before collector taxes).
    #: ~150 µs/op yields the few-thousands ops/s the paper's platforms
    #: sustain per node and keeps the GC share of total time realistic.
    op_base_us: float = 150.0

    #: Mutator throughput tax imposed by C4's read/write barriers
    #: (multiplier on op cost; C4 is the slowest collector in Fig. 7).
    c4_barrier_tax: float = 1.45

    #: Mutator cost per KiB of *pretenured* allocation.  Allocating into
    #: an arbitrary generation bypasses the TLAB fast path (NG2C allocates
    #: into shared region buffers with heavier synchronization).  For
    #: block-oriented workloads that pretenure tens of MiB per second
    #: (GraphChi) this is why G1 keeps a small throughput lead in the
    #: paper's Figure 7 despite its far longer pauses.
    pretenure_alloc_kib_us: float = 10.0

    #: Recorder: mutator cost of logging one allocation (stack-trace hash
    #: plus object id append); present only during the profiling phase.
    record_log_us: float = 0.8

    #: Exact lifetime tracing (the Merlin / Elephant Tracks approach the
    #: paper's §6.1 contrasts with): cost of logging one allocation with
    #: its timestamp, of processing one reference update (Merlin
    #: timestamps objects when they lose incoming references), and of
    #: re-processing one live object per GC cycle.  These are why exact
    #: tracers slow applications 3-300x while POLM2's snapshot-based
    #: profiling stays lightweight.
    #: The constants land the modelled tracer in Resurrector's 3-40x
    #: band; a faithful Merlin (per-allocation-granularity death times)
    #: would be far worse still.
    exact_log_us: float = 20.0
    exact_ref_update_us: float = 25.0
    exact_trace_obj_us: float = 25.0

    #: Snapshot engine: cost per KiB written to a CRIU image.
    criu_write_kib_us: float = 30.0

    #: Snapshot engine: fixed checkpoint overhead (freeze, page-map walk).
    criu_fixed_us: float = 12_000.0

    #: jmap baseline: cost per live object visited during the heap walk
    #: (jmap serializes object-by-object, far slower than page copies).
    jmap_obj_us: float = 6.0

    #: jmap baseline: cost per KiB serialized into the .hprof dump.
    jmap_write_kib_us: float = 330.0

    #: jmap baseline: fixed attach + full-heap walk setup overhead.
    jmap_fixed_us: float = 150_000.0


@dataclasses.dataclass
class SimConfig:
    """Top-level knobs for a simulated run.

    The defaults model the paper's setup at roughly 1/200 scale: a 64 MiB
    heap with an 8 MiB young generation (paper: 12 GiB / 2 GiB), keeping
    the ~1:6-8 young:total ratio that shapes the paper's GC behaviour while
    staying fast enough for pure-Python simulation.
    """

    #: Total simulated heap size in bytes.
    heap_bytes: int = 64 * 1024 * 1024

    #: Young-generation target size in bytes.  A young collection is
    #: triggered when young occupancy reaches this threshold.
    young_bytes: int = 6 * 1024 * 1024

    #: Number of young collections an object must survive before G1
    #: promotes it to the old generation.  HotSpot's default adaptive
    #: policy collapses to a very low effective threshold on big-data
    #: heaps (survivor space overflows every cycle), so the model uses 2.
    tenure_threshold: int = 2

    #: Old-generation occupancy fraction that triggers a mixed collection.
    mixed_trigger_occupancy: float = 0.50

    #: NG2C: occupancy fraction at which a non-young generation is collected.
    gen_trigger_occupancy: float = 0.75

    #: Maximum number of dynamic generations NG2C will keep live at once.
    max_generations: int = 16

    #: Optional G1 pause-time goal in ms (HotSpot's -XX:MaxGCPauseMillis).
    #: When set, G1 adaptively shrinks/grows its young generation to
    #: chase the goal.  None disables the adaptive policy (fixed sizing,
    #: as enforced in the paper's evaluation setup, §5.1).
    pause_goal_ms: Optional[float] = None

    #: Use write-barrier-maintained remembered sets for young collections
    #: (G1's real mechanism) instead of whole-heap tracing.  Remembered
    #: sets are *conservative*: a dead tenured object still listed as
    #: referencing the young generation keeps its young children alive
    #: (floating garbage) until a mixed/full collection re-establishes
    #: precise liveness.  Off by default so headline experiments use
    #: precise liveness; the remset ablation quantifies the difference.
    use_remembered_sets: bool = False

    #: Deterministic seed for every stochastic component.
    seed: int = 42

    #: Cost model used to charge virtual time.
    costs: CostModel = dataclasses.field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.heap_bytes <= 0:
            raise ValueError("heap_bytes must be positive")
        if not 0 < self.young_bytes < self.heap_bytes:
            raise ValueError("young_bytes must be in (0, heap_bytes)")
        if self.tenure_threshold < 1:
            raise ValueError("tenure_threshold must be >= 1")
        if not 0.0 < self.mixed_trigger_occupancy <= 1.0:
            raise ValueError("mixed_trigger_occupancy must be in (0, 1]")
        if not 0.0 < self.gen_trigger_occupancy <= 1.0:
            raise ValueError("gen_trigger_occupancy must be in (0, 1]")
        if self.max_generations < 2:
            raise ValueError("max_generations must be >= 2")
        if self.pause_goal_ms is not None and self.pause_goal_ms <= 0:
            raise ValueError("pause_goal_ms must be positive when set")

    def fingerprint(self) -> dict:
        """JSON-safe payload of every knob (cost model included).

        The experiment runner hashes this into its on-disk result-cache
        key, so any configuration change — even a single cost constant —
        invalidates previously cached cells.
        """
        return dataclasses.asdict(self)

    def scaled(self, factor: int) -> "SimConfig":
        """This configuration with heap and young sizes ×``factor``.

        Paired with a ×``factor`` run duration, the workload allocates
        ~``factor``× the objects under identical pressure ratios — the
        ``--object-scale`` knob used for scaling runs.
        """
        if factor < 1:
            raise ValueError(f"scale factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        return dataclasses.replace(
            self,
            heap_bytes=self.heap_bytes * factor,
            young_bytes=self.young_bytes * factor,
        )

    @classmethod
    def small(cls, **overrides) -> "SimConfig":
        """A small configuration for unit tests: 8 MiB heap, 1 MiB young."""
        params = {
            "heap_bytes": 8 * 1024 * 1024,
            "young_bytes": 1 * 1024 * 1024,
        }
        params.update(overrides)
        return cls(**params)
