"""Deterministic end-to-end runs digested for byte-for-byte parity checks.

The inner-loop fast paths (interned allocation traces, epoch-based mark
bits, incremental page liveness) must not change a single observable
result.  This harness runs fixed-seed workload/collector scenarios through
the full profiling stack (Recorder + Dumper + collector) and reduces each
run to a canonical digest covering

* the allocation profile (trace table + per-trace id streams),
* the GC pause series (cycle, kind, duration, stats, timestamp),
* every snapshot's physical and logical content (pages written, sizes,
  materialized live-id sets), and
* end-of-run accounting (virtual clock, allocation counters, op count).

``tests/integration/test_gc_loop_parity.py`` compares these digests
against goldens generated from the pre-optimization implementation; any
drift in results — however the hot paths are reworked — fails the test.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.config import SimConfig, resolve_object_scale
from repro.core.dumper import Dumper
from repro.core.pipeline import drive
from repro.core.recorder import Recorder
from repro.core.stages import LiveVMSource, ProfileBuilder
from repro.gc.c4 import C4Collector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.workloads import make_workload

_COLLECTORS = {
    "g1": G1Collector,
    "ng2c": NG2CCollector,
    "c4": C4Collector,
}

#: The parity matrix: every hot path is exercised — full-heap tracing
#: (precise liveness), remembered-set partial tracing plus the Recorder's
#: full re-trace, allocation logging with deep/varied stacks, no-need page
#: marking, and delta snapshots — across all three collector families.
SCENARIOS = (
    ("cassandra-wi", "ng2c", False, 7, 1500.0),
    ("cassandra-wi", "g1", True, 11, 1500.0),
    ("graphchi-pr", "g1", False, 13, 900.0),
    ("lucene", "ng2c", True, 17, 900.0),
    ("cassandra-wr", "c4", False, 19, 4000.0),
)


def _sha(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _record_scenario(
    workload_name: str,
    collector_name: str,
    use_remsets: bool,
    seed: int,
    duration_ms: float,
    object_scale: Optional[int] = None,
):
    """Run one scenario's profiling recording.

    The streaming analyzer rides along exactly as in the profiling
    phase; returns ``(vm, recorder, dumper, sttree)``.
    """
    scale = resolve_object_scale(object_scale)
    duration_ms *= scale
    # A reduced heap keeps runs quick while forcing frequent collections,
    # so every trace/evacuate/no-need path gets exercised.
    config = SimConfig(
        heap_bytes=16 * 1024 * 1024 * scale,
        young_bytes=2 * 1024 * 1024 * scale,
        seed=seed,
        use_remembered_sets=use_remsets,
    )
    vm = VM(config, collector=_COLLECTORS[collector_name]())
    recorder = Recorder(snapshot_every=1)
    dumper = Dumper()
    builder = ProfileBuilder()
    source = LiveVMSource(builder, recorder, dumper)
    for agent in (recorder, dumper, source):
        vm.attach_agent(agent)
    drive(vm, make_workload(workload_name, seed=seed), duration_ms)
    source.flush()
    return vm, recorder, dumper, builder.analyzer.finish()


def scenario_sttree(*scenario, object_scale: Optional[int] = None):
    """The STTree one golden scenario's recording analyzes to.

    Used by the merge property tests: the five parity scenarios double
    as realistic, structurally diverse trees for checking that
    ``STTree.merge`` is associative and commutative on real profiles.
    """
    return _record_scenario(*scenario, object_scale=object_scale)[3]


def run_scenario(
    workload_name: str,
    collector_name: str,
    use_remsets: bool,
    seed: int,
    duration_ms: float,
    object_scale: Optional[int] = None,
) -> Dict:
    """Run one profiling-phase scenario and return its canonical digest."""
    vm, recorder, dumper, sttree = _record_scenario(
        workload_name,
        collector_name,
        use_remsets,
        seed,
        duration_ms,
        object_scale,
    )
    # The digest payload records the *scaled* duration, as run.
    duration_ms *= resolve_object_scale(object_scale)
    records = recorder.records
    traces_payload = {
        str(tid): [list(frame) for frame in trace]
        for tid, trace in records.traces.items()
    }
    streams_payload = {
        str(tid): list(stream) for tid, stream in records.streams.items()
    }
    pauses_payload: List = [
        [
            pause.cycle,
            pause.kind,
            pause.collector,
            round(pause.start_ms, 6),
            round(pause.duration_ms, 6),
            sorted(pause.stats.items()),
        ]
        for pause in vm.collector.pauses
    ]
    snapshots_payload = [
        {
            "seq": snap.seq,
            "pages_written": snap.pages_written,
            "size_bytes": snap.size_bytes,
            "duration_us": round(snap.duration_us, 6),
            "live_count": len(snap.live_object_ids),
            "live_sha": _sha(sorted(snap.live_object_ids)),
        }
        for snap in dumper.snapshots
    ]
    # The analysis must also be invariant: the STTree the streaming
    # analyzer built during the run is reduced to its content hash
    # (schema-versioned IR).
    return {
        "scenario": {
            "workload": workload_name,
            "collector": collector_name,
            "use_remembered_sets": use_remsets,
            "seed": seed,
            "duration_ms": duration_ms,
        },
        "sttree": {"content_hash": sttree.digest()},
        "records": {
            "trace_count": records.trace_count,
            "total_allocations": records.total_allocations,
            "traces_sha": _sha(traces_payload),
            "streams_sha": _sha(streams_payload),
        },
        "pauses": {
            "count": len(pauses_payload),
            "sha": _sha(pauses_payload),
        },
        "snapshots": snapshots_payload,
        "end_state": {
            "clock_us": round(vm.clock.now_us, 6),
            "ops_completed": vm.ops_completed,
            "allocated_objects": vm.heap.total_allocated_objects,
            "allocated_bytes": vm.heap.total_allocated_bytes,
            "cycles": vm.collector.cycles,
        },
    }


def run_all() -> List[Dict]:
    return [run_scenario(*scenario) for scenario in SCENARIOS]
