"""Offline profiling workflow: record to disk, analyze later (§3.2/§3.3).

The paper's deployment shape: the Recorder runs attached to the profiled
JVM and continuously writes object-id streams to disk (stack traces are
flushed once, at the end); the Dumper leaves CRIU image directories; the
Analyzer is a *separate* process that reads both afterwards.  This module
provides exactly that separation over the simulated runtime:

* :func:`record_to_dir` — run the profiling phase and leave a recording
  directory (``traces.json`` + ``streams.bin`` + ``snapshots.bin`` +
  ``meta.json``);
* :func:`analyze_recording` — build an
  :class:`~repro.core.profile.AllocationProfile` from such a directory,
  with no VM or workload required, by replaying it through the same
  streaming :class:`~repro.core.stages.ProfileBuilder` the in-VM
  profiler runs.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.pipeline import drive
from repro.core.profile import AllocationProfile
from repro.core.recorder import Recorder
from repro.core.stages import (
    META_FILE,
    RECORDING_SCHEMA_VERSION,
    SNAPSHOTS_BIN_FILE,
    ProfileBuilder,
    RecordingDirSource,
)
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.workloads import make_workload

__all__ = [
    "META_FILE",
    "RECORDING_SCHEMA_VERSION",
    "SNAPSHOTS_BIN_FILE",
    "analyze_recording",
    "record_to_dir",
]


def record_to_dir(
    workload_name: str,
    output_dir: str,
    duration_ms: float = 30_000.0,
    seed: int = 42,
    snapshot_every: int = 1,
    config: Optional[SimConfig] = None,
) -> str:
    """Run the profiling phase and persist the raw recording.

    Returns ``output_dir``.  The directory is self-describing: a later
    :func:`analyze_recording` needs nothing else.
    """
    vm = VM(config or SimConfig(seed=seed), collector=NG2CCollector())
    recorder = Recorder(snapshot_every=snapshot_every)
    dumper = Dumper()
    vm.attach_agent(recorder)
    vm.attach_agent(dumper)
    drive(vm, make_workload(workload_name, seed=seed), duration_ms)

    os.makedirs(output_dir, exist_ok=True)
    recorder.records.flush_to_dir(output_dir)
    dumper.store.save(os.path.join(output_dir, SNAPSHOTS_BIN_FILE))
    with open(os.path.join(output_dir, META_FILE), "w") as handle:
        json.dump(
            {
                "schema_version": RECORDING_SCHEMA_VERSION,
                "workload": workload_name,
                "seed": seed,
                "duration_ms": duration_ms,
                "snapshot_every": snapshot_every,
                "snapshot_format": "binary",
                "max_generations": vm.config.max_generations,
                "allocations_recorded": recorder.records.total_allocations,
                "snapshots_taken": len(dumper.store),
            },
            handle,
            indent=2,
        )
    return output_dir


def analyze_recording(
    recording_dir: str,
    push_up: bool = True,
    max_generations: Optional[int] = None,
) -> AllocationProfile:
    """Stream an on-disk recording directory through the streaming analyzer.

    This is the same :class:`~repro.core.stages.ProfileBuilder` code path
    the in-VM streaming profiler uses, driven by a
    :class:`~repro.core.stages.RecordingDirSource` instead of live
    snapshot-point events.  Missing or corrupt recording files raise
    :class:`~repro.errors.ProfileFormatError` naming the offending path
    and the expected recording schema version.
    """
    source = RecordingDirSource(recording_dir)
    builder = ProfileBuilder(
        max_generations=max_generations or source.max_generations,
        push_up=push_up,
    )
    source.replay(builder)
    return builder.build(workload=source.workload)
