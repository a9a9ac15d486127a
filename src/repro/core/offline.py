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
from typing import Iterator, List, Optional, Tuple

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.pipeline import drive
from repro.core.profile import AllocationProfile
from repro.core.recorder import AllocationRecords, Recorder
from repro.core.stages import ProfileBuilder
from repro.errors import ProfileFormatError
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.snapshot import binstore
from repro.snapshot.snapshot import Snapshot
from repro.workloads import make_workload

__all__ = [
    "META_FILE",
    "RECORDING_SCHEMA_VERSION",
    "SNAPSHOTS_BIN_FILE",
    "analyze_recording",
    "record_to_dir",
]

#: Files of a recording directory written here (the Recorder writes
#: ``traces.json`` and ``streams.bin``).
SNAPSHOTS_BIN_FILE = "snapshots.bin"
META_FILE = "meta.json"

#: Version of the recording-directory layout (``meta.json`` +
#: ``traces.json`` + ``streams.bin`` + ``snapshots.bin``).  Readers
#: accept this version and older; newer versions fail with a one-line
#: error instead of misparsing.
RECORDING_SCHEMA_VERSION = 1


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
    snapshots: List[Snapshot] = []
    vm.attach_agent(recorder)
    vm.attach_agent(Dumper(snapshots.append))
    drive(vm, make_workload(workload_name, seed=seed), duration_ms)

    os.makedirs(output_dir, exist_ok=True)
    recorder.records.flush_to_dir(output_dir)
    binstore.write_store(
        os.path.join(output_dir, SNAPSHOTS_BIN_FILE), snapshots
    )
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
                "snapshots_taken": len(snapshots),
            },
            handle,
            indent=2,
        )
    return output_dir


def _read_meta(recording_dir: str) -> Tuple[str, int]:
    """The recorded ``(workload, max_generations)`` from ``meta.json``.

    Missing, corrupt, newer-than-supported or ill-typed metadata fails
    with a :class:`ProfileFormatError` naming the file and the expected
    schema version.
    """
    meta_path = os.path.join(recording_dir, META_FILE)
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ProfileFormatError(
            f"{meta_path}: not a readable recording meta (expected "
            f"recording schema v{RECORDING_SCHEMA_VERSION}): {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise ProfileFormatError(
            f"{meta_path}: recording meta must be a JSON object "
            f"(expected recording schema v{RECORDING_SCHEMA_VERSION})"
        )
    version = meta.get("schema_version", 1)
    if not isinstance(version, int) or version < 1:
        raise ProfileFormatError(
            f"{meta_path}: invalid recording schema_version {version!r} "
            f"(expected an int <= {RECORDING_SCHEMA_VERSION})"
        )
    if version > RECORDING_SCHEMA_VERSION:
        raise ProfileFormatError(
            f"{meta_path}: recording schema v{version} is newer than "
            f"the supported v{RECORDING_SCHEMA_VERSION}; upgrade repro "
            "to read it"
        )
    max_generations = meta.get("max_generations", 16)
    if type(max_generations) is not int or max_generations < 2:
        raise ProfileFormatError(
            f"{meta_path}: invalid max_generations {max_generations!r} "
            "(expected an int >= 2, recording schema "
            f"v{RECORDING_SCHEMA_VERSION})"
        )
    return str(meta.get("workload", "unknown")), max_generations


def _iter_snapshots(recording_dir: str) -> Iterator[Snapshot]:
    """Decode ``snapshots.bin`` lazily: replay, like a live run, holds
    one decoded live set at a time."""
    path = os.path.join(recording_dir, SNAPSHOTS_BIN_FILE)
    try:
        yield from binstore.iter_binary(path)
    except OSError as exc:
        raise ProfileFormatError(
            f"{path}: cannot read recording snapshots (recording "
            f"schema v{RECORDING_SCHEMA_VERSION}): {exc}"
        ) from exc
    except ValueError as exc:
        raise ProfileFormatError(
            f"{path}: corrupt snapshot store (recording schema "
            f"v{RECORDING_SCHEMA_VERSION}): {exc}"
        ) from exc


def analyze_recording(
    recording_dir: str,
    push_up: bool = True,
    max_generations: Optional[int] = None,
) -> AllocationProfile:
    """Stream an on-disk recording directory through the streaming analyzer.

    This is the same :class:`~repro.core.stages.ProfileBuilder` code path
    the in-VM profiler uses, fed from ``snapshots.bin`` instead of a
    live Dumper.  Missing or malformed recording files raise
    :class:`~repro.errors.ProfileFormatError` naming the offending path.
    """
    workload, recorded_generations = _read_meta(recording_dir)
    builder = ProfileBuilder(
        AllocationRecords.load_from_dir(recording_dir),
        max_generations=max_generations or recorded_generations,
        push_up=push_up,
    )
    for snapshot in _iter_snapshots(recording_dir):
        builder.feed_snapshot(snapshot)
    return builder.build(workload=workload)
