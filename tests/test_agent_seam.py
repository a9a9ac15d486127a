"""Guard: one path per mechanism, and the event bus the only VM seam.

The agent/event refactor routed every profiler through
``vm.attach_agent`` and left one analysis path (the streaming
``ProfileBuilder``) and one recording layout; later changes left one
evacuation engine (``SimHeap.evacuate``: one loop over survivors, taking
a plan and a mark epoch), one copy of every heap object (a region is a
bump pointer and its ``HeapObject`` list), one sweep scheduler (``jobs``
picks in-process or the pool), one profile-store layout
(content-addressed objects plus ``latest`` pointers, v2 profiles only),
one tick loop (``pipeline.drive``), one sweep cache
(``sqlite:///PATH``), one offline entry point (``analyze_recording``),
one cell path (a single ready queue in ``run_sweep``; a cell keeps only
its results), one allocation path (a batch is a loop over
``VM.allocate_at_site``), one snapshot form (a snapshot holds its
live-id set; ``snapshots.bin`` alone stores deltas), one snapshot
hand-off (the Dumper passes each snapshot to its ``consume`` callback
and keeps none; the analyzer takes its allocation records at
construction) and one id-set type (a live set is a ``frozenset``; only
``binstore`` knows the id-column bytes).  This test keeps it that way: no package
module or example may use the removed listener shims, legacy attach
seams, the batch analyzer, the second snapshot format, a second
evacuation loop beside ``evacuate``, the region columns and their
kernels, the page occupancy counters, the id-set live tests, the
scheduler modes, the ``MatrixCache`` view, the flat profile-file API,
the v1 profile format, the JSON-directory cache,
``ProfileBuilder.from_recording``, the sharded pool, the runner's
``result``/``series_support`` aliases, the snapshot-payload pickling,
the batched allocation path (batch events, quiet-run headroom, bulk
region appends, lazy views) or the in-memory snapshot delta chain
(``SnapshotStore``, its view, predecessor links and their release) or
the snapshot forwarding agents (``LiveVMSource``, ``BoundedLiveSource``,
``RecordingDirSource``, the trace-flush step, the Dumper's snapshot list
and its peak counter) or the id-set kernel (``IdSet``, its empty
singleton, the analyzer's cohorts and their crediting helper) or the
unread heap-object header slots (``class_id`` and the ``birth_cycle=``
allocation argument: a heap object holds only fields something reads;
the exact tracer's own ``birth_cycle`` dict stays); nothing there may
call the two shims the end-to-end benchmark's tracer still wraps
(``Recorder.on_allocation_batch`` and ``SimHeap.allocate_batch``); and
only ``core/pipeline.py`` may tick a workload.
"""

from __future__ import annotations

import os
import re

import repro

#: Removed names; any use under ``src/repro`` or ``examples`` fails.
_REMOVED = re.compile(
    r"\.add_alloc_listener\(|\.remove_alloc_listener\(|"
    r"\.add_cycle_listener\(|\.remove_cycle_listener\(|\bCycleListener\b|"
    r"\b(?:recorder|instrumenter|tracer|agent)\.attach\(|"
    r"(?:Instrumenter|Tracer)\([^)]*\)\.attach\(|\bDumper\(vm\b|"
    r"\bdelta_encode\b|\bextra_stages\b|\bProfileStage\b|"
    r"\bSNAPSHOT_FORMATS\b|\bresolve_snapshot_format\b|"
    r"\bsnapshot_format=|--snapshot-format|REPRO_SNAPSHOT_FORMAT|"
    r"\bflush_hooks\b|\bbuild_profiles\b|"
    r"\bfrom repro\.core\.analyzer import Analyzer\b|(?<!Incremental)Analyzer\(|"
    r"\b_evacuate_objects\b|\buntrack_object\b|"
    r"\bMatrixCache\b|\bSCHEDULER_MODES\b|\bmode=\"wave\"|--mode\b|"
    r"polm2-profile-v1|"
    r"\.load_tree\(|\.has_profile\(|\.list_workloads\(|\.load_all\(|"
    r"\bDirCacheBackend\b|dir:///|\bREPRO_CACHE_DIR\b|--cache-dir\b|"
    r"\bcache_dir=|\bfrom_recording\(|\b_reset_identity_hashes\b|"
    r"\b_ShardedScheduler\b|\b_run_sweep_pool\b|\bseries_support\b|"
    r"\bto_full_dict\b|\b_from_payloads\b|\bSnapshot\.from_dict\b|"
    r"\brunner\.result\(|"
    r"\bAllocationBatchEvent\b|\bALLOCATION_BATCH\b|\bbatch_headroom\b|"
    r"\bappend_batch\b|\bview_at\b|\bfrom_columns\b|"
    r"\breserve_identity_hashes\b|\bbump_room\b|\bmaterialize=|"
    r"\.on_allocation_batch\(|\bheap\.allocate_batch\(|"
    r"\b_occupancy\b|\badjust_occupancy_run\b|\babsorb_slice\b|"
    r"\bplace_slice\b|\bage_up_and_split\b|\blive_runs\b|\blive_flags\b|"
    r"\bextract_mask\b|\b_id_breaks\b|\blive_id_set\b|"
    r"\bSnapshotStore\b|\bSnapshotView\b|\.release_predecessor\(|"
    r"\.is_delta\b|\.is_materialized\b|\.born_ids\b|\.dead_ids\b|"
    r"\bpredecessor=|\.union_all\(|\bcheckpoints_taken\b|"
    r"\bLiveVMSource\b|\bBoundedLiveSource\b|\bRecordingDirSource\b|"
    r"\.on_trace_flush\(|\.feed_trace_flush\(|\blive_snapshot_peak\b|"
    r"\bdumper\.snapshots\b|"
    r"\bIdSet\b|\bEMPTY_IDSET\b|repro\.core\.idset|\bcredit_counts\b|"
    r"\._cohorts\b|\._previous_live\b|"
    r"\bclass_id\b|\bbirth_cycle="
)

#: Workload ticks; only the one tick loop (``core/pipeline.py``) may call it.
_TICK = re.compile(r"\.tick\(\)")
_TICK_LOOP = os.path.join("src", "repro", "core", "pipeline.py")


def _sources():
    package = os.path.dirname(os.path.abspath(repro.__file__))
    root = os.path.dirname(os.path.dirname(package))
    for top in (package, os.path.join(root, "examples")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    yield os.path.relpath(path, root), path


def test_no_direct_alloc_listener_calls_outside_runtime():
    offenders = []
    for rel, path in _sources():
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                ticks = (
                    rel.startswith(os.path.join("src", "repro"))
                    and rel != _TICK_LOOP
                    and _TICK.search(line)
                )
                if _REMOVED.search(line) or ticks:
                    offenders.append(f"{rel}:{number}: {line.strip()}")
    assert offenders == [], (
        "these lines use removed seams (subscribe via vm.attach_agent / "
        "vm.events, analyze with ProfileBuilder, record snapshots.bin, "
        "evacuate with SimHeap.evacuate and a mark epoch, keep heap "
        "objects only in Region.objects, pick the scheduler with jobs, "
        "use ProfileStore.put/load_latest/select, cache in sqlite:///PATH, "
        "analyze recordings with analyze_recording, tick workloads "
        "through pipeline.drive, compute cells through run_sweep, "
        "allocate through VM.allocate_at_site, hand snapshots to "
        "Dumper(consume), hold live sets as frozensets and write them "
        "with binstore): "
        + "; ".join(offenders)
    )
