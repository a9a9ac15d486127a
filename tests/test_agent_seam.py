"""Guard: one path per mechanism, and the event bus the only VM seam.

The agent/event refactor routed every profiler through
``vm.attach_agent`` and left one analysis path (the streaming
``ProfileBuilder``) and one recording layout; later changes left one
evacuation engine (plans only), one sweep scheduler (``jobs`` picks
in-process or the pool), one profile-store layout (content-addressed
objects plus ``latest`` pointers, v2 profiles only), one tick loop
(``pipeline.drive``), one sweep cache (``sqlite:///PATH``), one
offline entry point (``analyze_recording``), one cell path (a
single ready queue in ``run_sweep``; a cell keeps only its results) and
one allocation path (a batch is a loop over ``VM.allocate_at_site``).
This test keeps it that way: no package module or example may use the
removed listener shims, legacy attach seams, the batch analyzer, the
second snapshot format, the per-object evacuation loop, the scheduler
modes, the ``MatrixCache`` view, the flat profile-file API, the v1
profile format, the JSON-directory cache,
``ProfileBuilder.from_recording``, the sharded pool, the runner's
``result``/``series_support`` aliases, the snapshot-payload pickling or
the batched allocation path (batch events, quiet-run headroom, bulk
region appends, lazy views); nothing there may call the two shims the
end-to-end benchmark's tracer still wraps (``Recorder
.on_allocation_batch`` and ``SimHeap.allocate_batch``); and only
``core/pipeline.py`` may tick a workload.
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
    r"\.on_allocation_batch\(|\bheap\.allocate_batch\("
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
        "evacuate with an EvacuationPlan, pick the scheduler with jobs, "
        "use ProfileStore.put/load_latest/select, cache in sqlite:///PATH, "
        "analyze recordings with analyze_recording, tick workloads "
        "through pipeline.drive, compute cells through run_sweep, "
        "allocate through VM.allocate_at_site): "
        + "; ".join(offenders)
    )
