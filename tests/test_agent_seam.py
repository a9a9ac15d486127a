"""Guard: one path per mechanism, and the event bus the only VM seam.

The agent/event refactor routed every profiler through
``vm.attach_agent`` and left one analysis path (the streaming
``ProfileBuilder``) and one recording layout; later changes left one
evacuation engine (plans only), one sweep scheduler (``jobs`` picks
in-process or the pool) and one profile-store layout (content-addressed
objects plus ``latest`` pointers, v2 profiles only).  This test keeps
it that way: no package module or example may use the removed listener
shims, legacy attach seams, the batch analyzer, the second snapshot
format, the per-object evacuation loop, the scheduler modes, the
``MatrixCache`` view, the flat profile-file API or the v1 profile
format.
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
    r"\.load_tree\(|\.has_profile\(|\.list_workloads\(|\.load_all\("
)


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
                if _REMOVED.search(line):
                    offenders.append(f"{rel}:{number}: {line.strip()}")
    assert offenders == [], (
        "these lines use removed seams (subscribe via vm.attach_agent / "
        "vm.events, analyze with ProfileBuilder, record snapshots.bin, "
        "evacuate with an EvacuationPlan, pick the scheduler with jobs, "
        "use ProfileStore.put/load_latest/select): "
        + "; ".join(offenders)
    )
