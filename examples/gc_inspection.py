#!/usr/bin/env python
"""Inspection tooling: GC logs, lifetime reports, and offline analysis.

Shows the operator-facing surfaces of the reproduction:

* a ``-Xlog:gc``-style log of every pause, with heap transitions;
* the analyzer's per-site lifetime report (what a human reviews before
  trusting the instrumentation);
* the offline record → analyze workflow (§3.2/§3.5): the Recorder's raw
  output lands in a directory, and a separate analysis pass — no VM, no
  workload — turns it into a profile.

Usage::

    python examples/gc_inspection.py [workload]
"""

import sys
import tempfile

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.offline import analyze_recording, record_to_dir
from repro.core.pipeline import drive
from repro.core.recorder import Recorder
from repro.core.stages import ProfileBuilder
from repro.gc.gclog import GCLog
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.workloads import make_workload


def main() -> None:
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "cassandra-wi"

    # -- a profiled run with the GC log attached -----------------------------
    workload = make_workload(workload_name, seed=42)
    collector = NG2CCollector()
    vm = VM(SimConfig(), collector=collector)
    gclog = GCLog(vm)
    recorder = Recorder()
    builder = ProfileBuilder(recorder.records)
    vm.attach_agent(recorder)
    vm.attach_agent(Dumper(builder.feed_snapshot))
    drive(vm, workload, 15_000.0)

    print(f"=== GC log ({workload_name}, profiling phase, last 10 pauses) ===")
    for line in gclog.tail(10):
        print(line)
    # Nothing below reads the heap: free it now rather than at the next
    # full CPython collection.
    vm.close()

    print("\n=== per-site lifetime report ===")
    print(builder.analyzer.site_report(max_sites=15))

    # -- the offline workflow -------------------------------------------------
    print("\n=== offline record -> analyze ===")
    recording_dir = tempfile.mkdtemp(prefix="polm2-recording-")
    record_to_dir(workload_name, recording_dir, duration_ms=12_000.0)
    print(f"recorded raw profiling data -> {recording_dir}")
    profile = analyze_recording(recording_dir)
    print(
        f"offline analysis: {profile.instrumented_site_count} sites, "
        f"{profile.generations_used} generations, "
        f"{profile.conflicts_detected} conflicts"
    )


if __name__ == "__main__":
    main()
