"""Figures 3 & 4: snapshot time and size, Dumper (CRIU) normalized to jmap.

The experiment attaches a *shadow* jmap dumper to a profiling run: after
the Recorder's own CRIU snapshot, the same live set is dumped the way
``jmap -dump:live`` would (full heap walk, per-object serialization) and
its hypothetical cost recorded without charging the virtual clock.  The
first 20 snapshot pairs per workload form the figures.

Paper result: >90 % time reduction and ≈60 % size reduction for all
workloads.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.pipeline import drive
from repro.core.recorder import Recorder
from repro.gc.ng2c import NG2CCollector
from repro.runtime.events import GC_END
from repro.runtime.vm import VM
from repro.snapshot.jmap import JmapDumper
from repro.snapshot.snapshot import Snapshot
from repro.workloads import WORKLOAD_NAMES, make_workload

#: Number of snapshot pairs plotted per workload (as in the paper).
SNAPSHOTS_PLOTTED = 20


@dataclasses.dataclass
class SnapshotComparison:
    """Per-workload CRIU vs jmap series."""

    workload: str
    criu: List[Snapshot]
    jmap: List[Snapshot]

    def time_ratio_series(self) -> List[float]:
        """Per-snapshot Dumper time normalized to jmap (Figure 3)."""
        return [
            c.duration_us / j.duration_us
            for c, j in zip(self.criu, self.jmap)
            if j.duration_us > 0
        ]

    def size_ratio_series(self) -> List[float]:
        """Per-snapshot Dumper size normalized to jmap (Figure 4)."""
        return [
            c.size_bytes / j.size_bytes
            for c, j in zip(self.criu, self.jmap)
            if j.size_bytes > 0
        ]

    def mean_time_ratio(self) -> float:
        series = self.time_ratio_series()
        return sum(series) / len(series) if series else 0.0

    def mean_size_ratio(self) -> float:
        series = self.size_ratio_series()
        return sum(series) / len(series) if series else 0.0


def run_workload(
    workload_name: str,
    duration_ms: float = 30_000.0,
    seed: int = 42,
    max_snapshots: int = SNAPSHOTS_PLOTTED,
) -> SnapshotComparison:
    """Profile one workload with both snapshot engines attached."""
    workload = make_workload(workload_name, seed=seed)
    collector = NG2CCollector()
    vm = VM(SimConfig(seed=seed), collector=collector)
    criu: List[Snapshot] = []
    vm.attach_agent(Recorder())
    vm.attach_agent(Dumper(criu.append))

    jmap = JmapDumper(vm.config.costs)
    shadow: List[Snapshot] = []

    def shadow_jmap(event) -> None:
        # Subscribed after the Recorder's GC_END hook, so the CRIU
        # snapshot for this cycle already exists; dump the same live set
        # the jmap way, without advancing the clock.
        if len(shadow) < len(criu):
            shadow.append(
                jmap.dump(vm.heap, collector.last_live_objects, vm.clock.now_ms)
            )

    vm.events.subscribe(GC_END, shadow_jmap)
    drive(vm, workload, duration_ms, stop=lambda: len(shadow) >= max_snapshots)
    criu_snaps = criu[:max_snapshots]
    return SnapshotComparison(
        workload=workload_name,
        criu=criu_snaps,
        jmap=shadow[: len(criu_snaps)],
    )


def run(
    workloads=WORKLOAD_NAMES,
    duration_ms: float = 30_000.0,
    seed: int = 42,
) -> Dict[str, SnapshotComparison]:
    return {
        name: run_workload(name, duration_ms=duration_ms, seed=seed)
        for name in workloads
    }


def render(results: Dict[str, SnapshotComparison]) -> str:
    lines = [
        "Figures 3 & 4: memory snapshots, Dumper normalized to jmap",
        f"{'workload':>14} {'time ratio':>12} {'size ratio':>12} "
        f"{'time cut %':>12} {'size cut %':>12}",
    ]
    for name, comparison in results.items():
        t = comparison.mean_time_ratio()
        s = comparison.mean_size_ratio()
        lines.append(
            f"{name:>14} {t:>12.3f} {s:>12.3f} "
            f"{100 * (1 - t):>11.1f}% {100 * (1 - s):>11.1f}%"
        )
    lines.append("(paper: time reduced >90%, size reduced ~60%, all workloads)")
    return "\n".join(lines)
