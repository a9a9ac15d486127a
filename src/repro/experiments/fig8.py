"""Figure 8 (a-c): Cassandra throughput timelines (transactions/second).

The paper samples ten minutes of transactions/second for each Cassandra
mix under G1, NG2C, POLM2, and C4, showing that the first three track
each other while C4 runs visibly lower.  The reproduction samples the
virtual-time ops/s timeline captured during the Figure 5/7 runs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.experiments.runner import ExperimentRunner, STRATEGIES, default_runner
from repro.metrics.throughput import timeline_summary

CASSANDRA_WORKLOADS = ("cassandra-wi", "cassandra-wr", "cassandra-ri")


@dataclasses.dataclass
class Fig8Panel:
    workload: str
    #: strategy -> per-virtual-second ops/s samples.
    timelines: Dict[str, List[float]]

    def mean(self, strategy: str) -> float:
        return timeline_summary(self.timelines[strategy])["mean"]


def run(runner: Optional[ExperimentRunner] = None) -> Dict[str, Fig8Panel]:
    runner = runner or default_runner()
    panels: Dict[str, Fig8Panel] = {}
    for workload in CASSANDRA_WORKLOADS:
        panels[workload] = Fig8Panel(
            workload=workload,
            timelines={
                strategy: runner.cell(workload, strategy).throughput_timeline
                for strategy in STRATEGIES
            },
        )
    return panels


def render(panels: Dict[str, Fig8Panel]) -> str:
    parts = ["Figure 8: Cassandra throughput (tx/s), per-second samples"]
    for workload, panel in panels.items():
        lines = [f"--- {workload} ---"]
        for strategy, timeline in panel.timelines.items():
            stats = timeline_summary(timeline)
            spark = " ".join(f"{v:.0f}" for v in timeline[:12])
            lines.append(
                f"{strategy:>6}: mean={stats['mean']:8.1f} "
                f"min={stats['min']:8.1f} max={stats['max']:8.1f}  "
                f"first-12s: {spark}"
            )
        parts.append("\n".join(lines))
    parts.append(
        "(paper: G1/NG2C/POLM2 timelines approximately equal; C4 lower)"
    )
    return "\n\n".join(parts)
