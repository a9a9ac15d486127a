"""Figure 9: max memory usage normalized to G1.

Paper: G1, NG2C, and POLM2 use very similar maximum memory — lifetime-
aware placement costs no footprint and fragmentation from many
generations is negligible.  C4 is omitted because it pre-reserves the
whole heap ("results for C4 would be close to 2 for Cassandra"); the
reproduction reports it explicitly for that comparison.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.runner import ExperimentRunner, default_runner
from repro.metrics.memory import normalized_memory, normalized_memory_table
from repro.workloads import WORKLOAD_NAMES

#: Strategies plotted in the paper's Figure 9 (no C4).
MEMORY_STRATEGIES = ("g1", "ng2c", "polm2")


def run(
    runner: Optional[ExperimentRunner] = None, include_c4: bool = False
) -> Dict[str, Dict[str, float]]:
    runner = runner or default_runner()
    strategies = MEMORY_STRATEGIES + (("c4",) if include_c4 else ())
    normalized: Dict[str, Dict[str, float]] = {}
    for workload in WORKLOAD_NAMES:
        raw = {
            strategy: runner.cell(workload, strategy).peak_memory_bytes
            for strategy in strategies
        }
        normalized[workload] = normalized_memory(raw, baseline="g1")
    return normalized


def render(normalized: Dict[str, Dict[str, float]]) -> str:
    table = normalized_memory_table(
        normalized, title="Figure 9: Max memory usage normalized to G1"
    )
    return table + (
        "\n(paper: G1/NG2C/POLM2 approximately equal; C4 pre-reserves the "
        "whole heap, ~2x on Cassandra)"
    )
