"""Experiment drivers: one module per table/figure of the paper's §5.

All pause/throughput/memory figures share the same (workload × strategy)
result matrix, computed once per process by
:class:`repro.experiments.runner.ExperimentRunner` and cached.  The
fleet-scale sweep engine — one ready queue over the (workload ×
strategy × seed × heap-config) space, streaming cell results, a
single-file sqlite result cache — lives in
:mod:`repro.experiments.matrix`.
"""

from repro.experiments.matrix import (
    CellKey,
    CellResult,
    SqliteCacheBackend,
    SweepSpec,
    pooled_pause_percentiles,
    run_sweep,
)
from repro.experiments.runner import ExperimentRunner, ExperimentSettings

__all__ = [
    "CellKey",
    "CellResult",
    "ExperimentRunner",
    "ExperimentSettings",
    "SqliteCacheBackend",
    "SweepSpec",
    "pooled_pause_percentiles",
    "run_sweep",
]
