"""Shared experiment runner: the (workload × strategy) result matrix.

Figures 5-9 all consume the same 6 workloads × {G1, NG2C-manual, POLM2,
C4} runs; Table 1 consumes the profiling phases.  The runner executes
each cell once and caches it, so regenerating every figure costs one pass
over the matrix.

The heavy lifting lives in :mod:`repro.experiments.matrix` — the
fleet-scale sweep engine: one scheduler over the (workload × strategy ×
seed × heap-config) space (in-process at ``jobs=1``, a sharded
work-stealing process pool over the per-cell profiling→production DAG
above that), streaming cell results, and the one result cache, a
single-file WAL sqlite
:class:`~repro.experiments.matrix.SqliteCacheBackend` named by a
``sqlite:///PATH`` spec (``--cache-backend`` /
``REPRO_CACHE_BACKEND``).  A single cell — :meth:`ExperimentRunner.cell`
or :meth:`ExperimentRunner.profile` — is computed by the same
``matrix._run_production_cell`` / ``matrix._run_profiling_cell``
functions a sweep runs.  This module keeps the figure-facing
conveniences on top:

* **in-memory memoization** — each cell (profiling cells included) is
  computed once per runner;
* **on-disk result cache** — keyed by a hash of the
  :class:`SimConfig` fingerprint, the experiment settings, and a
  content hash of the ``repro`` package sources, so re-running figures
  after a restart is near-free and any code or config change
  invalidates stale results;
* **multi-seed pooling** — with ``ExperimentSettings.seeds`` set (env
  ``REPRO_SEEDS``, e.g. ``0-7`` or ``1,3,5``), ``pause_series`` pools
  pause samples across every seed and ``series_support`` reports the
  seed/sample counts figures print alongside their percentiles.

Durations honour two environment variables so CI can run quick smoke
passes: ``REPRO_PROFILE_MS`` and ``REPRO_PRODUCTION_MS`` (virtual
milliseconds); ``REPRO_JOBS``, ``REPRO_CACHE_BACKEND`` and
``REPRO_SEEDS`` configure the parallel, cached, and multi-seed paths the
same way.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.pipeline import PhaseResult
from repro.core.profile import AllocationProfile
from repro.errors import ReproError
from repro.experiments import matrix
from repro.experiments.matrix import (
    CACHE_FORMAT,
    PROFILING_KEY,
    CellKey,
    CellResult,
    SqliteCacheBackend,
    SweepSpec,
    code_version,
    parse_seeds,
    run_sweep,
    sweep_cache_key,
)
from repro.strategies import get_strategy
from repro.workloads import WORKLOAD_NAMES

__all__ = [
    "CACHE_FORMAT",
    "PROFILING_KEY",
    "STRATEGIES",
    "PAUSE_STRATEGIES",
    "ExperimentRunner",
    "ExperimentSettings",
    "code_version",
    "default_runner",
    "reset_default_runner",
]

#: Strategy keys as plotted in the paper.
STRATEGIES = ("g1", "ng2c", "polm2", "c4")

#: Strategies shown in pause-time figures (C4 is omitted there: all of
#: its pauses are below 10 ms, paper §5).
PAUSE_STRATEGIES = ("g1", "ng2c", "polm2")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ReproError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ReproError(
            f"environment variable {name} must be a number, got {raw!r}"
        ) from None


@dataclasses.dataclass
class ExperimentSettings:
    """Durations, seeds, and performance knobs for a full experiment pass.

    ``jobs`` and ``cache_backend`` affect only *how fast* results are
    produced, never their values, so they are excluded from the on-disk
    cache key.
    """

    profiling_ms: float = 30_000.0
    production_ms: float = 60_000.0
    seed: int = 42
    #: Seeds a multi-seed sweep ranges over (None = just ``seed``).
    seeds: Optional[Tuple[int, ...]] = None
    #: Worker processes for ``full_matrix`` / ``sweep`` (1 = in-process).
    jobs: int = 1
    #: The on-disk result cache, ``sqlite:///PATH`` (None disables it).
    cache_backend: Optional[str] = None
    #: Profile URI template (``{workload}`` substituted) pointing
    #: profile-consuming sweep cells at an external profile — e.g.
    #: ``http://host:port/profiles/{workload}/latest`` against a running
    #: ``repro serve`` — instead of sweeping profiling cells locally.
    profile_source: Optional[str] = None

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        """Build settings from ``REPRO_*`` env vars.

        Raises :class:`~repro.errors.ReproError` (not a bare
        ``ValueError``) on unparseable values so the CLI can report them
        as one-line errors.
        """
        raw_seeds = os.environ.get("REPRO_SEEDS") or None
        return cls(
            profiling_ms=_env_float("REPRO_PROFILE_MS", 30_000.0),
            production_ms=_env_float("REPRO_PRODUCTION_MS", 60_000.0),
            seed=_env_int("REPRO_SEED", 42),
            seeds=parse_seeds(raw_seeds) if raw_seeds else None,
            jobs=_env_int("REPRO_JOBS", 1),
            cache_backend=os.environ.get("REPRO_CACHE_BACKEND") or None,
            profile_source=os.environ.get("REPRO_PROFILE_SOURCE") or None,
        )

    @property
    def seed_list(self) -> Tuple[int, ...]:
        """The seeds a sweep ranges over (``seeds`` or just ``seed``)."""
        return self.seeds if self.seeds else (self.seed,)

    def open_backend(self, config: SimConfig) -> Optional[SqliteCacheBackend]:
        """Open the configured cache (None when caching is off)."""
        if not self.cache_backend:
            return None
        key = sweep_cache_key(config, self.profiling_ms, self.production_ms)
        return SqliteCacheBackend.from_spec(self.cache_backend, key)


class ExperimentRunner:
    """Runs and caches every (workload, strategy[, seed, heap]) cell."""

    def __init__(self, settings: Optional[ExperimentSettings] = None) -> None:
        self.settings = settings or ExperimentSettings.from_env()
        #: Every cell this runner has computed, loaded, or swept —
        #: profiling cells under their ``PROFILING_KEY`` key.
        self._cells: Dict[CellKey, PhaseResult] = {}
        self._backend: Optional[SqliteCacheBackend] = self.settings.open_backend(
            SimConfig(seed=self.settings.seed)
        )

    # -- building blocks ---------------------------------------------------------

    def _cached(
        self, key: CellKey, compute: Callable[[], PhaseResult]
    ) -> PhaseResult:
        """One cell: in-memory, then the cache backend, then ``compute()``."""
        result = self._cells.get(key)
        if result is None and self._backend is not None:
            result = self._backend.load(key)
            if result is not None and key.is_profiling and result.profile is None:
                result = None  # foreign/corrupt profiling cell: recompute
        if result is None:
            result = compute()
            if self._backend is not None:
                self._backend.store(key, result)
                self._backend.flush()
        self._cells[key] = result
        return result

    def profile(
        self, workload: str, seed: Optional[int] = None, heap: str = "default"
    ) -> AllocationProfile:
        """The POLM2 allocation profile for a workload (cached)."""
        seed = self.settings.seed if seed is None else seed
        key = CellKey(workload, PROFILING_KEY, seed, heap)
        return self._cached(
            key,
            lambda: matrix._run_profiling_cell(
                workload, seed, heap, self.settings.profiling_ms
            ),
        ).profile

    def cell(
        self,
        workload: str,
        strategy: str,
        seed: Optional[int] = None,
        heap: str = "default",
    ) -> PhaseResult:
        """One production cell of the sweep space (cached).

        Lookup order: in-memory, then the cache backend, then compute.
        A cache hit for a ``polm2`` cell never forces the profiling
        phase — the cached cell already embeds the profile it ran with.
        """
        seed = self.settings.seed if seed is None else seed

        def compute() -> PhaseResult:
            profile_json = (
                self.profile(workload, seed, heap).to_json()
                if get_strategy(strategy).needs_profile
                else None
            )
            return matrix._run_production_cell(
                workload,
                strategy,
                seed,
                heap,
                self.settings.production_ms,
                profile_json,
            )

        return self._cached(CellKey(workload, strategy, seed, heap), compute)

    def result(self, workload: str, strategy: str) -> PhaseResult:
        """One production cell at the default seed and heap config."""
        return self.cell(workload, strategy)

    # -- bulk access ----------------------------------------------------------------

    def pause_series(
        self,
        workload: str,
        strategies: Sequence[str] = PAUSE_STRATEGIES,
    ) -> Dict[str, List[float]]:
        """Pause durations per strategy for one Figure 5/6 panel.

        With multi-seed settings (``seeds`` / ``REPRO_SEEDS``) the
        samples of every seed are pooled per strategy —
        :meth:`series_support` reports how many seeds and samples back
        each series.  Reuses cached cells (memory or disk); restricting
        ``strategies`` to baselines never touches the profiling phase,
        and a cached ``polm2`` cell is served without recomputing its
        profile.
        """
        series: Dict[str, List[float]] = {}
        for strategy in strategies:
            pooled: List[float] = []
            for seed in self.settings.seed_list:
                pooled.extend(
                    self.cell(workload, strategy, seed).pause_durations_ms()
                )
            series[strategy.upper()] = pooled
        return series

    def series_support(
        self,
        workload: str,
        strategies: Sequence[str] = PAUSE_STRATEGIES,
    ) -> Dict[str, Tuple[int, int]]:
        """Per strategy: (seeds, pause samples) behind ``pause_series``."""
        series = self.pause_series(workload, strategies)
        seeds = len(self.settings.seed_list)
        return {name: (seeds, len(vals)) for name, vals in series.items()}

    def full_matrix(
        self,
        workloads: Sequence[str] = WORKLOAD_NAMES,
        strategies: Sequence[str] = STRATEGIES,
        jobs: Optional[int] = None,
    ) -> Dict[Tuple[str, str], PhaseResult]:
        """Force-run every cell; returns {(workload, strategy): result}.

        Drains :meth:`sweep` at the settings' single seed; ``jobs``
        (default ``settings.jobs`` / ``REPRO_JOBS``) picks in-process
        order or the process pool.  Results are identical either way:
        every cell is deterministic in (workload, strategy, seed, heap
        config, durations).
        """
        seed = self.settings.seed
        for _ in self.sweep(
            workloads=workloads, strategies=strategies, seeds=(seed,), jobs=jobs
        ):
            pass
        return {
            (workload, strategy): self._cells[
                CellKey(workload, strategy, seed)
            ]
            for workload in workloads
            for strategy in strategies
        }

    # -- the fleet-scale sweep ----------------------------------------------------

    def sweep(
        self,
        workloads: Sequence[str] = WORKLOAD_NAMES,
        strategies: Sequence[str] = STRATEGIES,
        seeds: Optional[Sequence[int]] = None,
        heap_configs: Sequence[str] = ("default",),
        jobs: Optional[int] = None,
    ) -> Iterator[CellResult]:
        """Stream the (workload × strategy × seed × heap-config) sweep.

        Yields :class:`~repro.experiments.matrix.CellResult` values as
        cells land (cache hits first), with live progress attached.
        Completed cells are adopted into the runner's in-memory store,
        so the figure modules aggregate from warm results afterwards.
        """
        spec = SweepSpec(
            workloads=tuple(workloads),
            strategies=tuple(strategies),
            seeds=tuple(seeds) if seeds is not None else self.settings.seed_list,
            heap_configs=tuple(heap_configs),
        )
        for item in run_sweep(
            spec,
            profiling_ms=self.settings.profiling_ms,
            production_ms=self.settings.production_ms,
            backend=self._backend,
            jobs=self.settings.jobs if jobs is None else jobs,
            preloaded=self._cells,
            profile_source=self.settings.profile_source,
        ):
            self._cells[item.key] = item.result
            yield item


_default_runner: Optional[ExperimentRunner] = None


def default_runner() -> ExperimentRunner:
    """Process-wide shared runner (the figure modules all use this)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner()
    return _default_runner


def reset_default_runner() -> None:
    """Drop the shared runner so the next ``default_runner()`` call
    rebuilds it from the environment.

    Tests that monkeypatch ``REPRO_*`` env vars must call this (the
    shared conftest does) or a runner created earlier would keep serving
    results computed under stale :class:`ExperimentSettings`.
    """
    global _default_runner
    _default_runner = None
