"""Parity tests for the runner's parallel and cached execution paths.

The performance layer must never change results: the parallel matrix and
the disk-cache round trip both have to reproduce the serial, uncached
outputs byte-for-byte (virtual clock + fixed seed ⇒ determinism).
"""

import json

import pytest

from repro.config import SimConfig
from repro.experiments import matrix
from repro.experiments.matrix import CellKey, DirCacheBackend, sweep_cache_key
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentSettings,
    PROFILING_KEY,
)

WORKLOADS = ("cassandra-wi",)
STRATEGIES = ("g1", "polm2")
PROFILE_MS = 1_500.0
PRODUCTION_MS = 2_500.0


def settings(**overrides) -> ExperimentSettings:
    params = dict(profiling_ms=PROFILE_MS, production_ms=PRODUCTION_MS)
    params.update(overrides)
    return ExperimentSettings(**params)


def canonical(cells) -> str:
    """Byte-exact serialization of a result matrix."""
    return json.dumps(
        {
            f"{workload}|{strategy}": result.to_dict()
            for (workload, strategy), result in sorted(cells.items())
        },
        sort_keys=True,
    )


def forbid_computing(monkeypatch, *names) -> None:
    """Make the named cell functions (default: both) fail if called."""

    def refuse(*args):
        raise AssertionError(f"a cell was computed: {args}")

    for name in names or ("_run_profiling_cell", "_run_production_cell"):
        monkeypatch.setattr(matrix, name, refuse)


@pytest.fixture(scope="module")
def serial_matrix():
    runner = ExperimentRunner(settings())
    return canonical(runner.full_matrix(WORKLOADS, STRATEGIES))


class TestParallelParity:
    def test_parallel_matches_serial_byte_for_byte(self, serial_matrix):
        runner = ExperimentRunner(settings(jobs=2))
        parallel = runner.full_matrix(WORKLOADS, STRATEGIES)
        assert canonical(parallel) == serial_matrix

    def test_jobs_argument_overrides_settings(self, serial_matrix):
        runner = ExperimentRunner(settings())
        parallel = runner.full_matrix(WORKLOADS, STRATEGIES, jobs=2)
        assert canonical(parallel) == serial_matrix


class TestDiskCacheParity:
    def test_cached_second_run_matches_serial(
        self, serial_matrix, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        warm = ExperimentRunner(settings(cache_dir=cache_dir))
        assert canonical(warm.full_matrix(WORKLOADS, STRATEGIES)) == (
            serial_matrix
        )
        # The cached run serves every cell from disk: no cell is computed
        # and no profiling phase is forced (cached polm2 cells must not
        # recompute their profile).
        forbid_computing(monkeypatch)
        cold = ExperimentRunner(settings(cache_dir=cache_dir))
        assert canonical(cold.full_matrix(WORKLOADS, STRATEGIES)) == (
            serial_matrix
        )

    def test_profiling_phase_cached_on_disk(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        warm = ExperimentRunner(settings(cache_dir=cache_dir))
        profile = warm.profile(WORKLOADS[0])
        forbid_computing(monkeypatch)
        cold = ExperimentRunner(settings(cache_dir=cache_dir))
        assert cold.profile(WORKLOADS[0]).to_json() == profile.to_json()
        backend = DirCacheBackend(
            cache_dir, sweep_cache_key(SimConfig(), PROFILE_MS, PRODUCTION_MS)
        )
        cell = backend.load(
            CellKey(WORKLOADS[0], PROFILING_KEY, settings().seed)
        )
        assert cell is not None and cell.snapshots is not None

    def test_settings_change_invalidates_key(self, tmp_path):
        def key(**overrides) -> str:
            configured = settings(cache_dir=str(tmp_path), **overrides)
            return configured.open_backend(SimConfig()).key

        assert key() != key(production_ms=PRODUCTION_MS + 1)
        # jobs/cache_dir are performance knobs, not result inputs.
        assert key() == key(jobs=8)
        assert key() == sweep_cache_key(SimConfig(), PROFILE_MS, PRODUCTION_MS)


class TestPauseSeries:
    def test_baseline_only_series_never_profiles(self, monkeypatch):
        forbid_computing(monkeypatch, "_run_profiling_cell")
        runner = ExperimentRunner(settings())
        series = runner.pause_series(WORKLOADS[0], strategies=("g1",))
        assert set(series) == {"G1"}
