"""Parity tests for the runner's parallel and cached execution paths.

The performance layer must never change results: the parallel matrix and
the disk-cache round trip both have to reproduce the serial, uncached
outputs byte-for-byte (virtual clock + fixed seed ⇒ determinism).  A
single cell (``ExperimentRunner.cell`` / ``.profile``) is a one-cell
sweep, so it follows the same cache and profile-source rules.
"""

import json
import sqlite3

import pytest

from repro.config import SimConfig
from repro.core.pipeline import POLM2Pipeline
from repro.experiments import matrix
from repro.experiments.matrix import CellKey, SqliteCacheBackend, sweep_cache_key
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentSettings,
    PROFILING_KEY,
)
from repro.workloads import make_workload

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
        cache = f"sqlite:///{tmp_path}/sweep.db"
        warm = ExperimentRunner(settings(cache_backend=cache))
        assert canonical(warm.full_matrix(WORKLOADS, STRATEGIES)) == (
            serial_matrix
        )
        # The cached run serves every cell from disk: no cell is computed
        # and no profiling phase is forced (cached polm2 cells must not
        # recompute their profile).
        forbid_computing(monkeypatch)
        cold = ExperimentRunner(settings(cache_backend=cache))
        assert canonical(cold.full_matrix(WORKLOADS, STRATEGIES)) == (
            serial_matrix
        )

    def test_profiling_phase_cached_on_disk(self, tmp_path, monkeypatch):
        cache = f"sqlite:///{tmp_path}/sweep.db"
        warm = ExperimentRunner(settings(cache_backend=cache))
        profile = warm.profile(WORKLOADS[0])
        forbid_computing(monkeypatch)
        cold = ExperimentRunner(settings(cache_backend=cache))
        assert cold.profile(WORKLOADS[0]).to_json() == profile.to_json()
        backend = SqliteCacheBackend(
            str(tmp_path / "sweep.db"),
            sweep_cache_key(SimConfig(), PROFILE_MS, PRODUCTION_MS),
        )
        cell = backend.load(
            CellKey(WORKLOADS[0], PROFILING_KEY, settings().seed)
        )
        assert cell is not None and cell.profile is not None

    def test_profile_served_from_cached_polm2_cell(self, tmp_path, monkeypatch):
        cache = f"sqlite:///{tmp_path}/sweep.db"
        warm = ExperimentRunner(settings(cache_backend=cache))
        expected = warm.cell(WORKLOADS[0], "polm2").profile.to_json()
        with sqlite3.connect(tmp_path / "sweep.db") as conn:
            deleted = conn.execute(
                "DELETE FROM cells WHERE cell_id LIKE ?",
                (f"%__{PROFILING_KEY}__%",),
            ).rowcount
        assert deleted == 1
        forbid_computing(monkeypatch)
        cold = ExperimentRunner(settings(cache_backend=cache))
        assert cold.profile(WORKLOADS[0]).to_json() == expected

    def test_settings_change_invalidates_key(self, tmp_path):
        def key(**overrides) -> str:
            configured = settings(
                cache_backend=f"sqlite:///{tmp_path}/sweep.db", **overrides
            )
            return configured.open_backend(SimConfig()).key

        assert key() != key(production_ms=PRODUCTION_MS + 1)
        # jobs/cache_backend are performance knobs, not result inputs.
        assert key() == key(jobs=8)
        assert key() == sweep_cache_key(SimConfig(), PROFILE_MS, PRODUCTION_MS)


class TestProfileSource:
    def test_cell_runs_with_the_sourced_profile(self, tmp_path, monkeypatch):
        # Another seed's profile: a locally profiled cell would run with
        # a different one.
        saved = POLM2Pipeline(
            lambda: make_workload(WORKLOADS[0], seed=7),
            config=SimConfig(seed=7),
        ).run_profiling_phase(duration_ms=PROFILE_MS)
        assert saved.alloc_directives
        path = tmp_path / "profile.json"
        saved.save(str(path))
        forbid_computing(monkeypatch, "_run_profiling_cell")
        runner = ExperimentRunner(settings(profile_source=f"file://{path}"))
        assert runner.profile(WORKLOADS[0]).to_json() == saved.to_json()
        assert runner.cell(WORKLOADS[0], "polm2").profile.to_json() == (
            saved.to_json()
        )


class TestPauseSeries:
    def test_baseline_only_series_never_profiles(self, monkeypatch):
        forbid_computing(monkeypatch, "_run_profiling_cell")
        runner = ExperimentRunner(settings())
        series = runner.pause_series(WORKLOADS[0], strategies=("g1",))
        assert set(series) == {"G1"}
