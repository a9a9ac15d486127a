"""The fleet-scale sweep engine: one ready queue, DAG, streaming.

Every cell is deterministic in (workload, strategy, seed, heap-config,
durations), so draining the ready queue in-process (``jobs=1``) and
through the process pool must produce byte-identical cells, and the
streaming API must account for every cell exactly once.
"""

import json
import sqlite3

import pytest

from repro.errors import ReproError
from repro.experiments.matrix import (
    PROFILING_KEY,
    CellKey,
    SqliteCacheBackend,
    SweepSpec,
    heap_config,
    parse_seeds,
    pooled_pause_percentiles,
    run_sweep,
    sweep_cache_key,
)
from repro.config import SimConfig

PROFILE_MS = 1_200.0
PRODUCTION_MS = 2_000.0

SPEC = SweepSpec(
    workloads=("cassandra-wi",),
    strategies=("g1", "polm2"),
    seeds=(0, 1),
)


def collect(spec, **kwargs):
    """Run a sweep and return {cell_id: canonical json} per cell."""
    kwargs.setdefault("profiling_ms", PROFILE_MS)
    kwargs.setdefault("production_ms", PRODUCTION_MS)
    return {
        item.key.cell_id: json.dumps(item.result.to_dict(), sort_keys=True)
        for item in run_sweep(spec, **kwargs)
    }


@pytest.fixture(scope="module")
def serial_cells():
    return collect(SPEC, jobs=1)


class TestSchedulerParity:
    def test_pool_matches_serial_byte_for_byte(self, serial_cells):
        pooled = collect(SPEC, jobs=2)
        assert pooled == serial_cells


class TestReadyQueue:
    def test_in_process_order(self):
        """``jobs=1`` computes profiling cells first, then production
        cells in sweep order; a POLM2 cell joins the tail when its
        profiling cell lands."""
        order = [
            (item.key.strategy, item.key.seed)
            for item in run_sweep(
                SPEC,
                profiling_ms=PROFILE_MS,
                production_ms=PRODUCTION_MS,
                jobs=1,
            )
        ]
        assert order == [
            (PROFILING_KEY, 0),
            (PROFILING_KEY, 1),
            ("g1", 0),
            ("g1", 1),
            ("polm2", 0),
            ("polm2", 1),
        ]


class TestStreaming:
    def test_progress_accounts_for_every_cell(self):
        items = list(
            run_sweep(
                SPEC,
                profiling_ms=PROFILE_MS,
                production_ms=PRODUCTION_MS,
                jobs=2,
            )
        )
        # 4 production cells + one profiling cell per (workload, seed).
        assert len(items) == SPEC.size + 2
        totals = {item.progress.total for item in items}
        assert totals == {len(items)}
        assert [item.progress.done for item in items] == list(
            range(1, len(items) + 1)
        )
        last = items[-1].progress
        assert last.eta_s == 0.0
        assert last.cells_per_sec > 0.0

    def test_production_unblocks_on_its_own_seed(self):
        """Per-cell DAG: a polm2 cell needs only *its* profiling cell."""
        landed = set()
        for item in run_sweep(
            SPEC, profiling_ms=PROFILE_MS, production_ms=PRODUCTION_MS, jobs=2
        ):
            if item.key.is_profiling:
                landed.add((item.key.seed, item.key.heap))
            elif item.key.strategy == "polm2":
                assert (item.key.seed, item.key.heap) in landed

    def test_profiling_computed_once_per_workload_seed_heap(self):
        items = list(
            run_sweep(
                SPEC, profiling_ms=PROFILE_MS, production_ms=PRODUCTION_MS,
                jobs=2,
            )
        )
        profiling = [item.key for item in items if item.key.is_profiling]
        assert len(profiling) == len(set(profiling)) == 2


class TestCachedSweep:
    def test_cached_polm2_cell_never_forces_profiling(self, tmp_path):
        backend = SqliteCacheBackend(
            str(tmp_path / "sweep.db"),
            sweep_cache_key(SimConfig(), PROFILE_MS, PRODUCTION_MS),
        )
        first = collect(SPEC, backend=backend, jobs=2)
        # Drop the profiling cells; every production cell stays cached.
        with sqlite3.connect(backend.path) as conn:
            conn.executemany(
                "DELETE FROM cells WHERE cell_id = ?",
                [(key,) for key in first if PROFILING_KEY in key],
            )
        rerun = list(
            run_sweep(
                SPEC,
                profiling_ms=PROFILE_MS,
                production_ms=PRODUCTION_MS,
                backend=backend,
            )
        )
        assert all(item.cached for item in rerun)
        assert not any(item.key.is_profiling for item in rerun)


class TestHeapConfigs:
    def test_heap_variants_are_distinct_cells(self):
        spec = SweepSpec(
            workloads=("cassandra-wi",),
            strategies=("g1",),
            seeds=(0,),
            heap_configs=("default", "tight-young"),
        )
        cells = collect(spec)
        assert set(cells) == {
            "cassandra-wi__g1__s0__default",
            "cassandra-wi__g1__s0__tight-young",
        }
        # A 2x-smaller young generation collects more often: the two
        # heap configs must not alias to the same result.
        assert (
            cells["cassandra-wi__g1__s0__default"]
            != cells["cassandra-wi__g1__s0__tight-young"]
        )

    def test_unknown_heap_config_rejected(self):
        with pytest.raises(ReproError, match="unknown heap config"):
            SweepSpec(
                workloads=("cassandra-wi",),
                strategies=("g1",),
                heap_configs=("enormous",),
            )

    def test_heap_config_resolves_overrides(self):
        config = heap_config("tight-young", base=SimConfig(seed=7))
        assert config.young_bytes == 3 * 1024 * 1024
        assert config.seed == 7
        assert heap_config("default").young_bytes == SimConfig().young_bytes


class TestCellKey:
    def test_cell_id_round_trip(self):
        key = CellKey("cassandra-wi", "polm2", 17, "tight-young")
        assert CellKey.from_cell_id(key.cell_id) == key

    def test_malformed_cell_id_rejected(self):
        with pytest.raises(ReproError, match="malformed"):
            CellKey.from_cell_id("cassandra-wi__g1")

    def test_profiling_key_shares_coordinates(self):
        key = CellKey("lucene", "polm2", 3, "big-heap")
        prof = key.profiling_key()
        assert prof.strategy == PROFILING_KEY
        assert (prof.workload, prof.seed, prof.heap) == (
            "lucene",
            3,
            "big-heap",
        )


class TestParseSeeds:
    def test_single(self):
        assert parse_seeds("7") == (7,)

    def test_range_inclusive(self):
        assert parse_seeds("0-7") == tuple(range(8))

    def test_list(self):
        assert parse_seeds("1, 3,5") == (1, 3, 5)

    def test_duplicates_dropped_order_kept(self):
        assert parse_seeds("3,1,3") == (3, 1)

    @pytest.mark.parametrize("raw", ["", "a", "5-2", "1;2"])
    def test_bad_specs_raise_repro_error(self, raw):
        with pytest.raises(ReproError):
            parse_seeds(raw)


class TestPooledPercentiles:
    def test_support_counts(self):
        cells = {}
        results = {}
        for item in run_sweep(
            SPEC, profiling_ms=PROFILE_MS, production_ms=PRODUCTION_MS
        ):
            results[item.key] = item.result
            if not item.key.is_profiling:
                cells[item.key] = item.result
        pooled = pooled_pause_percentiles(results)
        assert set(pooled) == {"cassandra-wi"}
        series = pooled["cassandra-wi"]
        assert set(series) == {"G1", "POLM2"}
        for pooled_series in series.values():
            assert pooled_series.seeds == 2
            expected = sum(
                len(result.pause_durations_ms())
                for key, result in cells.items()
                if key.strategy == pooled_series.strategy
            )
            assert pooled_series.samples == expected
            assert len(pooled_series.row) == 7
            assert "2 seed(s)" in pooled_series.support
