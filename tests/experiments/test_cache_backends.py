"""The sweep cache: resumability, concurrency, corruption.

The cache contract: a killed sweep resumes from exactly the cells
already committed, concurrent runners sharing one database never
corrupt it, corrupt cells warn once and recompute, and a file that is
not a usable cache raises a one-line :class:`~repro.errors.ReproError`
naming it instead of silently forking the sweep's storage.
"""

import json
import multiprocessing
import sqlite3
import warnings

import pytest

from repro.config import SimConfig
from repro.errors import ReproError
from repro.experiments.matrix import (
    CACHE_FORMAT,
    CellKey,
    SqliteCacheBackend,
    SweepSpec,
    run_sweep,
    sweep_cache_key,
)
from repro.core.pipeline import PhaseResult

PROFILE_MS = 1_000.0
PRODUCTION_MS = 1_600.0

SPEC = SweepSpec(
    workloads=("cassandra-wi",),
    strategies=("g1", "polm2"),
    seeds=(0, 1),
)

#: The cache schemes a spec may name (``sqlite:///PATH`` is the one).
SCHEMES = pytest.mark.parametrize("scheme", ["sqlite"])


def make_backend(scheme, tmp_path, name="cache"):
    key = sweep_cache_key(SimConfig(), PROFILE_MS, PRODUCTION_MS)
    return SqliteCacheBackend.from_spec(f"{scheme}:///{tmp_path}/{name}.db", key)


def fake_result(strategy="g1", workload="w", ops=1) -> PhaseResult:
    return PhaseResult(
        strategy=strategy,
        workload=workload,
        collector_name="c",
        duration_ms=10.0,
        ops_completed=ops,
        pauses=[],
        peak_memory_bytes=1,
        set_generation_calls=0,
        throughput_timeline=[],
    )


def run_cells(backend):
    """One full sweep against ``backend``; returns {key: (cached, json)}."""
    return {
        item.key: (item.cached, json.dumps(item.result.to_dict(), sort_keys=True))
        for item in run_sweep(
            SPEC,
            profiling_ms=PROFILE_MS,
            production_ms=PRODUCTION_MS,
            backend=backend,
        )
    }


@SCHEMES
class TestRoundTrip:
    def test_store_load_round_trip(self, tmp_path, scheme):
        backend = make_backend(scheme, tmp_path)
        key = CellKey("w", "g1", 3, "default")
        result = fake_result(ops=7)
        backend.store(key, result)
        backend.flush()
        loaded = backend.load(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert backend.load(CellKey("w", "g1", 4, "default")) is None
        assert key.cell_id in backend.cell_ids()

    def test_seed_and_heap_are_part_of_the_key(self, tmp_path, scheme):
        backend = make_backend(scheme, tmp_path)
        backend.store(CellKey("w", "g1", 0, "default"), fake_result(ops=1))
        backend.store(CellKey("w", "g1", 1, "default"), fake_result(ops=2))
        backend.store(CellKey("w", "g1", 0, "big-heap"), fake_result(ops=3))
        backend.flush()
        assert backend.load(CellKey("w", "g1", 0, "default")).ops_completed == 1
        assert backend.load(CellKey("w", "g1", 1, "default")).ops_completed == 2
        assert backend.load(CellKey("w", "g1", 0, "big-heap")).ops_completed == 3


@SCHEMES
class TestCrashResume:
    def test_killed_sweep_resumes_only_missing_cells(self, tmp_path, scheme):
        backend = make_backend(scheme, tmp_path)
        first = run_cells(backend)
        backend.close()

        # Simulate a crash that lost two production cells.
        lost = [
            CellKey("cassandra-wi", "g1", 1, "default"),
            CellKey("cassandra-wi", "polm2", 1, "default"),
        ]
        backend = make_backend(scheme, tmp_path)
        with sqlite3.connect(backend.path) as conn:
            conn.executemany(
                "DELETE FROM cells WHERE cell_id = ?",
                [(key.cell_id,) for key in lost],
            )

        rerun = run_cells(backend)
        recomputed = {key for key, (cached, _) in rerun.items() if not cached}
        # Only the lost cells execute — the profiling cell the lost
        # polm2 cell depends on is still cached, so it streams as a hit.
        assert recomputed == set(lost)
        # And the recomputation is byte-identical to the original run.
        for key, (_, payload) in rerun.items():
            assert payload == first[key][1]


def _concurrent_writer(path, start, count):
    """One runner process storing ``count`` cells into a shared store."""
    backend = SqliteCacheBackend(path, "sharedkey")
    for i in range(start, start + count):
        backend.store(CellKey("w", "g1", i, "default"), fake_result(ops=i))
    backend.close()


@SCHEMES
class TestConcurrentRunners:
    def test_two_runners_one_store(self, tmp_path, scheme):
        path = str(tmp_path / f"{scheme}.db")
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_concurrent_writer, args=(path, start, 40))
            for start in (0, 40)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        backend = SqliteCacheBackend(path, "sharedkey")
        for i in range(80):
            loaded = backend.load(CellKey("w", "g1", i, "default"))
            assert loaded is not None and loaded.ops_completed == i

    def test_same_cell_written_twice_stays_intact(self, tmp_path, scheme):
        """Concurrent same-cell stores cannot clobber each other: both
        writes land intact."""
        path = str(tmp_path / f"{scheme}.db")
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_concurrent_writer, args=(path, 0, 20))
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        backend = SqliteCacheBackend(path, "sharedkey")
        for i in range(20):
            loaded = backend.load(CellKey("w", "g1", i, "default"))
            assert loaded is not None and loaded.ops_completed == i


class TestCorruptCells:
    def test_sqlite_corrupt_payload_warns_and_recomputes(self, tmp_path):
        backend = make_backend("sqlite", tmp_path)
        broken = CellKey("w", "g1", 0, "default")
        foreign = CellKey("w", "g1", 1, "default")
        with sqlite3.connect(backend.path) as conn:
            conn.executemany(
                "INSERT INTO cells (cache_key, cell_id, format, payload)"
                " VALUES (?, ?, ?, ?)",
                [
                    (backend.key, broken.cell_id, CACHE_FORMAT, "{broken"),
                    (backend.key, foreign.cell_id, CACHE_FORMAT, '{"alien": 1}'),
                ],
            )
        for key in (broken, foreign):
            with pytest.warns(UserWarning, match=key.cell_id):
                assert backend.load(key) is None
        # A second load of the same cell recomputes without warning again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backend.load(broken) is None


class TestFormatVersioning:
    def test_sqlite_stale_format_noted(self, tmp_path):
        backend = make_backend("sqlite", tmp_path)
        with sqlite3.connect(backend.path) as conn:
            conn.execute(
                "INSERT INTO cells (cache_key, cell_id, format, payload)"
                " VALUES ('old', 'w__g1__s0__default', 'matrix-cache-v3', '{}')"
            )
        backend.close()
        with pytest.warns(UserWarning, match="matrix-cache-v3"):
            make_backend("sqlite", tmp_path)

    def test_current_format_is_v4(self):
        assert CACHE_FORMAT == "matrix-cache-v4"


class TestBackendSpecs:
    def test_sqlite_spec(self, tmp_path):
        backend = SqliteCacheBackend.from_spec(
            f"sqlite:///{tmp_path}/sweep.db", "key12345"
        )
        assert backend.path == f"{tmp_path}/sweep.db"
        backend.close()

    def test_dir_spec_and_bare_path(self, tmp_path):
        # Only sqlite:///PATH names a cache: a dir:/// spec, a bare path
        # and an empty path each fail in one line and create nothing.
        for spec in (f"dir:///{tmp_path}/c", str(tmp_path / "c2"), "sqlite:///"):
            with pytest.raises(ReproError) as excinfo:
                SqliteCacheBackend.from_spec(spec, "key")
            assert "sqlite:///PATH" in str(excinfo.value)
            assert "\n" not in str(excinfo.value)
        assert not (tmp_path / "c").exists()
        assert not (tmp_path / "c2").exists()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ReproError, match="unknown cache backend"):
            SqliteCacheBackend.from_spec("redis://localhost/0", "key")


class TestNotADatabase:
    """A cache path holding something else fails in one line, naming it."""

    @pytest.fixture
    def text_file(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("these are not the cells you are looking for\n" * 64)
        return path

    def test_open_raises_one_line_repro_error(self, text_file):
        with pytest.raises(ReproError) as excinfo:
            SqliteCacheBackend(str(text_file), "key")
        message = str(excinfo.value)
        assert str(text_file) in message and "not a database" in message
        assert "\n" not in message

    def test_listing_a_broken_cache_raises_repro_error(self, tmp_path):
        backend = SqliteCacheBackend(str(tmp_path / "cache.db"), "key")
        with sqlite3.connect(backend.path) as conn:
            conn.execute("DROP TABLE cells")
        with pytest.raises(ReproError, match=str(tmp_path)):
            backend.cell_ids()
        with pytest.raises(ReproError, match="unreadable"):
            backend.load(CellKey("w", "g1", 0, "default"))
