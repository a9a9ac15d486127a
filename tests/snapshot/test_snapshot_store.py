"""Snapshots hold full live sets; ``snapshots.bin`` stores deltas."""

from repro.snapshot.binstore import iter_binary, write_store
from repro.snapshot.snapshot import Snapshot


def snap(seq: int, live, incremental: bool = True) -> Snapshot:
    return Snapshot(
        seq=seq,
        time_ms=float(seq),
        engine="criu",
        pages_written=1,
        size_bytes=4096,
        duration_us=100.0,
        live_object_ids=frozenset(live),
        incremental=incremental,
    )


def criu_sequence(live_sets):
    """Snapshots shaped like the CRIU engine's: the first is not
    incremental, every later one is."""
    return [
        snap(seq, live, incremental=seq > 1)
        for seq, live in enumerate(live_sets, start=1)
    ]


def round_trip(tmp_path, snapshots, name="snapshots.bin"):
    path = str(tmp_path / name)
    write_store(path, snapshots)
    return list(iter_binary(path))


class TestDeltaSnapshots:
    LIVE_SETS = [{1, 2, 3}, {2, 3, 4, 5}, {5, 6}, {5, 6, 7}]

    def test_roundtrip_save_load(self, tmp_path):
        snapshots = criu_sequence(self.LIVE_SETS)
        loaded = round_trip(tmp_path, snapshots)
        assert loaded == snapshots
        for snapshot, live in zip(loaded, self.LIVE_SETS):
            assert snapshot.live_object_ids == frozenset(live)

    def test_legacy_full_format_still_loads(self, tmp_path):
        # Full (jmap-style) snapshots round-trip through the same store.
        snapshots = [
            snap(1, {1, 2}, incremental=False),
            snap(2, {2, 3}, incremental=False),
        ]
        assert round_trip(tmp_path, snapshots) == snapshots

    def test_delta_and_full_stores_are_equivalent(self, tmp_path):
        delta = criu_sequence(self.LIVE_SETS)
        full = [
            snap(seq, live, incremental=False)
            for seq, live in enumerate(self.LIVE_SETS, start=1)
        ]
        delta_loaded = round_trip(tmp_path, delta, "delta.bin")
        full_loaded = round_trip(tmp_path, full, "full.bin")
        assert [s.live_object_ids for s in delta_loaded] == [
            s.live_object_ids for s in full_loaded
        ]

    def test_long_chain_does_not_recurse(self, tmp_path):
        live_sets = [set(range(i, i + 4)) for i in range(3000)]
        loaded = round_trip(tmp_path, criu_sequence(live_sets))
        assert loaded[-1].live_object_ids == frozenset(live_sets[-1])
