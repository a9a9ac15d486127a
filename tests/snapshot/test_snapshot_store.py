"""Unit tests for the snapshot store and the delta representation."""

import pytest

from repro.snapshot.snapshot import Snapshot, SnapshotStore


def snap(seq: int, time_ms: float, size: int = 4096, live=None) -> Snapshot:
    return Snapshot(
        seq=seq,
        time_ms=time_ms,
        engine="test",
        pages_written=size // 4096,
        size_bytes=size,
        duration_us=100.0,
        live_object_ids=frozenset({seq} if live is None else live),
    )


def delta_chain(live_sets):
    """Build a store of delta snapshots realizing the given live sets."""
    store = SnapshotStore()
    prev_live = frozenset()
    prev_snap = None
    for seq, live in enumerate(live_sets, start=1):
        live = frozenset(live)
        snapshot = Snapshot(
            seq=seq,
            time_ms=float(seq),
            engine="criu",
            pages_written=1,
            size_bytes=4096,
            duration_us=100.0,
            born_ids=live - prev_live,
            dead_ids=prev_live - live,
            predecessor=prev_snap,
        )
        store.append(snapshot)
        prev_live, prev_snap = live, snapshot
    return store


class TestSnapshotStore:
    def test_append_and_index(self):
        store = SnapshotStore()
        store.append(snap(1, 0.0))
        store.append(snap(2, 1.0))
        assert len(store) == 2
        assert store[0].seq == 1
        assert [s.seq for s in store] == [1, 2]

    def test_rejects_out_of_order(self):
        store = SnapshotStore()
        store.append(snap(1, 5.0))
        with pytest.raises(ValueError):
            store.append(snap(2, 1.0))

    def test_aggregates(self):
        store = SnapshotStore()
        store.append(snap(1, 0.0, size=4096))
        store.append(snap(2, 1.0, size=8192))
        assert store.total_bytes() == 12288

    def test_snapshots_is_immutable_view(self):
        store = SnapshotStore()
        store.append(snap(1, 0.0))
        listing = store.snapshots
        with pytest.raises(AttributeError):
            listing.clear()
        with pytest.raises(TypeError):
            listing[0] = None
        assert len(store) == 1
        # The view is live and O(1): it tracks later appends.
        store.append(snap(2, 1.0))
        assert len(listing) == 2
        assert store.snapshots is listing
        # Slicing still hands figure code a plain prefix list.
        assert listing[:1] == [store[0]]
        # An empty store's view is falsy (polling loops rely on this).
        assert not SnapshotStore().snapshots


class TestDeltaSnapshots:
    LIVE_SETS = [{1, 2, 3}, {2, 3, 4, 5}, {5, 6}, {5, 6, 7}]

    def test_lazy_materialization_matches_live_sets(self):
        store = delta_chain(self.LIVE_SETS)
        assert all(s.is_delta for s in store)
        assert not store[3].is_materialized
        # Accessing the last snapshot materializes (and caches) the chain.
        assert store[3].live_object_ids == frozenset({5, 6, 7})
        assert store[1].is_materialized
        for snapshot, live in zip(store, self.LIVE_SETS):
            assert snapshot.live_object_ids == frozenset(live)

    def test_append_rejects_unchained_delta(self):
        store = delta_chain(self.LIVE_SETS[:2])
        stranger = Snapshot(
            seq=9,
            time_ms=9.0,
            engine="criu",
            pages_written=1,
            size_bytes=4096,
            duration_us=1.0,
            born_ids=frozenset({9}),
            dead_ids=frozenset(),
            predecessor=None,
        )
        with pytest.raises(ValueError):
            store.append(stranger)

    def test_roundtrip_save_load(self, tmp_path):
        store = delta_chain(self.LIVE_SETS)
        path = str(tmp_path / "snapshots.bin")
        store.save(path)
        loaded = SnapshotStore.load(path)
        # Deltas stay delta-encoded on disk.
        assert all(s.is_delta for s in loaded)
        assert list(loaded) == list(store)

    def test_legacy_full_format_still_loads(self, tmp_path):
        # Full (jmap-style) snapshots round-trip through the same store.
        store = SnapshotStore()
        store.append(snap(1, 0.0, live={1, 2}))
        store.append(snap(2, 1.0, live={2, 3}))
        path = str(tmp_path / "snapshots.bin")
        store.save(path)
        loaded = SnapshotStore.load(path)
        assert not any(s.is_delta for s in loaded)
        assert list(loaded) == list(store)

    def test_delta_and_full_stores_are_equivalent(self, tmp_path):
        delta = delta_chain(self.LIVE_SETS)
        full = SnapshotStore()
        for i, live in enumerate(self.LIVE_SETS, start=1):
            full.append(
                Snapshot(
                    seq=i,
                    time_ms=float(i),
                    engine="criu",
                    pages_written=1,
                    size_bytes=4096,
                    duration_us=100.0,
                    live_object_ids=frozenset(live),
                )
            )
        assert list(delta) == list(full)
        delta_path = str(tmp_path / "delta.bin")
        full_path = str(tmp_path / "full.bin")
        delta.save(delta_path)
        full.save(full_path)
        assert list(SnapshotStore.load(delta_path)) == list(
            SnapshotStore.load(full_path)
        )

    def test_long_chain_does_not_recurse(self):
        live_sets = [set(range(i, i + 4)) for i in range(3000)]
        store = delta_chain(live_sets)
        assert store[-1].live_object_ids == frozenset(live_sets[-1])
