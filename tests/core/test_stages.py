"""Streaming analyzer: matches the survival-count reference, bounded memory."""

import gc
import random
import weakref

import pytest

from repro.config import SimConfig
from repro.core.offline import record_to_dir
from repro.core.pipeline import POLM2Pipeline
from repro.core.profile import AllocationProfile
from repro.core.stages import IncrementalAnalyzer, ProfileBuilder
from repro.errors import ProfileError
from repro.serve.cycle import ProfilingCycleEngine
from repro.snapshot.criu import CRIUEngine
from repro.workloads import make_workload
from tests.core.survival_reference import reference_tree
from tests.core.test_analyzer_delta import (
    analyze,
    build_records,
    full_snapshot,
    full_snapshots,
    random_live_sets,
)


def assert_tree_parity(records, snapshots, **kwargs):
    expected = reference_tree(records, snapshots, **kwargs)
    streamed = analyze(records, snapshots, **kwargs).finish()
    assert streamed.digest() == expected.digest()
    assert streamed.to_json() == expected.to_json()


class TestIncrementalBatchParity:
    def test_full_snapshots(self):
        rng = random.Random(11)
        ids = list(range(1, 90))
        live_sets = random_live_sets(rng, ids, 15)
        assert_tree_parity(build_records(ids), full_snapshots(live_sets))

    def test_resurrections_with_low_min_samples(self):
        rng = random.Random(13)
        ids = list(range(1, 40))
        live_sets = random_live_sets(rng, ids, 10)
        records = build_records(ids)
        assert_tree_parity(records, full_snapshots(live_sets), min_samples=1)

    def test_no_snapshots(self):
        assert_tree_parity(build_records([1, 2, 3]), [])

    def test_ids_after_last_snapshot_excluded(self):
        # The cutoff: ids allocated after the final snapshot never appear
        # live and must not be bucketed.
        live_sets = [{1, 2}, {2, 3}]
        records = build_records([1, 2, 3, 100, 102])
        assert_tree_parity(records, full_snapshots(live_sets), min_samples=1)


class TestBoundedMemory:
    def test_at_most_two_snapshots_alive(self):
        """The stage never holds more than two snapshots' id sets."""
        rng = random.Random(3)
        ids = list(range(1, 50))
        stage = IncrementalAnalyzer(build_records(ids))
        refs = []
        for seq, live in enumerate(random_live_sets(rng, ids, 12), start=1):
            snapshot = full_snapshot(seq, live)
            refs.append(weakref.ref(snapshot))
            stage.on_snapshot(snapshot)
            del snapshot
            gc.collect()
            alive = sum(1 for ref in refs if ref() is not None)
            assert alive <= 2
        stage.finish()
        gc.collect()
        assert sum(1 for ref in refs if ref() is not None) <= 1

    def test_finish_releases_cohorts(self):
        stage = IncrementalAnalyzer(build_records([1, 2, 3]))
        for seq, live in enumerate([{1, 2}, {2, 3}], start=1):
            stage.on_snapshot(full_snapshot(seq, live))
        stage.finish()
        assert stage.born_at == {}


class TestStageErrors:
    def test_no_snapshots_after_finish(self):
        stage = IncrementalAnalyzer(build_records([1]))
        stage.finish()
        with pytest.raises(ProfileError, match="finished"):
            stage.on_snapshot(full_snapshot(1, {1}))

    def test_max_generations_floor(self):
        with pytest.raises(ProfileError):
            IncrementalAnalyzer(build_records([1]), max_generations=1)


class TestProfileBuilder:
    def test_build_matches_batch_profile(self):
        live_sets = [{1, 2}, {2, 3}, {3, 4}]
        snaps = full_snapshots(live_sets)
        records = build_records([1, 2, 3, 4])

        builder = ProfileBuilder(records, min_samples=1)
        for snapshot in snaps:
            builder.feed_snapshot(snapshot)
        streamed = builder.build(workload="synthetic")

        expected = AllocationProfile.from_sttree(
            reference_tree(records, snaps, min_samples=1),
            workload="synthetic",
            metadata={
                "snapshots_analyzed": 3,
                "traces_analyzed": 2,
                "allocations_recorded": 4,
                "push_up": True,
            },
        )
        assert streamed.to_json() == expected.to_json()

    def test_metadata_keys(self):
        builder = ProfileBuilder(build_records([1, 2]), min_samples=1)
        builder.feed_snapshot(full_snapshot(1, {1, 2}))
        profile = builder.build(workload="w", metadata={"extra": True})
        assert profile.metadata["snapshots_analyzed"] == 1
        assert profile.metadata["traces_analyzed"] == 2
        assert profile.metadata["allocations_recorded"] == 2
        assert profile.metadata["push_up"] is True
        assert profile.metadata["extra"] is True


class TestNoRetention:
    """A run keeps no snapshot: when the analyzer returns from one, the
    only snapshot still alive is the one it was just handed."""

    @pytest.mark.parametrize("shape", ["profiling-phase", "serve-cycle"])
    def test_run_keeps_no_snapshot(self, shape, monkeypatch):
        refs = []
        alive_after = []
        on_snapshot = IncrementalAnalyzer.on_snapshot

        def tracked(analyzer, snapshot):
            on_snapshot(analyzer, snapshot)
            refs.append(weakref.ref(snapshot))
            alive = sum(ref() is not None for ref in refs)
            if alive > 1:
                # Only a reference cycle awaiting collection is forgiven.
                gc.collect()
                alive = sum(ref() is not None for ref in refs)
            alive_after.append(alive)

        monkeypatch.setattr(IncrementalAnalyzer, "on_snapshot", tracked)
        config = SimConfig.small(seed=7)
        if shape == "profiling-phase":
            POLM2Pipeline(
                lambda: make_workload("cassandra-wi", seed=7), config=config
            ).run_profiling_phase(duration_ms=1_500.0)
        else:
            report = ProfilingCycleEngine(
                "cassandra-wi", seed=7, config=config, sim_duration_ms=1_500.0
            ).run_cycle()
            assert report.completed
            assert report.snapshots_streamed == len(alive_after)
        assert len(alive_after) > 1
        assert max(alive_after) == 1

    def test_recording_keeps_no_snapshot(self, tmp_path, monkeypatch):
        # record_to_dir encodes each snapshot's columns as it arrives:
        # when a checkpoint returns, the snapshot it made is the only
        # one alive.
        refs = []
        alive_at = []
        checkpoint = CRIUEngine.checkpoint

        def tracked(engine, heap, live_ids, time_ms):
            snapshot = checkpoint(engine, heap, live_ids, time_ms)
            refs.append(weakref.ref(snapshot))
            alive = sum(ref() is not None for ref in refs)
            if alive > 1:
                # Only a reference cycle awaiting collection is forgiven.
                gc.collect()
                alive = sum(ref() is not None for ref in refs)
            alive_at.append(alive)
            return snapshot

        monkeypatch.setattr(CRIUEngine, "checkpoint", tracked)
        record_to_dir(
            "cassandra-wi",
            str(tmp_path / "recording"),
            duration_ms=1_500.0,
            config=SimConfig.small(),
        )
        assert len(alive_at) > 1
        assert max(alive_at) == 1
