"""Streaming analyzer: matches the survival-count reference, bounded memory."""

import gc
import random
import weakref

import pytest

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.pipeline import drive
from repro.core.profile import AllocationProfile
from repro.core.recorder import Recorder
from repro.core.stages import IncrementalAnalyzer, LiveVMSource, ProfileBuilder
from repro.errors import ProfileError
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.serve.cycle import BoundedLiveSource
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
        stage = IncrementalAnalyzer()
        refs = []
        for seq, live in enumerate(random_live_sets(rng, ids, 12), start=1):
            snapshot = full_snapshot(seq, live)
            refs.append(weakref.ref(snapshot))
            stage.on_snapshot(snapshot)
            del snapshot
            gc.collect()
            alive = sum(1 for ref in refs if ref() is not None)
            assert alive <= 2
        stage.on_trace_flush(build_records(ids))
        stage.finish()
        gc.collect()
        assert sum(1 for ref in refs if ref() is not None) <= 1

    def test_finish_releases_cohorts(self):
        stage = IncrementalAnalyzer()
        for seq, live in enumerate([{1, 2}, {2, 3}], start=1):
            stage.on_snapshot(full_snapshot(seq, live))
        stage.on_trace_flush(build_records([1, 2, 3]))
        stage.finish()
        assert stage._cohorts == {}
        assert not stage._previous_live


class TestStageErrors:
    def test_finish_requires_trace_flush(self):
        stage = IncrementalAnalyzer()
        stage.on_snapshot(full_snapshot(1, {1}))
        with pytest.raises(ProfileError, match="on_trace_flush"):
            stage.finish()

    def test_no_snapshots_after_finish(self):
        stage = IncrementalAnalyzer()
        stage.on_trace_flush(build_records([1]))
        stage.finish()
        with pytest.raises(ProfileError, match="finished"):
            stage.on_snapshot(full_snapshot(1, {1}))

    def test_rebinding_records_rejected(self):
        stage = IncrementalAnalyzer()
        stage.on_trace_flush(build_records([1]))
        with pytest.raises(ProfileError, match="different"):
            stage.on_trace_flush(build_records([2]))

    def test_max_generations_floor(self):
        with pytest.raises(ProfileError):
            IncrementalAnalyzer(max_generations=1)


class TestProfileBuilder:
    def test_build_matches_batch_profile(self):
        live_sets = [{1, 2}, {2, 3}, {3, 4}]
        snaps = full_snapshots(live_sets)
        records = build_records([1, 2, 3, 4])

        builder = ProfileBuilder(min_samples=1)
        for snapshot in snaps:
            builder.feed_snapshot(snapshot)
        builder.feed_trace_flush(records)
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
        builder = ProfileBuilder(min_samples=1)
        builder.feed_snapshot(full_snapshot(1, {1, 2}))
        builder.feed_trace_flush(build_records([1, 2]))
        profile = builder.build(workload="w", metadata={"extra": True})
        assert profile.metadata["snapshots_analyzed"] == 1
        assert profile.metadata["traces_analyzed"] == 2
        assert profile.metadata["allocations_recorded"] == 2
        assert profile.metadata["push_up"] is True
        assert profile.metadata["extra"] is True


def _stream(source_cls, dumper_first=True):
    """Drive a small cassandra-wi run with ``source_cls`` attached."""
    vm = VM(SimConfig.small(seed=7), collector=NG2CCollector())
    recorder, dumper = Recorder(), Dumper()
    source = source_cls(ProfileBuilder(), recorder, dumper)
    order = (dumper, source) if dumper_first else (source, dumper)
    for agent in (recorder, *order):
        vm.attach_agent(agent)
    drive(vm, make_workload("cassandra-wi", seed=7), 1_500.0)
    source.flush()
    return source, dumper


class TestLiveSources:
    @pytest.mark.parametrize(
        "source_cls", [LiveVMSource, BoundedLiveSource], ids=lambda c: c.__name__
    )
    def test_attached_before_dumper_fails(self, source_cls):
        with pytest.raises(ProfileError, match="attach the Dumper first"):
            _stream(source_cls, dumper_first=False)

    def test_bounded_source_trims_but_streams_the_same(self):
        plain, plain_dumper = _stream(LiveVMSource)
        bounded, bounded_dumper = _stream(BoundedLiveSource)
        streamed = plain.snapshots_streamed
        assert streamed > 1
        # The plain source leaves the Dumper's list whole; the bounded
        # one keeps only the newest snapshot.
        assert len(plain_dumper.snapshots) == streamed
        assert bounded.snapshots_streamed == streamed
        assert len(bounded_dumper.snapshots) == 1
        assert bounded.live_snapshot_peak == 2
        assert (
            bounded.builder.analyzer.finish().digest()
            == plain.builder.analyzer.finish().digest()
        )
