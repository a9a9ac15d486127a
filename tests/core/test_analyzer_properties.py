"""Property-based tests for the streaming analyzer's bucket algorithm."""

from __future__ import annotations

from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.analyzer import survival_to_generation
from repro.core.recorder import AllocationRecords
from repro.core.stages import IncrementalAnalyzer
from repro.snapshot.snapshot import Snapshot


def make_snapshot(seq: int, live_ids) -> Snapshot:
    return Snapshot(
        seq=seq,
        time_ms=float(seq),
        engine="t",
        pages_written=0,
        size_bytes=0,
        duration_us=0.0,
        live_object_ids=frozenset(live_ids),
    )


#: Object populations: per object, the number of snapshots it stays live.
populations = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=60
)


def build_world(
    lifetimes: List[int], snapshot_count: int = 12, trace_per_object=False
):
    """Object i survives exactly ``lifetimes[i]`` snapshots; one trace for
    all objects, or (``trace_per_object``) trace i + 1 for object i."""
    records = AllocationRecords()
    for index in range(len(lifetimes)):
        line = index + 1 if trace_per_object else 1
        records.log((("C", "site", line),), index + 1)
    snapshots = []
    for seq in range(1, snapshot_count + 1):
        live = {
            index + 1
            for index, lifetime in enumerate(lifetimes)
            if lifetime >= seq
        }
        # Keep the newest id visible so the id cutoff never excludes
        # objects (the cutoff is tested separately).
        live.add(len(lifetimes))
        snapshots.append(make_snapshot(seq, live))
    return records, snapshots


def analyze(records, snapshots) -> IncrementalAnalyzer:
    analyzer = IncrementalAnalyzer(min_samples=1)
    for snapshot in snapshots:
        analyzer.on_snapshot(snapshot)
    analyzer.on_trace_flush(records)
    analyzer.finish()
    return analyzer


class TestSurvivalToGenerationProperties:
    @given(survival=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, survival):
        a = survival_to_generation(survival, 16)
        b = survival_to_generation(survival + 1, 16)
        assert b >= a

    @given(
        survival=st.integers(min_value=0, max_value=10_000),
        max_generations=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, survival, max_generations):
        gen = survival_to_generation(survival, max_generations)
        assert 0 <= gen <= max_generations - 1


class TestBucketAlgorithmProperties:
    @given(lifetimes=populations)
    @settings(max_examples=60, deadline=None)
    def test_survival_counts_match_ground_truth(self, lifetimes):
        records, snapshots = build_world(lifetimes, trace_per_object=True)
        distributions = analyze(records, snapshots).distributions
        for index, lifetime in enumerate(lifetimes):
            object_id = index + 1
            expected = min(lifetime, len(snapshots))
            if object_id == len(lifetimes):
                expected = len(snapshots)  # pinned visible in every snapshot
            # Object i is alone in trace i + 1: its histogram is its count.
            assert distributions[object_id].buckets == {expected: 1}

    @given(lifetimes=populations)
    @settings(max_examples=60, deadline=None)
    def test_distribution_accounts_every_object(self, lifetimes):
        records, snapshots = build_world(lifetimes)
        dist = analyze(records, snapshots).distributions[1]
        assert dist.sample_count == len(lifetimes)

    @given(lifetimes=populations)
    @settings(max_examples=60, deadline=None)
    def test_estimate_within_observed_range(self, lifetimes):
        records, snapshots = build_world(lifetimes)
        estimate = analyze(records, snapshots).estimates[1]
        max_possible = survival_to_generation(len(snapshots), 16)
        assert 0 <= estimate <= max_possible
