"""Unit tests for the bucket algorithm and generation estimation."""

from typing import List

from repro.core.analyzer import LifetimeDistribution, survival_to_generation
from repro.core.recorder import AllocationRecords
from repro.core.stages import IncrementalAnalyzer, ProfileBuilder
from repro.snapshot.snapshot import Snapshot


def make_snapshot(seq: int, live_ids, time_ms=None) -> Snapshot:
    return Snapshot(
        seq=seq,
        time_ms=float(seq if time_ms is None else time_ms),
        engine="test",
        pages_written=1,
        size_bytes=4096,
        duration_us=10.0,
        live_object_ids=frozenset(live_ids),
    )


TRACE_A = (("C", "young_site", 10),)
TRACE_B = (("C", "long_site", 20),)


def build_records(young_ids: List[int], long_ids: List[int]) -> AllocationRecords:
    records = AllocationRecords()
    for oid in young_ids:
        records.log(TRACE_A, oid)
    for oid in long_ids:
        records.log(TRACE_B, oid)
    return records


def analyze(records, snapshots, **kwargs) -> IncrementalAnalyzer:
    analyzer = IncrementalAnalyzer(records, **kwargs)
    for snapshot in snapshots:
        analyzer.on_snapshot(snapshot)
    analyzer.finish()
    return analyzer


def build_profile(records, snapshots, workload):
    builder = ProfileBuilder(records)
    for snapshot in snapshots:
        builder.feed_snapshot(snapshot)
    return builder.build(workload=workload)


class TestSurvivalToGeneration:
    def test_zero_is_young(self):
        assert survival_to_generation(0, 16) == 0

    def test_log2_boundaries(self):
        assert survival_to_generation(1, 16) == 1
        assert survival_to_generation(2, 16) == 2
        assert survival_to_generation(3, 16) == 2
        assert survival_to_generation(4, 16) == 3
        assert survival_to_generation(7, 16) == 3
        assert survival_to_generation(8, 16) == 4

    def test_capped_at_max(self):
        assert survival_to_generation(10_000, 4) == 3


class TestBucketAlgorithm:
    def test_survival_counts(self):
        records = build_records(young_ids=[1, 2], long_ids=[3])
        snapshots = [
            make_snapshot(1, {3}),
            make_snapshot(2, {3}),
            make_snapshot(3, {3}),
        ]
        analyzer = analyze(records, snapshots, min_samples=1)
        assert analyzer.distributions[2].buckets == {3: 1}
        # Never seen live: bucket zero.
        assert analyzer.distributions[1].buckets == {0: 2}

    def test_unrecorded_ids_ignored(self):
        records = build_records(young_ids=[1], long_ids=[])
        snapshots = [make_snapshot(1, {999})]
        analyzer = analyze(records, snapshots, min_samples=1)
        assert list(analyzer.distributions) == [1]
        assert analyzer.distributions[1].buckets == {0: 1}


class TestDistributions:
    def test_distribution_buckets(self):
        records = build_records(young_ids=[1, 2, 3], long_ids=[10, 11])
        snapshots = [make_snapshot(1, {10, 11}), make_snapshot(2, {10, 11})]
        analyzer = analyze(records, snapshots, min_samples=1)
        dists = analyzer.distributions
        long_dist = dists[2]  # trace id 2 = TRACE_B
        assert long_dist.buckets == {2: 2}
        young_dist = dists[1]
        assert young_dist.buckets == {0: 3}

    def test_id_cutoff_excludes_post_snapshot_allocations(self):
        records = build_records(young_ids=[], long_ids=[1, 2, 100])
        snapshots = [make_snapshot(1, {1, 2})]
        analyzer = analyze(records, snapshots, min_samples=1)
        dist = analyzer.distributions[1]
        # id 100 > max live id in last snapshot -> excluded.
        assert sum(dist.buckets.values()) == 2

    def test_mode_generation_groups_cohorts(self):
        # Survival counts uniformly spread over 8..15 all vote for gen 4.
        dist = LifetimeDistribution(1, {s: 1 for s in range(8, 16)})
        assert dist.mode_generation(16) == 4


class TestEstimation:
    def test_short_lived_estimated_young(self):
        # The newest id (19) appears in the snapshot so the cutoff keeps
        # the whole stream; 18 of 19 objects never survive a snapshot.
        records = build_records(young_ids=list(range(1, 20)), long_ids=[])
        snapshots = [make_snapshot(1, {19})]
        analyzer = analyze(records, snapshots, min_samples=1)
        assert analyzer.estimates[1] == 0

    def test_long_lived_estimated_old(self):
        long_ids = list(range(1, 30))
        records = build_records(young_ids=[], long_ids=long_ids)
        snapshots = [make_snapshot(i, set(long_ids)) for i in range(1, 6)]
        analyzer = analyze(records, snapshots, min_samples=1)
        gen = analyzer.estimates[1]
        assert gen == survival_to_generation(5, 16)

    def test_min_samples_guard(self):
        records = build_records(young_ids=[], long_ids=[1, 2])
        snapshots = [make_snapshot(i, {1, 2}) for i in range(1, 5)]
        analyzer = analyze(records, snapshots, min_samples=10)
        assert analyzer.estimates[1] == 0


class TestSiteReport:
    def test_report_lists_sites_with_estimates(self):
        long_ids = list(range(1, 30))
        records = build_records(young_ids=[100, 101, 102], long_ids=long_ids)
        snapshots = [make_snapshot(i, set(long_ids) | {102}) for i in (1, 2, 3)]
        analyzer = analyze(records, snapshots, min_samples=1)
        report = analyzer.site_report()
        assert "long_site:20" in report
        assert "young_site:10" in report
        assert "survival histogram" in report
        # The long-lived site's line carries a non-zero gen estimate.
        long_line = next(l for l in report.splitlines() if "long_site" in l)
        assert " 0 " not in long_line.split("  ")[0] or "g2" in long_line

    def test_report_caps_rows(self):
        records = AllocationRecords()
        for i in range(60):
            records.log((("C", f"m{i}", i),), 1000 + i)
        snapshots = [make_snapshot(1, {1059})]
        analyzer = analyze(records, snapshots, min_samples=1)
        report = analyzer.site_report(max_sites=10)
        # Header (2 lines) + 10 rows.
        assert len(report.splitlines()) == 12


class TestProfileBuilding:
    def test_profile_contains_long_lived_sites_only(self):
        young_ids = list(range(1, 40))
        long_ids = list(range(100, 140))
        records = build_records(young_ids, long_ids)
        snapshots = [make_snapshot(i, set(long_ids)) for i in range(1, 5)]
        profile = build_profile(records, snapshots, workload="unit")
        sites = {d.location for d in profile.alloc_directives}
        assert ("C", "long_site", 20) in sites
        assert ("C", "young_site", 10) not in sites
        assert profile.conflicts_detected == 0
        assert profile.metadata["snapshots_analyzed"] == 4

    def test_conflicting_site_detected_in_profile(self):
        records = AllocationRecords()
        shared = ("Util", "clone", 9)
        long_trace = (("C", "put", 1), shared)
        young_trace = (("C", "read", 2), shared)
        for oid in range(1, 30):
            records.log(long_trace, oid)
        for oid in range(100, 130):
            records.log(young_trace, oid)
        live = set(range(1, 30))
        snapshots = [make_snapshot(i, live | {129}) for i in range(1, 5)]
        profile = build_profile(records, snapshots, workload="unit")
        assert profile.conflicts_detected == 1
        directives = {d.location: d for d in profile.call_directives}
        assert directives[("C", "put", 1)].target_generation >= 1
        assert directives[("C", "read", 2)].target_generation == 0
