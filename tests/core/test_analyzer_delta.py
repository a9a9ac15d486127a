"""Streaming analyzer hot path: delta-chain parity and cached results."""

import random

from repro.config import SimConfig
from repro.core import stages
from repro.core.dumper import Dumper
from repro.core.recorder import AllocationRecords, Recorder
from repro.core.stages import IncrementalAnalyzer, LiveVMSource, ProfileBuilder
from repro.gc.g1 import G1Collector
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM
from repro.snapshot.snapshot import Snapshot
from tests.core.survival_reference import (
    reference_distributions,
    reference_tree,
)

TRACE_A = (("C", "site_a", 10),)
TRACE_B = (("C", "site_b", 20),)


def full_snapshot(seq, live):
    return Snapshot(
        seq=seq,
        time_ms=float(seq),
        engine="criu",
        pages_written=1,
        size_bytes=4096,
        duration_us=10.0,
        live_object_ids=frozenset(live),
    )


def delta_snapshots(live_sets):
    """The same live sets, stored as a delta chain (first image full)."""
    snaps = []
    prev_live = None
    prev_snap = None
    for seq, live in enumerate(live_sets, start=1):
        live = frozenset(live)
        if prev_live is None:
            snap = full_snapshot(seq, live)
        else:
            snap = Snapshot(
                seq=seq,
                time_ms=float(seq),
                engine="criu",
                pages_written=1,
                size_bytes=4096,
                duration_us=10.0,
                born_ids=live - prev_live,
                dead_ids=prev_live - live,
                predecessor=prev_snap,
            )
        snaps.append(snap)
        prev_live, prev_snap = live, snap
    return snaps


def random_live_sets(rng, ids, n_snapshots):
    """Random birth/death intervals (with resurrections) over ids."""
    live_sets = []
    live = set()
    for _ in range(n_snapshots):
        for oid in list(ids):
            roll = rng.random()
            if oid in live and roll < 0.3:
                live.discard(oid)
            elif oid not in live and roll < 0.4:
                live.add(oid)
        live_sets.append(set(live))
    return live_sets


def build_records(ids):
    records = AllocationRecords()
    for oid in ids:
        records.log(TRACE_A if oid % 2 else TRACE_B, oid)
    return records


def analyze(records, snapshots, **kwargs):
    analyzer = IncrementalAnalyzer(**kwargs)
    for snapshot in snapshots:
        analyzer.on_snapshot(snapshot)
    analyzer.on_trace_flush(records)
    analyzer.finish()
    return analyzer


def buckets(distributions):
    return {t: d.buckets for t, d in distributions.items()}


class TestDeltaFastPathParity:
    def test_counts_match_intersection_fallback(self):
        rng = random.Random(7)
        ids = list(range(1, 120))
        live_sets = random_live_sets(rng, ids, 20)
        records = build_records(ids)
        snaps = delta_snapshots(live_sets)

        analyzer = analyze(records, snaps)
        assert buckets(analyzer.distributions) == buckets(
            reference_distributions(records, snaps)
        )
        assert analyzer.finish().digest() == reference_tree(records, snaps).digest()

    def test_fast_path_internal_methods_agree(self):
        # The chained-delta path and the synthesized-delta path (full
        # images) of on_snapshot must count identically.
        rng = random.Random(11)
        ids = list(range(1, 60))
        live_sets = random_live_sets(rng, ids, 12)
        records = build_records(ids)
        chained = analyze(records, delta_snapshots(live_sets))
        full = analyze(
            records,
            [full_snapshot(i, s) for i, s in enumerate(live_sets, start=1)],
        )
        assert buckets(chained.distributions) == buckets(full.distributions)
        assert chained.estimates == full.estimates
        assert chained.finish().digest() == full.finish().digest()

    def test_fast_path_avoids_materializing_tail(self):
        live_sets = [{1, 2}, {2, 3}, {3, 4}, {4, 5}]
        snaps = delta_snapshots(live_sets)
        analyze(build_records([1, 2, 3, 4, 5]), snaps)
        # Neither survival counting nor the id cutoff needed the full
        # cumulative live-set of the later snapshots.
        assert not snaps[-1].is_materialized

    def test_broken_chain_falls_back(self):
        live_sets = [{5, 6}, {6, 7}]
        snaps = delta_snapshots(live_sets)
        # A foreign full snapshot in the middle breaks the chain.
        mixed = [snaps[0], full_snapshot(5, {1}), snaps[1]]
        records = build_records([1, 5, 6, 7])
        analyzer = analyze(records, mixed, min_samples=1)
        # Ids 1, 5 and 7 (trace 1) are each live in exactly one snapshot;
        # id 6 (trace 2) in two, across the foreign image.
        assert buckets(analyzer.distributions) == {1: {1: 3}, 2: {2: 1}}
        expected = reference_distributions(records, mixed)
        assert buckets(analyzer.distributions) == buckets(expected)


class TestMemoization:
    def test_results_cached_across_calls(self):
        live_sets = [{1, 2}, {2, 3}]
        analyzer = analyze(build_records([1, 2, 3]), delta_snapshots(live_sets))
        tree = analyzer.finish()
        distributions = analyzer.distributions
        estimates = analyzer.estimates
        analyzer.site_report()
        assert analyzer.finish() is tree
        assert analyzer.distributions is distributions
        assert analyzer.estimates is estimates

    def test_survival_counts_computed_once(self, monkeypatch):
        live_sets = [{1, 2}, {2, 3}]
        builder = ProfileBuilder()
        for snapshot in delta_snapshots(live_sets):
            builder.feed_snapshot(snapshot)
        builder.feed_trace_flush(build_records([1, 2, 3]))
        calls = {"n": 0}
        original = stages.lifetime_distributions

        def counting(*args):
            calls["n"] += 1
            return original(*args)

        monkeypatch.setattr(stages, "lifetime_distributions", counting)
        builder.build()
        builder.analyzer.site_report()
        builder.build()
        assert calls["n"] == 1


class TestHumongousMixedLifetimes:
    def test_delta_matches_intersection_with_humongous_objects(self):
        """Delta cohorts == intersection counting with humongous objects.

        Multi-region objects never move and are reclaimed by a separate
        path than regular evacuation, so their ids enter and leave the
        snapshot live-sets differently — the streaming analyzer's delta
        cohort algebra must still count them exactly like the
        snapshot-by-snapshot reference.
        """
        vm = VM(SimConfig.small(), collector=G1Collector())
        recorder = Recorder(snapshot_every=1)
        dumper = Dumper()
        builder = ProfileBuilder()
        source = LiveVMSource(builder, recorder, dumper)
        for agent in (recorder, dumper, source):
            vm.attach_agent(agent)
        region = vm.heap.region_size
        model = ClassModel("H")
        method = model.add_method("run")
        method.add_alloc_site(1, "BigLived", 2 * region)
        method.add_alloc_site(2, "Small", 512)
        method.add_alloc_site(3, "BigTemp", 2 * region)
        vm.classloader.load(model)
        thread = vm.new_thread("t")
        humongous_high_water = 0
        pinned = 0
        with thread.entry("H", "run"):
            for step in range(12_000):
                if step % 1_500 == 0:
                    # Long-lived humongous: rooted for a few GC cycles,
                    # then released (mixed lifetimes, not just immortal).
                    vm.roots.pin(f"big{pinned}", thread.alloc(1, keep=False))
                    pinned += 1
                    if pinned > 3:
                        vm.roots.unpin(f"big{pinned - 4}")
                if step % 700 == 0:
                    thread.alloc(3, keep=False)  # humongous garbage
                thread.alloc(2, keep=False)  # short-lived filler
                humongous_high_water = max(
                    humongous_high_water, vm.heap.humongous_count
                )
        assert humongous_high_water > 0
        assert len(dumper.store) >= 3

        source.flush()
        records, snapshots = recorder.records, list(dumper.store)
        analyzer = builder.analyzer
        tree = analyzer.finish()
        assert buckets(analyzer.distributions) == buckets(
            reference_distributions(records, snapshots)
        )
        assert tree.digest() == reference_tree(records, snapshots).digest()
