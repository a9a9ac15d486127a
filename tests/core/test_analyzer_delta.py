"""Streaming analyzer hot path: survival-count parity and cached results."""

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


def full_snapshots(live_sets):
    return [full_snapshot(seq, live) for seq, live in enumerate(live_sets, 1)]


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
        # Random live sets with resurrections: diffing consecutive live
        # sets must count each id once per snapshot it is live in.
        rng = random.Random(7)
        ids = list(range(1, 120))
        live_sets = random_live_sets(rng, ids, 20)
        records = build_records(ids)
        snaps = full_snapshots(live_sets)

        analyzer = analyze(records, snaps)
        assert buckets(analyzer.distributions) == buckets(
            reference_distributions(records, snaps)
        )
        assert analyzer.finish().digest() == reference_tree(records, snaps).digest()


class TestMemoization:
    def test_results_cached_across_calls(self):
        live_sets = [{1, 2}, {2, 3}]
        analyzer = analyze(build_records([1, 2, 3]), full_snapshots(live_sets))
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
        for snapshot in full_snapshots(live_sets):
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
        """Cohort counting == intersection counting with humongous objects.

        Multi-region objects never move and are reclaimed by a separate
        path than regular evacuation, so their ids enter and leave the
        snapshot live-sets differently — the streaming analyzer's cohort
        algebra must still count them exactly like the
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
        assert len(dumper.snapshots) >= 3

        source.flush()
        records, snapshots = recorder.records, dumper.snapshots
        analyzer = builder.analyzer
        tree = analyzer.finish()
        assert buckets(analyzer.distributions) == buckets(
            reference_distributions(records, snapshots)
        )
        assert tree.digest() == reference_tree(records, snapshots).digest()
