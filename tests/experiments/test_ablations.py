"""Unit tests for the ablation experiments (small scale)."""

import pytest

from repro.experiments import ablations

PROFILING_MS = 8_000.0
PRODUCTION_MS = 8_000.0


class TestPushUpAblation:
    def test_push_up_reduces_api_calls(self):
        result = ablations.run_push_up_ablation(
            "cassandra-wi",
            profiling_ms=PROFILING_MS,
            production_ms=PRODUCTION_MS,
        )
        assert result.calls_with_push_up < result.calls_without_push_up
        assert 0.0 < result.call_reduction <= 1.0


class TestNaiveProfile:
    def test_naive_profile_brackets_every_site(self):
        from repro.core.sttree import STTree

        tree = STTree()
        tree.insert((("C", "put", 1), ("Util", "clone", 9)), 3, 39)
        profile = ablations.build_naive_profile(tree, "unit")
        assert len(profile.alloc_directives) == 1
        directive = profile.alloc_directives[0]
        assert directive.pre_set_gen == 3
        assert profile.call_directives == []

    def test_naive_vote_weighted_by_object_count(self):
        from repro.core.sttree import STTree

        # Two paths to one site: the heavier path's generation wins and
        # the conflict is not resolved (that is the STTree's job).
        tree = STTree()
        tree.insert((("C", "put", 1), ("Util", "clone", 9)), 2, 10)
        tree.insert((("C", "read", 2), ("Util", "clone", 9)), 0, 30)
        tree.insert((("C", "scan", 3), ("Util", "clone", 9)), 2, 25)
        profile = ablations.build_naive_profile(tree, "unit")
        assert [d.pre_set_gen for d in profile.alloc_directives] == [2]
        assert profile.workload == "unit-naive"


class TestMadviseAblation:
    def test_madvise_shrinks_snapshots(self):
        result = ablations.run_madvise_ablation(
            "cassandra-wi", duration_ms=PROFILING_MS
        )
        assert result.bytes_with_madvise < result.bytes_without_madvise
        # Short runs see less accumulated garbage; the full-duration bench
        # measures ~15%.
        assert result.size_reduction > 0.03


class TestRemsetAblation:
    def test_remsets_trade_copying_for_cheap_scans(self):
        result = ablations.run_remset_ablation(
            "cassandra-wi", production_ms=10_000.0
        )
        assert result.precise_worst_ms > 0
        assert result.remset_worst_ms > 0
        # Floating garbage can only add work, never remove it.
        assert result.remset_total_ms >= result.precise_total_ms * 0.9


class TestPauseGoalAblation:
    def test_goal_slices_pauses_but_polm2_removes_them(self):
        result = ablations.run_pause_goal_ablation(
            "cassandra-wi",
            goal_ms=30.0,
            profiling_ms=12_000.0,
            production_ms=12_000.0,
        )
        assert result.g1_goal_pauses > result.g1_pauses
        assert result.polm2_worst_ms < result.g1_worst_ms


class TestBinaryPretenuringAblation:
    def test_single_space_costs_compaction(self):
        result = ablations.run_binary_pretenuring_ablation(
            "cassandra-wi",
            profiling_ms=12_000.0,
            production_ms=12_000.0,
        )
        assert result.binary_total_ms > result.ng2c_total_ms
