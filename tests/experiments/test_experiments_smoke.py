"""Smoke tests for the experiment drivers at reduced durations.

These confirm that every table/figure module runs end-to-end and that the
paper's qualitative claims hold even at a fraction of the benchmark
durations.  The full-scale numbers live in ``benchmarks/``.
"""

import pytest

from repro.experiments import (
    fig3_fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    profiler_overhead,
    table1,
)
from repro.experiments.runner import ExperimentRunner, ExperimentSettings

#: Workloads exercised in the smoke pass (one per platform, for speed).
SMOKE_WORKLOADS = ("cassandra-wi", "graphchi-pr")


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(
        ExperimentSettings(profiling_ms=6_000.0, production_ms=10_000.0)
    )


class TestTable1:
    def test_rows_for_smoke_workloads(self, runner):
        for workload in SMOKE_WORKLOADS:
            row = table1.build_row(runner, workload)
            assert row.polm2_sites > 0
            assert row.ng2c_sites > 0
            assert row.polm2_generations >= 2
            cells = row.cells()
            assert len(cells) == 3

    def test_render_includes_paper_reference(self, runner):
        rows = {w: table1.build_row(runner, w) for w in SMOKE_WORKLOADS}
        text = table1.render(rows)
        assert "Table 1" in text
        for workload in SMOKE_WORKLOADS:
            assert workload in text


class TestFig3Fig4:
    def test_snapshot_comparison_shape(self):
        comparison = fig3_fig4.run_workload(
            "cassandra-wi", duration_ms=8_000.0, max_snapshots=6
        )
        # The snapshot cap, not the deadline, ends this run.
        assert len(comparison.criu) == len(comparison.jmap) == 6
        # The paper's headline: Dumper is far cheaper than jmap.
        assert comparison.mean_time_ratio() < 0.5
        assert comparison.mean_size_ratio() < 1.0

    def test_render(self):
        results = fig3_fig4.run(
            workloads=("cassandra-wi",), duration_ms=6_000.0
        )
        text = fig3_fig4.render(results)
        assert "jmap" in text

    def test_lucene_series_pinned(self):
        # Stops on the deadline before the 20-snapshot cap.
        comparison = fig3_fig4.run_workload("lucene", duration_ms=4_000.0)
        assert len(comparison.criu) == len(comparison.jmap) == 11
        assert [s.size_bytes for s in comparison.criu] == [
            2605056, 3268608, 2248704, 3420160, 3518464, 3637248,
            1892352, 5193728, 5914624, 2306048, 3653632,
        ]
        assert [s.duration_us for s in comparison.criu] == [
            88320.0, 107760.0, 77880.0, 112200.0, 115080.0, 118560.0,
            67440.0, 164160.0, 185280.0, 79560.0, 119040.0,
        ]
        assert [s.size_bytes for s in comparison.jmap] == [
            3952168, 5437316, 6083073, 8821070, 11192059, 12863060,
            11882401, 11688420, 12818328, 14346136, 16337907,
        ]


class TestProfilerOverhead:
    def test_cassandra_virtual_times_pinned(self):
        result = profiler_overhead.run("cassandra-wi", ticks=300)
        assert result.baseline_ms == 3060.96581875
        assert result.polm2_ms == 3736.4818187423975
        assert result.exact_ms == 10910.19081875


class TestPauseFigures:
    def test_fig5_polm2_beats_g1(self, runner):
        panels = {
            w: fig5.Fig5Panel(
                workload=w,
                series={
                    name: __import__(
                        "repro.metrics.percentiles", fromlist=["percentile_row"]
                    ).percentile_row(vals)
                    for name, vals in runner.pause_series(w).items()
                },
            )
            for w in SMOKE_WORKLOADS
        }
        for workload, panel in panels.items():
            assert panel.worst("POLM2") < panel.worst("G1")
            assert panel.worst_reduction_vs_g1() > 0.3

    def test_fig6_fewer_long_pauses(self, runner):
        from repro.metrics.histogram import PauseHistogram

        for workload in SMOKE_WORKLOADS:
            series = runner.pause_series(workload)
            g1 = PauseHistogram().add_all(series["G1"])
            polm2 = PauseHistogram().add_all(series["POLM2"])
            assert polm2.long_pause_count(32.0) < g1.long_pause_count(32.0)


class TestThroughputAndMemory:
    def test_fig7_shape(self, runner):
        from repro.metrics.throughput import normalized_throughput

        for workload in SMOKE_WORKLOADS:
            raw = {
                s: runner.result(workload, s).throughput_ops_s
                for s in ("g1", "ng2c", "polm2", "c4")
            }
            norm = normalized_throughput(raw)
            # POLM2 does not significantly degrade throughput...
            assert norm["polm2"] > 0.9
            # ...and C4 is the slowest collector.
            assert norm["c4"] == min(norm.values())

    def test_fig8_timelines_recorded(self, runner):
        result = runner.result("cassandra-wi", "polm2")
        assert len(result.throughput_timeline) > 3
        assert all(v >= 0 for v in result.throughput_timeline)

    def test_fig9_memory_not_increased(self, runner):
        from repro.metrics.memory import normalized_memory

        for workload in SMOKE_WORKLOADS:
            raw = {
                s: runner.result(workload, s).peak_memory_bytes
                for s in ("g1", "ng2c", "polm2")
            }
            norm = normalized_memory(raw)
            assert norm["polm2"] <= 1.15
            assert norm["ng2c"] <= 1.15


class TestRunnerCaching:
    def test_results_cached(self, runner):
        first = runner.result("cassandra-wi", "g1")
        second = runner.result("cassandra-wi", "g1")
        assert first is second

    def test_profile_cached(self, runner):
        assert runner.profile("cassandra-wi") is runner.profile("cassandra-wi")
