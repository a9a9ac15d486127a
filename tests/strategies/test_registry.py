"""Registry round-trip tests: every strategy runs; new ones plug in.

The acceptance bar for the registry refactor: a strategy registered by a
third party must run end-to-end — direct pipeline, experiment runner,
``full_matrix``, and the CLI — without editing ``core/pipeline.py`` or
``experiments/runner.py``.
"""

from __future__ import annotations

import pytest

from repro import POLM2Pipeline, make_workload
from repro.config import SimConfig
from repro.errors import ReproError
from repro.gc.g1 import G1Collector
from repro.strategies import (
    StrategySpec,
    TelemetryAgent,
    get_strategy,
    register_strategy,
    strategy_names,
    unregister_strategy,
)

BUILTINS = ("g1", "ng2c", "ng2c-unannotated", "c4", "polm2", "polm2-binary")

#: Workload with a manual NG2C strategy, so ``ng2c`` runs too.
WORKLOAD = "cassandra-wi"
SEED = 11
DURATION_MS = 1500.0


def _pipeline() -> POLM2Pipeline:
    return POLM2Pipeline(
        workload_factory=lambda: make_workload(WORKLOAD, seed=SEED),
        config=SimConfig(seed=SEED),
    )


class TestRegistry:
    def test_builtins_registered(self):
        names = strategy_names()
        for name in BUILTINS:
            assert name in names

    def test_unknown_strategy_raises_repro_error(self):
        with pytest.raises(ReproError, match="unknown strategy"):
            get_strategy("zgc")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register_strategy(
                StrategySpec(name="g1", collector_factory=G1Collector)
            )

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ReproError):
            unregister_strategy("zgc")


class TestRoundTripSmoke:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_every_registered_strategy_runs(self, name):
        spec = get_strategy(name)
        pipe = _pipeline()
        profile = None
        if spec.needs_profile:
            profile = pipe.run_profiling_phase(duration_ms=DURATION_MS)
        result = pipe.run(spec, duration_ms=DURATION_MS, profile=profile)
        # PhaseResult invariants shared by every strategy.
        assert result.strategy == name
        assert result.workload == WORKLOAD
        assert result.duration_ms >= DURATION_MS
        assert result.ops_completed > 0
        assert result.peak_memory_bytes > 0
        assert result.collector_name
        assert all(p.duration_ms >= 0 for p in result.pauses)
        assert result.telemetry is not None
        assert result.telemetry["classes_loaded"] > 0
        assert (result.profile is not None) == spec.needs_profile

    def test_needs_profile_enforced(self):
        with pytest.raises(ReproError, match="needs an allocation profile"):
            _pipeline().run("polm2", duration_ms=DURATION_MS)

    def test_manual_rotation_telemetry(self):
        result = _pipeline().run("ng2c", duration_ms=4000.0)
        # Cassandra's manual strategy rotates a generation per memtable
        # flush; the rotation agent reports through telemetry.
        assert "generations_rotated" in result.telemetry


class _NoisyTelemetry(TelemetryAgent):
    pass


@pytest.fixture
def custom_strategy():
    """A third-party strategy: G1 plus an extra agent, no core edits."""
    spec = register_strategy(
        StrategySpec(
            name="g1-observed",
            collector_factory=G1Collector,
            build_agents=lambda ctx: [_NoisyTelemetry()],
            description="G1 with a second telemetry observer",
        )
    )
    yield spec
    unregister_strategy("g1-observed")


class TestThirdPartyStrategy:
    def test_runs_via_pipeline(self, custom_strategy):
        result = _pipeline().run("g1-observed", duration_ms=DURATION_MS)
        assert result.strategy == "g1-observed"
        assert result.collector_name == "G1"
        assert result.ops_completed > 0

    def test_runs_via_runner_and_full_matrix(self, custom_strategy):
        from repro.experiments.runner import ExperimentRunner, ExperimentSettings

        runner = ExperimentRunner(
            ExperimentSettings(
                profiling_ms=DURATION_MS,
                production_ms=DURATION_MS,
                seed=SEED,
                jobs=1,
            )
        )
        cell = runner.cell(WORKLOAD, "g1-observed")
        assert cell.strategy == "g1-observed"
        matrix = runner.full_matrix(
            workloads=[WORKLOAD], strategies=["g1", "g1-observed"]
        )
        assert (WORKLOAD, "g1-observed") in matrix

    def test_runs_via_cli(self, custom_strategy, capsys):
        from repro.__main__ import main

        code = main(
            [
                "run",
                WORKLOAD,
                "--strategy",
                "g1-observed",
                "--duration-ms",
                str(DURATION_MS),
                "--seed",
                str(SEED),
            ]
        )
        assert code == 0
        assert "throughput" in capsys.readouterr().out
