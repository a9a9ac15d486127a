"""Settings parsing and the default-runner singleton lifecycle."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.experiments.runner import (
    ExperimentSettings,
    default_runner,
    reset_default_runner,
)


class TestFromEnv:
    def test_defaults(self, monkeypatch):
        for var in (
            "REPRO_PROFILE_MS",
            "REPRO_PRODUCTION_MS",
            "REPRO_SEED",
            "REPRO_JOBS",
            "REPRO_CACHE_BACKEND",
        ):
            monkeypatch.delenv(var, raising=False)
        settings = ExperimentSettings.from_env()
        assert settings.profiling_ms == 30_000.0
        assert settings.production_ms == 60_000.0
        assert settings.seed == 42
        assert settings.jobs == 1
        assert settings.cache_backend is None

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_MS", "1500")
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite:///sweep.db")
        settings = ExperimentSettings.from_env()
        assert settings.profiling_ms == 1500.0
        assert settings.jobs == 4
        assert settings.cache_backend == "sqlite:///sweep.db"

    @pytest.mark.parametrize("var", ["REPRO_JOBS", "REPRO_SEED"])
    def test_unparseable_int_raises_repro_error(self, monkeypatch, var):
        monkeypatch.setenv(var, "many")
        with pytest.raises(ReproError, match=var):
            ExperimentSettings.from_env()

    @pytest.mark.parametrize("var", ["REPRO_PROFILE_MS", "REPRO_PRODUCTION_MS"])
    def test_unparseable_float_raises_repro_error(self, monkeypatch, var):
        monkeypatch.setenv(var, "soon")
        with pytest.raises(ReproError, match=var):
            ExperimentSettings.from_env()

    def test_empty_value_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        assert ExperimentSettings.from_env().jobs == 1


class TestDefaultRunnerReset:
    def test_reset_discards_stale_settings(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "1")
        first = default_runner()
        assert first.settings.seed == 1
        monkeypatch.setenv("REPRO_SEED", "2")
        # Without a reset the singleton would keep serving seed=1.
        assert default_runner() is first
        reset_default_runner()
        second = default_runner()
        assert second is not first
        assert second.settings.seed == 2
