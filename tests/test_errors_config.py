"""Unit tests for the exception hierarchy and configuration validation."""

import pytest

from repro import errors
from repro.config import CostModel, SimConfig


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        leaf_errors = [
            errors.OutOfMemoryError,
            errors.RegionFullError,
            errors.InvalidAddressError,
            errors.ClassNotLoadedError,
            errors.DuplicateClassError,
            errors.NoActiveFrameError,
            errors.UnknownGenerationError,
            errors.PretenuringUnsupportedError,
            errors.ConflictResolutionError,
            errors.ProfileFormatError,
            errors.UnknownWorkloadError,
        ]
        for err in leaf_errors:
            assert issubclass(err, errors.ReproError)

    def test_domain_grouping(self):
        assert issubclass(errors.OutOfMemoryError, errors.HeapError)
        assert issubclass(errors.ConflictResolutionError, errors.ProfileError)
        assert issubclass(errors.UnknownGenerationError, errors.GCError)
        assert issubclass(errors.UnknownWorkloadError, errors.WorkloadError)


class TestSimConfigValidation:
    def test_defaults_are_valid(self):
        config = SimConfig()
        assert config.young_bytes < config.heap_bytes
        assert config.heap_bytes % (64 * 1024) == 0

    def test_rejects_nonpositive_heap(self):
        with pytest.raises(ValueError):
            SimConfig(heap_bytes=0)

    def test_rejects_young_larger_than_heap(self):
        with pytest.raises(ValueError):
            SimConfig(heap_bytes=1 << 20, young_bytes=2 << 20)

    def test_rejects_bad_tenure_threshold(self):
        with pytest.raises(ValueError):
            SimConfig(tenure_threshold=0)

    def test_rejects_bad_occupancy(self):
        with pytest.raises(ValueError):
            SimConfig(mixed_trigger_occupancy=0.0)
        with pytest.raises(ValueError):
            SimConfig(gen_trigger_occupancy=1.5)

    def test_rejects_too_few_generations(self):
        with pytest.raises(ValueError):
            SimConfig(max_generations=1)

    def test_small_preset_overridable(self):
        config = SimConfig.small(seed=7)
        assert config.seed == 7
        assert config.heap_bytes == 8 * 1024 * 1024

    def test_cost_model_independent_instances(self):
        a = SimConfig()
        b = SimConfig()
        a.costs.copy_kib_us = 999.0
        assert b.costs.copy_kib_us != 999.0


class TestCostModelShape:
    def test_compaction_dearer_than_copy(self):
        costs = CostModel()
        assert costs.compact_kib_us > costs.copy_kib_us

    def test_jmap_far_dearer_than_criu(self):
        costs = CostModel()
        assert costs.jmap_write_kib_us > 5 * costs.criu_write_kib_us
        assert costs.jmap_fixed_us > costs.criu_fixed_us

    def test_c4_tax_is_a_tax(self):
        assert CostModel().c4_barrier_tax > 1.0
