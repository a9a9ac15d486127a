"""Unit tests for allocation profiles and their serialization."""

import pytest

from repro.core.profile import AllocationProfile, AllocDirective, CallDirective
from repro.errors import ProfileFormatError


def sample_profile() -> AllocationProfile:
    return AllocationProfile(
        workload="unit",
        alloc_directives=[
            AllocDirective("C", "m", 10),
            AllocDirective("C", "m", 11, pre_set_gen=2),
        ],
        call_directives=[
            CallDirective("C", "run", 5, target_generation=3),
            CallDirective("C", "run", 6, target_generation=0),
        ],
        conflicts_detected=1,
        metadata={"note": "test"},
    )


class TestMetrics:
    def test_instrumented_site_count(self):
        assert sample_profile().instrumented_site_count == 2

    def test_generation_indexes_exclude_young(self):
        assert sample_profile().generation_indexes == {2, 3}

    def test_generations_used_includes_young(self):
        assert sample_profile().generations_used == 3


class TestSerialization:
    def test_roundtrip(self):
        profile = sample_profile()
        restored = AllocationProfile.from_json(profile.to_json())
        assert restored.workload == profile.workload
        assert restored.alloc_directives == profile.alloc_directives
        assert restored.call_directives == profile.call_directives
        assert restored.conflicts_detected == 1
        assert restored.metadata["note"] == "test"

    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "profile.json")
        profile = sample_profile()
        profile.save(path)
        assert AllocationProfile.load(path).alloc_directives == (
            profile.alloc_directives
        )

    def test_invalid_json_rejected(self):
        with pytest.raises(ProfileFormatError):
            AllocationProfile.from_json("not json at all {")

    def test_wrong_format_marker_rejected(self):
        with pytest.raises(ProfileFormatError):
            AllocationProfile.from_json('{"format": "something-else"}')

    def test_malformed_directive_rejected(self):
        bad = (
            '{"format": "polm2-profile-v2", "workload": "x", '
            '"alloc_directives": [{"class": "C"}], "call_directives": []}'
        )
        with pytest.raises(ProfileFormatError, match="alloc_directives"):
            AllocationProfile.from_json(bad)
