"""The versioned profile IR: STTree serialization + profile v2 format.

The STTree is the one canonical artifact of analysis; these tests pin its
wire format (schema_version header, content hash, canonical entry order),
the profile-v2 envelope that embeds it, and the property the whole design
leans on: save -> load -> re-instrument produces identical ``@Gen``
assignments.
"""

import json

import pytest

from repro.core.instrumenter import Instrumenter
from repro.core.profile import (
    AllocationProfile,
    PROFILE_FORMAT,
    PROFILE_SCHEMA_VERSION,
)
from repro.core.profilestore import ProfileStore
from repro.core.sttree import STTREE_FORMAT, STTREE_SCHEMA_VERSION, STTree
from repro.errors import ProfileFormatError

SITES = [
    ((("A", "main", 1), ("A", "make", 5)), 2, 40),
    ((("A", "main", 2), ("B", "make", 9)), 1, 12),
    ((("C", "loop", 3),), 0, 99),
    ((("A", "main", 1), ("A", "make", 5), ("D", "inner", 7)), 2, 4),
]


#: A pre-IR ``polm2-profile-v1`` document, no longer read.
V1_PROFILE = json.dumps(
    {
        "format": "polm2-profile-v1",
        "workload": "legacy",
        "conflicts_detected": 0,
        "alloc_directives": [
            {"class": "A", "method": "m", "line": 3, "pre_set_gen": None}
        ],
        "call_directives": [],
        "metadata": {},
    }
)


def sample_tree(order=None):
    tree = STTree()
    for index in order or range(len(SITES)):
        trace, gen, count = SITES[index]
        tree.insert(trace, gen, count)
    return tree


class TestSTTreeIR:
    def test_payload_is_versioned(self):
        payload = sample_tree().to_payload()
        assert payload["format"] == STTREE_FORMAT
        assert payload["schema_version"] == STTREE_SCHEMA_VERSION
        assert payload["entries"] == sorted(payload["entries"])

    def test_json_round_trip_is_fixed_point(self):
        tree = sample_tree()
        restored = STTree.from_json(tree.to_json())
        assert restored.digest() == tree.digest()
        assert restored.to_json() == tree.to_json()

    def test_digest_independent_of_insertion_order(self):
        assert sample_tree().digest() == sample_tree(order=[3, 1, 0, 2]).digest()

    def test_digest_sensitive_to_content(self):
        other = sample_tree()
        other.insert((("Z", "extra", 1),), 1, 1)
        assert other.digest() != sample_tree().digest()

    def test_future_schema_version_rejected_with_one_line(self):
        payload = sample_tree().to_payload()
        payload["schema_version"] = STTREE_SCHEMA_VERSION + 1
        with pytest.raises(ProfileFormatError) as err:
            STTree.from_payload(payload)
        message = str(err.value)
        assert "\n" not in message
        assert "newer than the supported" in message
        assert f"v{STTREE_SCHEMA_VERSION}" in message

    def test_wrong_format_marker_rejected(self):
        payload = sample_tree().to_payload()
        payload["format"] = "something-else"
        with pytest.raises(ProfileFormatError, match="format"):
            STTree.from_payload(payload)

    def test_content_hash_mismatch_detected(self):
        tampered = json.loads(sample_tree().to_json())
        tampered["entries"][0][2] += 1
        with pytest.raises(ProfileFormatError, match="corrupt"):
            STTree.from_json(json.dumps(tampered))

    def test_invalid_json_rejected(self):
        with pytest.raises(ProfileFormatError):
            STTree.from_json("{not json")


class TestProfileV2:
    def test_profile_embeds_versioned_ir(self):
        profile = AllocationProfile.from_sttree(sample_tree(), workload="w")
        payload = json.loads(profile.to_json())
        assert payload["format"] == PROFILE_FORMAT
        assert payload["schema_version"] == PROFILE_SCHEMA_VERSION
        assert payload["ir"]["format"] == STTREE_FORMAT
        assert payload["ir"]["content_hash"] == profile.sttree.digest()

    def test_round_trip_is_fixed_point(self):
        profile = AllocationProfile.from_sttree(sample_tree(), workload="w")
        restored = AllocationProfile.from_json(profile.to_json())
        assert restored.sttree is not None
        assert restored.sttree.digest() == profile.sttree.digest()
        assert restored.to_json() == profile.to_json()

    def test_future_profile_schema_rejected_with_one_line(self):
        payload = json.loads(
            AllocationProfile.from_sttree(sample_tree()).to_json()
        )
        payload["schema_version"] = PROFILE_SCHEMA_VERSION + 97
        with pytest.raises(ProfileFormatError) as err:
            AllocationProfile.from_json(json.dumps(payload))
        message = str(err.value)
        assert "\n" not in message
        assert "newer than the supported" in message

    def test_v1_profile_rejected_in_one_line(self):
        with pytest.raises(ProfileFormatError) as err:
            AllocationProfile.from_json(V1_PROFILE)
        message = str(err.value)
        assert "\n" not in message
        assert "polm2-profile-v1" in message

    def test_save_load_reinstruments_identically(self, tmp_path):
        profile = AllocationProfile.from_sttree(sample_tree(), workload="w")
        path = tmp_path / "profile.json"
        profile.save(str(path))
        reloaded = AllocationProfile.load(str(path))

        original = Instrumenter(profile)
        from_disk = Instrumenter(reloaded)
        assert original._alloc_by_location == from_disk._alloc_by_location
        assert original._call_by_location == from_disk._call_by_location

    def test_instrumenter_accepts_raw_ir(self):
        tree = sample_tree()
        from_tree = Instrumenter(tree)
        from_profile = Instrumenter(AllocationProfile.from_sttree(tree))
        assert (
            from_tree._alloc_by_location == from_profile._alloc_by_location
        )
        assert from_tree._call_by_location == from_profile._call_by_location


class TestProfileStoreIR:
    def test_load_tree_round_trips(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        profile = AllocationProfile.from_sttree(sample_tree(), workload="w")
        content_hash = store.put(profile)
        assert content_hash == profile.sttree.digest()
        assert store.load_latest("w").sttree.digest() == content_hash

    def test_load_tree_rejects_pre_ir_profile(self, tmp_path):
        """A v1 (pre-IR) file placed in the store fails in one line."""
        store = ProfileStore(str(tmp_path))
        content_hash = store.put(AllocationProfile("old", [], []))
        path = tmp_path / "objects" / f"{content_hash}.profile.json"
        path.write_text(V1_PROFILE)
        with pytest.raises(ProfileFormatError, match="polm2-profile-v1") as err:
            store.load_latest("old")
        assert "\n" not in str(err.value)
