"""Unit tests for the per-workload profile store (§3.5)."""

import pytest

from repro.core.profile import AllocationProfile, AllocDirective
from repro.core.profilestore import ProfileStore, profile_content_hash
from repro.errors import ProfileError


def make_profile(workload: str) -> AllocationProfile:
    return AllocationProfile(
        workload=workload,
        alloc_directives=[AllocDirective("C", "m", 1)],
        call_directives=[],
    )


@pytest.fixture
def store(tmp_path) -> ProfileStore:
    return ProfileStore(str(tmp_path / "profiles"))


class TestSaveLoad:
    """``put`` / ``load_latest``: saving and loading in the one layout."""

    def test_roundtrip(self, store):
        store.put(make_profile("cassandra-wi"))
        loaded = store.load_latest("cassandra-wi")
        assert loaded.workload == "cassandra-wi"
        assert loaded.instrumented_site_count == 1

    def test_list_workloads(self, store):
        store.put(make_profile("cassandra-wi"))
        store.put(make_profile("lucene"))
        assert store.latest_workloads() == ["cassandra-wi", "lucene"]

    def test_has_profile(self, store):
        assert store.latest_hash("lucene") is None
        store.put(make_profile("lucene"))
        assert store.latest_hash("lucene") is not None

    def test_load_missing_raises(self, store):
        store.put(make_profile("cassandra-wi"))
        with pytest.raises(ProfileError, match=r"published: \['cassandra-wi'\]"):
            store.load_latest("graphchi-pr")

    def test_load_all(self, store):
        store.put(make_profile("a"))
        store.put(make_profile("b"))
        loaded = {store.load_by_hash(h).workload for h in store.object_hashes()}
        assert loaded == {"a", "b"}


class TestSelection:
    def test_exact_match_preferred(self, store):
        store.put(make_profile("cassandra-wi"))
        store.put(make_profile("cassandra-ri"))
        assert store.select("cassandra-ri").workload == "cassandra-ri"

    def test_same_application_fallback(self, store):
        store.put(make_profile("cassandra-wi"))
        selected = store.select("cassandra-wr")
        assert selected.workload == "cassandra-wi"

    def test_explicit_fallback(self, store):
        store.put(make_profile("lucene"))
        selected = store.select("graphchi-pr", fallback="lucene")
        assert selected.workload == "lucene"

    def test_no_candidate_raises(self, store):
        with pytest.raises(ProfileError):
            store.select("graphchi-pr")

    def test_selects_the_latest_published_profile(self, store):
        """The daemon publishes with ``put``; ``select`` must see it."""
        store.put(make_ir_profile("cassandra-wi", gen=1))
        newest = store.put(make_ir_profile("cassandra-wi", gen=2))
        selected = store.select("cassandra-wi")
        assert profile_content_hash(selected) == newest


def make_ir_profile(workload: str, gen: int = 1, count: int = 5) -> AllocationProfile:
    """A v2 profile carrying an STTree IR (content-addressable)."""
    from repro.core.sttree import STTree

    tree = STTree.build(
        [((("A", "run", 1), ("L", "alloc", 10)), gen, count)]
    )
    return AllocationProfile.from_sttree(tree, workload=workload)


class TestContentAddressedRegistry:
    def test_put_and_load_by_hash(self, store):
        profile = make_ir_profile("cassandra-wi")
        content_hash = store.put(profile)
        assert content_hash == profile_content_hash(profile)
        loaded = store.load_by_hash(content_hash)
        assert loaded.workload == "cassandra-wi"
        assert profile_content_hash(loaded) == content_hash

    def test_put_sets_latest_pointer(self, store):
        content_hash = store.put(make_ir_profile("cassandra-wi"))
        assert store.latest_hash("cassandra-wi") == content_hash
        assert store.load_latest("cassandra-wi").workload == "cassandra-wi"
        assert store.latest_workloads() == ["cassandra-wi"]

    def test_put_is_idempotent(self, store):
        profile = make_ir_profile("lucene")
        first = store.put(profile)
        second = store.put(profile)
        assert first == second
        assert store.object_hashes() == [first]

    def test_latest_repoints_across_commits(self, store):
        old = store.put(make_ir_profile("lucene", gen=1, count=5))
        new = store.put(make_ir_profile("lucene", gen=2, count=9))
        assert old != new
        assert store.latest_hash("lucene") == new
        # Both objects remain addressable.
        assert sorted(store.object_hashes()) == sorted([old, new])

    def test_set_latest_requires_stored_object(self, store):
        with pytest.raises(ProfileError):
            store.set_latest("lucene", "0" * 64)

    def test_load_by_hash_missing_raises(self, store):
        with pytest.raises(ProfileError):
            store.load_by_hash("f" * 64)

    def test_load_latest_missing_raises(self, store):
        with pytest.raises(ProfileError):
            store.load_latest("graphchi-pr")


class TestContentHashVerification:
    def test_tampered_object_raises_naming_path(self, store):
        import glob
        import os

        from repro.errors import ProfileFormatError

        content_hash = store.put(make_ir_profile("cassandra-wi"))
        (path,) = glob.glob(
            os.path.join(store.directory, "objects", "*.profile.json")
        )
        import json

        payload = json.load(open(path))
        payload["ir"]["entries"][0][2] += 1  # inflate a survivor count
        json.dump(payload, open(path, "w"))
        with pytest.raises(ProfileFormatError) as excinfo:
            store.load_by_hash(content_hash)
        assert path in str(excinfo.value)

    def test_object_stored_under_wrong_address_raises(self, store):
        import os
        import shutil

        content_hash = store.put(make_ir_profile("cassandra-wi"))
        bogus = "a" * 64
        src = os.path.join(
            store.directory, "objects", content_hash + ".profile.json"
        )
        dst = os.path.join(store.directory, "objects", bogus + ".profile.json")
        shutil.copy(src, dst)
        from repro.errors import ProfileFormatError

        with pytest.raises(ProfileFormatError) as excinfo:
            store.load_by_hash(bogus)
        assert dst in str(excinfo.value)

    def test_profile_load_verifies_embedded_ir_hash(self, tmp_path):
        from repro.errors import ProfileFormatError

        path = str(tmp_path / "p.json")
        make_ir_profile("lucene").save(path)
        import json

        payload = json.load(open(path))
        payload["ir"]["entries"][0][1] += 1  # bump a target generation
        json.dump(payload, open(path, "w"))
        with pytest.raises(ProfileFormatError) as excinfo:
            AllocationProfile.load(path)
        assert path in str(excinfo.value)
