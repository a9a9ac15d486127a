"""ProfileSource: URI-based profile resolution for production VMs."""

from __future__ import annotations

import pytest

from repro.core.profile import AllocationProfile, AllocDirective
from repro.core.profilesource import (
    FileProfileSource,
    HttpProfileSource,
    StoreProfileSource,
    profile_source,
    resolve_profile,
)
from repro.core.profilestore import ProfileStore, profile_content_hash
from repro.core.sttree import STTree
from repro.errors import ProfileError
from repro.serve.api import ProfileService


def make_profile(workload: str = "cassandra-wi") -> AllocationProfile:
    tree = STTree.build(
        [((("A", "run", 1), ("L", "alloc", 10)), 1, 5)]
    )
    return AllocationProfile.from_sttree(tree, workload=workload)


class TestUriParsing:
    def test_bare_path_is_a_file_source(self):
        source = profile_source("/tmp/p.json")
        assert isinstance(source, FileProfileSource)
        assert source.path == "/tmp/p.json"

    def test_file_scheme(self):
        source = profile_source("file:///tmp/p.json")
        assert isinstance(source, FileProfileSource)
        assert source.path == "/tmp/p.json"

    def test_store_scheme_with_workload_selector(self):
        source = profile_source("store:///var/store#cassandra-wi")
        assert isinstance(source, StoreProfileSource)
        assert source.directory == "/var/store"
        assert source.selector == "cassandra-wi"

    def test_store_scheme_without_selector_raises(self):
        with pytest.raises(ProfileError):
            profile_source("store:///var/store")

    def test_http_scheme(self):
        url = "http://127.0.0.1:9/profiles/lucene/latest"
        source = profile_source(url)
        assert isinstance(source, HttpProfileSource)
        assert source.url == url


class TestResolution:
    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "p.json")
        make_profile().save(path)
        resolved = resolve_profile(path)
        assert resolved.workload == "cassandra-wi"

    def test_missing_file_raises_profile_error(self, tmp_path):
        with pytest.raises(ProfileError):
            resolve_profile(str(tmp_path / "absent.json"))

    def test_profile_passes_through(self):
        profile = make_profile()
        assert resolve_profile(profile) is profile

    def test_store_latest_pointer(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        store.put(make_profile())
        resolved = resolve_profile(f"store://{tmp_path}#cassandra-wi")
        assert resolved.workload == "cassandra-wi"

    def test_store_without_latest_pointer_fails_in_one_line(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        # A flat <workload>.profile.json file is not a published profile.
        make_profile("lucene").save(str(tmp_path / "lucene.profile.json"))
        uri = f"store://{tmp_path}#lucene"
        with pytest.raises(ProfileError) as err:
            resolve_profile(uri)
        assert "\n" not in str(err.value)
        code = main(["run", "lucene", "--profile", uri, "--duration-ms", "100"])
        assert code == 2
        message = capsys.readouterr().err
        assert message.startswith("error: ") and "lucene" in message
        assert len(message.strip().splitlines()) == 1

    def test_store_hash_selector(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        content_hash = store.put(make_profile())
        resolved = resolve_profile(f"store://{tmp_path}#sha256:{content_hash}")
        assert profile_content_hash(resolved) == content_hash

    def test_http_latest_and_by_hash(self, tmp_path):
        store = ProfileStore(str(tmp_path))
        content_hash = store.put(make_profile())
        with ProfileService(store) as service:
            latest = resolve_profile(
                f"{service.url}/profiles/cassandra-wi/latest"
            )
            by_hash = resolve_profile(
                f"{service.url}/profiles/by-hash/{content_hash}"
            )
        assert latest.workload == "cassandra-wi"
        assert profile_content_hash(by_hash) == content_hash

    def test_http_404_raises_profile_error(self, tmp_path):
        with ProfileService(ProfileStore(str(tmp_path))) as service:
            with pytest.raises(ProfileError) as excinfo:
                resolve_profile(f"{service.url}/profiles/absent/latest")
        assert "404" in str(excinfo.value)

    def test_http_connection_refused_raises_profile_error(self):
        source = HttpProfileSource(
            "http://127.0.0.1:9/profiles/x/latest", timeout_s=0.5
        )
        with pytest.raises(ProfileError):
            source.resolve()
