"""The profile service's HTTP surface."""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.core.profile import AllocationProfile
from repro.core.profilestore import ProfileStore, profile_content_hash
from repro.core.sttree import STTree
from repro.errors import ProfileError
from repro.serve.api import MAX_RECORDING_BYTES, ProfileService


def make_profile(workload: str = "cassandra-wi", gen: int = 1) -> AllocationProfile:
    tree = STTree.build(
        [((("A", "run", 1), ("L", "alloc", 10)), gen, 5)]
    )
    return AllocationProfile.from_sttree(tree, workload=workload)


def get(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, dict(response.headers), response.read().decode()


def get_error(url: str):
    try:
        urllib.request.urlopen(url, timeout=10.0)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())
    raise AssertionError(f"{url} unexpectedly succeeded")


@pytest.fixture
def store(tmp_path) -> ProfileStore:
    return ProfileStore(str(tmp_path / "store"))


class TestProfileRoutes:
    def test_latest_serves_profile_with_hash_headers(self, store):
        content_hash = store.put(make_profile())
        with ProfileService(store) as service:
            status, headers, body = get(
                f"{service.url}/profiles/cassandra-wi/latest"
            )
        assert status == 200
        assert headers["X-Profile-Hash"] == content_hash
        assert headers["ETag"] == f'"{content_hash}"'
        profile = AllocationProfile.from_json(body)
        assert profile.workload == "cassandra-wi"
        assert profile_content_hash(profile) == content_hash

    def test_latest_alias_without_suffix(self, store):
        store.put(make_profile())
        with ProfileService(store) as service:
            status, _, _ = get(f"{service.url}/profiles/cassandra-wi")
        assert status == 200

    def test_by_hash_serves_immutable_object(self, store):
        old = store.put(make_profile(gen=1))
        new = store.put(make_profile(gen=2))
        assert old != new
        with ProfileService(store) as service:
            _, _, body = get(f"{service.url}/profiles/by-hash/{old}")
        assert profile_content_hash(AllocationProfile.from_json(body)) == old

    def test_missing_workload_404s_with_json_error(self, store):
        with ProfileService(store) as service:
            code, payload = get_error(f"{service.url}/profiles/nope/latest")
        assert code == 404
        assert "nope" in payload["error"]

    def test_unknown_path_404s(self, store):
        with ProfileService(store) as service:
            code, payload = get_error(f"{service.url}/what/is/this")
        assert code == 404
        assert "error" in payload


class TestMetricsRoute:
    def test_metrics_round_trips_fn_payload(self, store):
        payload = {"cycles": {"cycles_run": 3, "overrun_s_total": 1.5}}
        with ProfileService(store, metrics_fn=lambda: payload) as service:
            status, _, body = get(f"{service.url}/metrics")
        assert status == 200
        assert json.loads(body) == payload

    def test_metrics_defaults_to_empty(self, store):
        with ProfileService(store) as service:
            _, _, body = get(f"{service.url}/metrics")
        assert json.loads(body) == {}


class TestRecordingsRoute:
    def post(self, url: str, body: str):
        request = urllib.request.Request(
            f"{url}/recordings",
            data=body.encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10.0) as response:
                return response.status, json.loads(response.read().decode())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode())

    def test_post_routes_body_to_submit_fn(self, store):
        received = []

        def submit(body: str):
            received.append(body)
            return {"ok": True}

        with ProfileService(store, submit_fn=submit) as service:
            status, payload = self.post(service.url, make_profile().to_json())
        assert status == 200
        assert payload == {"ok": True}
        assert AllocationProfile.from_json(received[0]).workload == "cassandra-wi"

    def test_submit_profile_error_maps_to_400(self, store):
        def submit(_body: str):
            raise ProfileError("recording carries no STTree IR")

        with ProfileService(store, submit_fn=submit) as service:
            status, payload = self.post(service.url, "{}")
        assert status == 400
        assert "STTree" in payload["error"]

    def test_no_submit_fn_is_503(self, store):
        with ProfileService(store) as service:
            status, _ = self.post(service.url, "{}")
        assert status == 503


def raw_post(service: ProfileService, content_length: str, timeout: float = 5.0):
    """POST /recordings over a raw socket with a hand-written
    ``Content-Length`` and no body; returns ``(status, payload)``.

    The server must answer without waiting for the body; a
    ``socket.timeout`` (a test failure) means it blocked.
    """
    request = (
        "POST /recordings HTTP/1.1\r\n"
        f"Host: {service.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
    ).encode("ascii")
    with socket.create_connection((service.host, service.port), timeout) as sock:
        sock.sendall(request)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, "connection closed before a response"
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        while len(body) < int(headers["Content-Length"]):
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-response"
            body += chunk
    return int(lines[0].split(" ", 2)[1]), json.loads(body.decode())


class TestRecordingsContentLength:
    """A declared body length is checked before any of the body is read."""

    @pytest.mark.parametrize(
        "content_length, status",
        [
            ("-1", 400),
            ("99999999999", 413),
            (str(MAX_RECORDING_BYTES + 1), 413),
            ("lots", 400),
        ],
    )
    def test_bad_length_rejected_and_service_survives(
        self, store, content_length, status
    ):
        received = []
        store.put(make_profile())
        with ProfileService(store, submit_fn=received.append) as service:
            got, payload = raw_post(service, content_length)
            assert got == status
            assert "\n" not in payload["error"]
            code, _, _ = get(f"{service.url}/profiles/cassandra-wi/latest")
            assert code == 200
        assert received == []


class TestKeepAlive:
    def test_keepalive_gets_do_not_stall(self, store):
        # Headers and body go out in two writes; with Nagle's algorithm on,
        # each keep-alive response waits ~40 ms for the client's delayed ACK.
        store.put(make_profile())
        with ProfileService(store) as service:
            conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
            try:
                start = time.perf_counter()
                for _ in range(20):
                    conn.request("GET", "/profiles/cassandra-wi/latest")
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                elapsed = time.perf_counter() - start
            finally:
                conn.close()
        assert elapsed < 0.4, f"20 keep-alive GETs took {elapsed:.3f} s"


class TestLifecycle:
    def test_port_zero_binds_ephemeral_port(self, store):
        service = ProfileService(store)
        url = service.start()
        try:
            assert service.port != 0
            assert url.endswith(str(service.port))
        finally:
            service.stop()

    def test_stop_is_idempotent(self, store):
        service = ProfileService(store)
        service.start()
        service.stop()
        service.stop()

    def test_double_start_raises(self, store):
        from repro.errors import ReproError

        with ProfileService(store) as service:
            with pytest.raises(ReproError):
                service.start()
