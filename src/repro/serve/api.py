"""The profile service's HTTP surface (stdlib ``http.server``, no deps).

Production-phase VMs fetch their profile instead of reading a file:

* ``GET /profiles/<workload>/latest`` — the profile the workload's
  ``latest`` pointer names; the content hash travels in the ``ETag``
  and ``X-Profile-Hash`` headers.
* ``GET /profiles/<workload>`` — alias for ``/latest``.
* ``GET /profiles/by-hash/<sha256>`` — one immutable content-addressed
  object (safe to cache forever).
* ``POST /recordings`` — agents ship a completed cycle's output (an
  allocation-profile JSON document); the daemon merges it into the
  workload's served profile and responds with the new latest hash.
* ``GET /metrics`` — TelemetryAgent counters plus cycle-budget overrun
  statistics, as JSON.

Errors are JSON (``{"error": ...}``) with conventional status codes.
The server is a ``ThreadingHTTPServer`` running on a daemon thread;
``port=0`` binds an ephemeral port (tests).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional

from repro.core.profile import AllocationProfile
from repro.core.profilestore import ProfileStore
from repro.errors import ProfileError, ReproError

#: ``POST /recordings`` handler: receives the raw profile JSON an agent
#: shipped, returns a response payload (e.g. the new latest hash).
SubmitFn = Callable[[str], Dict[str, object]]

#: Largest ``POST /recordings`` body accepted, in bytes.  Real profiles
#: are a few KiB; a longer declared ``Content-Length`` gets a 413 before
#: any of the body is read.
MAX_RECORDING_BYTES = 8 * 1024 * 1024


class ProfileService:
    """Serves a :class:`ProfileStore` (and daemon telemetry) over HTTP."""

    def __init__(
        self,
        store: ProfileStore,
        metrics_fn: Optional[Callable[[], Dict[str, object]]] = None,
        submit_fn: Optional[SubmitFn] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.store = store
        self.metrics_fn = metrics_fn
        self.submit_fn = submit_fn
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> str:
        """Bind and serve on a background thread; returns the base URL."""
        if self._server is not None:
            raise ReproError("profile service is already running")
        service = self

        class Handler(_ProfileRequestHandler):
            pass

        Handler.service = service
        try:
            self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        except OSError as exc:
            raise ReproError(
                f"cannot bind profile service to {self.host}:{self.port}: {exc}"
            ) from exc
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self.url

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ProfileService":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


class _ProfileRequestHandler(BaseHTTPRequestHandler):
    """Routes one request against the owning :class:`ProfileService`."""

    service: ProfileService  # set on the per-service subclass
    protocol_version = "HTTP/1.1"
    #: ``_send`` writes headers and body separately; with Nagle's
    #: algorithm on, the body waits for the client's delayed ACK of the
    #: headers (about 40 ms per keep-alive response).
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------------

    def log_message(self, *_args) -> None:  # pragma: no cover - silence
        pass

    def _send(
        self,
        status: int,
        payload: str,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = payload.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send(status, json.dumps({"error": message}))

    def _reject_body(self, status: int, message: str) -> None:
        """Answer without reading the request body, then close the
        connection: the unread body would otherwise be parsed as the next
        request."""
        self.close_connection = True
        self._send(
            status,
            json.dumps({"error": message}),
            extra_headers={"Connection": "close"},
        )

    def _send_profile(self, profile: AllocationProfile) -> None:
        from repro.core.profilestore import profile_content_hash

        content_hash = profile_content_hash(profile)
        self._send(
            200,
            profile.to_json(),
            extra_headers={
                "ETag": f'"{content_hash}"',
                "X-Profile-Hash": content_hash,
                "X-Profile-Workload": profile.workload,
            },
        )

    # -- routes --------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        try:
            if parts == ["metrics"]:
                metrics = (
                    self.service.metrics_fn()
                    if self.service.metrics_fn is not None
                    else {}
                )
                self._send(200, json.dumps(metrics, indent=2, sort_keys=True))
                return
            if len(parts) == 3 and parts[:2] == ["profiles", "by-hash"]:
                self._send_profile(self.service.store.load_by_hash(parts[2]))
                return
            if (
                len(parts) in (2, 3)
                and parts[0] == "profiles"
                and (len(parts) == 2 or parts[2] == "latest")
            ):
                self._send_profile(self.service.store.load_latest(parts[1]))
                return
            self._send_error_json(404, f"unknown path {self.path!r}")
        except ProfileError as exc:
            self._send_error_json(404, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if [p for p in self.path.split("/") if p] != ["recordings"]:
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        if self.service.submit_fn is None:
            self._send_error_json(
                503, "this profile service does not accept recordings"
            )
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError as exc:
            self._reject_body(400, f"bad Content-Length: {exc}")
            return
        if length < 0:
            self._reject_body(400, f"bad Content-Length: {length} is negative")
            return
        if length > MAX_RECORDING_BYTES:
            self._reject_body(
                413,
                f"recording of {length} bytes exceeds the "
                f"{MAX_RECORDING_BYTES}-byte limit",
            )
            return
        try:
            body = self.rfile.read(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            self._send_error_json(400, f"unreadable request body: {exc}")
            return
        try:
            response = self.service.submit_fn(body)
        except ProfileError as exc:
            self._send_error_json(400, str(exc))
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            return
        self._send(200, json.dumps(response, sort_keys=True))
