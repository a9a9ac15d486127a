"""Daemon smoke: real process, real HTTP, real SIGTERM and SIGINT.

The CI daemon-smoke job runs exactly this file: start ``repro serve`` as
a subprocess, wait for a committed cycle, fetch the latest profile over
HTTP, re-derive the offline profile, assert identical ``@Gen`` targets,
then SIGTERM the daemon and assert a clean exit; and send a terminal's
SIGINT to a two-instance daemon's whole process group mid-cycle, which
must end the daemon and its worker processes without a traceback.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.config import SimConfig
from repro.core.pipeline import POLM2Pipeline
from repro.core.profile import AllocationProfile
from repro.workloads import make_workload

WORKLOAD = "cassandra-wi"
SIM_MS = 600.0
HEAP_BYTES = 16 * 1024 * 1024
YOUNG_BYTES = 2 * 1024 * 1024
STARTUP_TIMEOUT_S = 60.0


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _serve_command(tmp_path, *extra: str) -> list:
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--workloads",
        WORKLOAD,
        "--duration-ms",
        str(SIM_MS),
        "--heap-bytes",
        str(HEAP_BYTES),
        "--young-bytes",
        str(YOUNG_BYTES),
        "--store-dir",
        str(tmp_path / "store"),
        *extra,
    ]


@pytest.fixture
def daemon(tmp_path):
    process = subprocess.Popen(
        _serve_command(tmp_path, "--interval-s", "0.2"),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    try:
        line = process.stdout.readline()
        assert line.startswith("serving on http://"), line
        yield process, line.split()[-1].strip()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


def _group_members(pgid: int) -> list:
    """Pids of the live (not zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        state, _ppid, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _fetch_latest(url: str) -> AllocationProfile:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while True:
        try:
            with urllib.request.urlopen(
                f"{url}/profiles/{WORKLOAD}/latest", timeout=5.0
            ) as response:
                return AllocationProfile.from_json(response.read().decode())
        except urllib.error.HTTPError as exc:
            if exc.code != 404 or time.monotonic() > deadline:
                raise
            time.sleep(0.2)  # first cycle not committed yet


class TestDaemonSmoke:
    def test_serve_fetch_instrument_sigterm(self, daemon):
        process, url = daemon

        served = _fetch_latest(url)
        with urllib.request.urlopen(f"{url}/metrics", timeout=5.0) as r:
            metrics = json.loads(r.read().decode())
        assert metrics["cycles"]["cycles_run"] >= 1

        # Re-instrument offline and compare @Gen targets byte for byte.
        pipeline = POLM2Pipeline(
            lambda: make_workload(WORKLOAD, seed=42),
            config=SimConfig(
                heap_bytes=HEAP_BYTES, young_bytes=YOUNG_BYTES, seed=42
            ),
        )
        offline = pipeline.run_profiling_phase(duration_ms=SIM_MS)
        assert served.alloc_directives  # non-trivial plan
        assert served.alloc_directives == offline.alloc_directives
        assert served.call_directives == offline.call_directives

        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=STARTUP_TIMEOUT_S)
        assert process.returncode == 0, out
        assert "stopped after" in out


def _wait_for_group(pgid: int, size: int) -> None:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while len(_group_members(pgid)) < size:
        assert time.monotonic() < deadline, _group_members(pgid)
        time.sleep(0.01)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process groups from /proc"
)
@pytest.mark.parametrize("moment", ["worker-start-up", "mid-cycle"])
def test_sigint_to_process_group_stops_daemon_and_workers(tmp_path, moment):
    # A terminal's Ctrl-C reaches every process in the foreground group:
    # the daemon and its pool workers.  Only the daemon may act on it,
    # whether the workers are still starting or already simulating.
    process = subprocess.Popen(
        _serve_command(tmp_path, "--instances", "2"),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
        start_new_session=True,
    )
    pgid = process.pid
    try:
        lines = [process.stdout.readline()]
        assert lines[0].startswith("serving on http://"), lines
        if moment == "mid-cycle":
            # Past the first committed cycle the workers are running
            # windows; the signal lands while the next cycles run.
            while not lines[-1].startswith("cycle "):
                lines.append(process.stdout.readline())
                assert lines[-1], lines
        _wait_for_group(pgid, 3)  # the daemon and 2 workers
        os.killpg(pgid, signal.SIGINT)
        out, _ = process.communicate(timeout=STARTUP_TIMEOUT_S)
    finally:
        if process.poll() is None:
            os.killpg(pgid, signal.SIGKILL)
            process.wait(timeout=10.0)
    out = "".join(lines) + out
    assert process.returncode == 0, out
    assert "stopped after" in out
    assert "Traceback" not in out, out
    deadline = time.monotonic() + 5.0
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, _group_members(pgid)
        time.sleep(0.05)
