"""ServeDaemon: merge-and-commit cycles, crash-safe resume, HTTP parity.

Pins the PR's acceptance criteria: a profile fetched over HTTP from a
completed daemon cycle instruments byte-identically to the offline
ProfileBuilder path, profiles from ≥3 VM instances merge into one STTree
whose decisions match a pooled single-VM profile, and a killed daemon
resumes from its persisted cycle state without re-merging committed
cycles.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import statistics
import threading
import time
import urllib.request

import pytest

from repro.config import SimConfig
from repro.core.pipeline import POLM2Pipeline
from repro.core.profile import AllocationProfile
from repro.core.profilestore import ProfileStore, profile_content_hash
from repro.core.sttree import STTree
from repro.serve import daemon as daemon_module
from repro.serve.daemon import STATE_FILE, ServeConfig, ServeDaemon
from repro.serve.cycle import STAGE_PROFILE, ProfilingCycleEngine
from repro.workloads import make_workload

WORKLOAD = "cassandra-wi"
SIM_MS = 600.0
# A reduced heap forces several GC cycles per window, so the short test
# cycles still observe promotion and produce non-trivial @Gen plans.
HEAP_BYTES = 16 * 1024 * 1024
YOUNG_BYTES = 2 * 1024 * 1024


def config(tmp_path, **kwargs) -> ServeConfig:
    defaults = dict(
        workloads=[WORKLOAD],
        instances=1,
        seed=42,
        sim_duration_ms=SIM_MS,
        cycle_budget_s=60.0,
        store_dir=str(tmp_path / "store"),
        heap_bytes=HEAP_BYTES,
        young_bytes=YOUNG_BYTES,
    )
    defaults.update(kwargs)
    return ServeConfig(**defaults)


@pytest.fixture
def make_daemon():
    """Builds daemons and closes each one after the test, so no idle
    worker process outlives it."""
    daemons = []

    def make(cfg: ServeConfig, **kwargs) -> ServeDaemon:
        daemon = ServeDaemon(cfg, **kwargs)
        daemons.append(daemon)
        return daemon

    yield make
    for daemon in daemons:
        daemon.close()


def sim_config(seed: int) -> SimConfig:
    return SimConfig(heap_bytes=HEAP_BYTES, young_bytes=YOUNG_BYTES, seed=seed)


def offline_profile(seed: int = 42, duration_ms: float = SIM_MS) -> AllocationProfile:
    pipeline = POLM2Pipeline(
        lambda: make_workload(WORKLOAD, seed=seed), config=sim_config(seed)
    )
    return pipeline.run_profiling_phase(duration_ms=duration_ms)


class TestCycleCommit:
    def test_round_commits_latest_profile(self, tmp_path, make_daemon):
        daemon = make_daemon(config(tmp_path))
        reports = daemon.run_round()
        assert len(reports) == 1 and reports[0].completed
        store = ProfileStore(str(tmp_path / "store"))
        latest = store.load_latest(WORKLOAD)
        assert latest.workload == WORKLOAD
        assert latest.metadata["source"] == "repro-serve"

    def test_repeat_cycles_are_idempotent_commits(self, tmp_path, make_daemon):
        # Same seed, same workload: every cycle analyzes to the same
        # tree, so re-merging never moves the latest pointer.
        daemon = make_daemon(config(tmp_path))
        daemon.run_round()
        first = daemon.store.latest_hash(WORKLOAD)
        daemon.run_round()
        assert daemon.store.latest_hash(WORKLOAD) == first
        assert len(daemon.store.object_hashes()) == 1

    def test_truncated_cycle_commits_nothing(self, tmp_path, make_daemon):
        class DeadClock:
            """Monotonic clock so slow every budget check fails."""

            def __init__(self) -> None:
                self.now = 0.0

            def __call__(self) -> float:
                self.now += 1_000.0
                return self.now

        daemon = make_daemon(config(tmp_path), clock=DeadClock())
        (report,) = daemon.run_round()
        assert report.truncated
        assert daemon.store.latest_hash(WORKLOAD) is None
        assert daemon.metrics()["cycles"]["cycles_truncated"] == 1


class TestHttpParity:
    def test_served_profile_instruments_identically_to_offline(
        self, tmp_path, make_daemon
    ):
        # The acceptance criterion: fetch the profile over HTTP after
        # one daemon cycle, and its @Gen / setGeneration directives are
        # byte-identical to the offline ProfileBuilder path.
        daemon = make_daemon(config(tmp_path))
        daemon.run_round()
        url = daemon.start_service()
        try:
            with urllib.request.urlopen(
                f"{url}/profiles/{WORKLOAD}/latest", timeout=10.0
            ) as response:
                served = AllocationProfile.from_json(response.read().decode())
        finally:
            daemon.stop_service()
        offline = offline_profile()
        assert served.sttree.digest() == offline.sttree.digest()
        assert served.alloc_directives  # non-trivial: promotion seen
        assert served.alloc_directives == offline.alloc_directives
        assert served.call_directives == offline.call_directives

    def test_metrics_expose_budget_and_vm_telemetry(self, tmp_path, make_daemon):
        daemon = make_daemon(config(tmp_path))
        daemon.run_round()
        url = daemon.start_service()
        try:
            with urllib.request.urlopen(f"{url}/metrics", timeout=10.0) as r:
                metrics = json.loads(r.read().decode())
        finally:
            daemon.stop_service()
        assert metrics["cycles"]["cycles_run"] == 1
        assert metrics["cycles"]["cycles_truncated"] == 0
        assert metrics["cycles"]["overrun_s_total"] == 0.0
        assert metrics["service"]["cycle_budget_s"] == 60.0
        assert metrics["profiles"][WORKLOAD]["cycles_committed"] == 1
        assert metrics["profiles"][WORKLOAD]["latest_hash"] is not None
        assert metrics["vm_telemetry"]  # TelemetryAgent counters present

    def test_post_recording_merges_into_latest(self, tmp_path, make_daemon):
        daemon = make_daemon(config(tmp_path))
        url = daemon.start_service()
        try:
            body = offline_profile().to_json().encode()
            request = urllib.request.Request(
                f"{url}/recordings", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=10.0) as response:
                payload = json.loads(response.read().decode())
        finally:
            daemon.stop_service()
        assert payload["workload"] == WORKLOAD
        assert payload["latest_hash"] == daemon.store.latest_hash(WORKLOAD)
        assert daemon.metrics()["cycles"]["recordings_received"] == 1


class TestMultiVMMerge:
    def test_three_instances_merge_matches_pooled_single_vm(
        self, tmp_path, make_daemon
    ):
        # ≥3 concurrently-simulated VM instances of the same workload
        # (seeds 42/43/44) merge into one STTree whose instrumentation
        # decisions match a single profile over the pooled recording.
        daemon = make_daemon(config(tmp_path, instances=3))
        reports = daemon.run_round()
        assert [r.seed for r in reports] == [42, 43, 44]
        merged = daemon.store.load_latest(WORKLOAD).sttree

        pooled = STTree()
        for seed in (42, 43, 44):
            engine = ProfilingCycleEngine(
                WORKLOAD,
                seed=seed,
                config=sim_config(seed),
                sim_duration_ms=SIM_MS,
                budget_s=60.0,
            )
            for leaf in engine.run_cycle().tree.leaves:
                pooled.insert(leaf.path(), leaf.target_gen, leaf.object_count)

        merged_plan = merged.instrumentation_plan()
        pooled_plan = pooled.instrumentation_plan()
        assert merged_plan.annotate_sites  # non-trivial: promotion seen
        assert sorted(merged_plan.annotate_sites) == sorted(
            pooled_plan.annotate_sites
        )
        assert merged_plan.call_directives == pooled_plan.call_directives
        assert merged_plan.alloc_brackets == pooled_plan.alloc_brackets


class TestCrashSafety:
    def test_state_file_written_atomically_per_round(self, tmp_path, make_daemon):
        daemon = make_daemon(config(tmp_path))
        daemon.run_round()
        state_path = os.path.join(str(tmp_path / "store"), STATE_FILE)
        state = json.load(open(state_path))
        assert state["workloads"][WORKLOAD]["cycles_committed"] == 1
        assert (
            state["workloads"][WORKLOAD]["latest_hash"]
            == daemon.store.latest_hash(WORKLOAD)
        )
        # No leftover temp files from the atomic-write pattern.
        leftovers = [
            name
            for name in os.listdir(str(tmp_path / "store"))
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_killed_daemon_resumes_without_remerging(self, tmp_path, make_daemon):
        first = make_daemon(config(tmp_path))
        first.run_round()
        first.run_round()
        committed_hash = first.store.latest_hash(WORKLOAD)
        # A new incarnation (the old one is simply abandoned, as after a
        # kill) picks up the committed state: cycle indices continue and
        # the latest pointer is untouched until a new cycle commits.
        second = make_daemon(config(tmp_path))
        assert second.cycles_committed[WORKLOAD] == 2
        (report,) = second.run_round()
        assert report.index == 2
        assert second.store.latest_hash(WORKLOAD) == committed_hash
        assert second.metrics()["cycles"]["cycles_run"] == 3  # 2 restored + 1

    def test_resume_reloads_merge_accumulator_from_store(self, tmp_path, make_daemon):
        first = make_daemon(config(tmp_path))
        first.run_round()
        second = make_daemon(config(tmp_path))
        tree = second._latest_tree[WORKLOAD]
        assert tree.digest() == profile_content_hash(
            second.store.load_latest(WORKLOAD)
        )

    def test_corrupt_state_file_is_a_one_line_error(self, tmp_path, make_daemon):
        from repro.errors import ProfileFormatError

        cfg = config(tmp_path)
        make_daemon(cfg).run_round()
        state_path = os.path.join(cfg.store_dir, STATE_FILE)
        open(state_path, "w").write("{not json")
        with pytest.raises(ProfileFormatError) as excinfo:
            make_daemon(cfg)
        assert state_path in str(excinfo.value)


class TestDriveLoop:
    def test_run_respects_max_rounds_and_stop(self, tmp_path, make_daemon):
        daemon = make_daemon(config(tmp_path))
        assert daemon.run(max_rounds=2, serve_http=False) == 2
        daemon.request_stop()
        assert daemon.run(max_rounds=5, serve_http=False) == 0

    def test_run_starts_and_stops_http(self, tmp_path, make_daemon):
        daemon = make_daemon(config(tmp_path))
        daemon.run(max_rounds=1)
        assert daemon.service is None  # stopped on exit


class TestSubmissionDuringCycle:
    def test_submission_between_merge_and_commit_is_kept(
        self, tmp_path, make_daemon
    ):
        # A POST /recordings that commits between a cycle's merge stage
        # and its commit stage must survive that commit: the latest is
        # the join of both, not the cycle's stale merge.
        daemon = make_daemon(config(tmp_path))
        cycle_tree = offline_profile(seed=42).sttree
        submitted = offline_profile(seed=43)
        stages = dict(daemon.engines[WORKLOAD][0].post_stages)
        stages["merge"](cycle_tree)
        daemon.submit_recording(submitted.to_json())
        stages["commit"](cycle_tree)
        expected = STTree.merge_all([cycle_tree, submitted.sttree]).digest()
        assert expected != cycle_tree.digest()
        assert daemon.store.latest_hash(WORKLOAD) == expected


def _wait_for_workers(timeout_s: float = 30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()
        if children:
            return children
        time.sleep(0.01)
    raise AssertionError(f"no worker process appeared within {timeout_s} s")


class TestWorkerPool:
    def test_close_leaves_no_worker_process(self, tmp_path, make_daemon):
        daemon = make_daemon(config(tmp_path, instances=2))
        daemon.run_round()
        assert multiprocessing.active_children()  # the pool outlives a round
        daemon.close()
        assert multiprocessing.active_children() == []

    def test_run_leaves_no_worker_process(self, tmp_path, make_daemon):
        daemon = make_daemon(config(tmp_path, instances=2))
        assert daemon.run(max_rounds=1, serve_http=False) == 1
        assert multiprocessing.active_children() == []

    def test_pool_holds_one_worker_per_usable_cpu_at_most(
        self, tmp_path, make_daemon, monkeypatch
    ):
        monkeypatch.setattr(daemon_module, "usable_cpus", lambda: 2)
        daemon = make_daemon(config(tmp_path, instances=3, sim_duration_ms=200.0))
        reports = daemon.run_round()
        assert [r.completed for r in reports] == [True, True, True]
        assert len(multiprocessing.active_children()) == 2

    def test_stop_mid_round_commits_only_the_current_cycle(
        self, tmp_path, make_daemon
    ):
        # A stop requested while the first cycle commits ends the round
        # there: the second window is discarded, the pool shut down.
        daemon = make_daemon(config(tmp_path, instances=2))
        first = daemon.engines[WORKLOAD][0]
        first.post_stages.append(("stop", lambda _tree: daemon.request_stop()))
        reports = []
        assert daemon.run(max_rounds=3, on_report=reports.append) == 1
        assert [r.seed for r in reports] == [42]
        assert daemon.metrics()["cycles"]["cycles_run"] == 1
        assert daemon.store.latest_hash(WORKLOAD) == reports[0].tree.digest()
        assert multiprocessing.active_children() == []

    def test_killed_worker_truncates_its_cycle(self, tmp_path, make_daemon):
        # SIGKILL the worker while its window runs: the cycle becomes a
        # truncated report with nothing committed, and the next round
        # builds a fresh pool and completes.
        daemon = make_daemon(config(tmp_path, sim_duration_ms=3_000.0))
        outcome = {}

        def run_round() -> None:
            try:
                outcome["reports"] = daemon.run_round()
            except BaseException as exc:  # re-raised below, in the test
                outcome["error"] = exc

        thread = threading.Thread(target=run_round)
        thread.start()
        try:
            (worker,) = _wait_for_workers()
            time.sleep(0.3)
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        (report,) = outcome["reports"]
        assert report.truncated
        assert report.truncated_after == STAGE_PROFILE
        assert report.tree is None
        assert daemon.store.latest_hash(WORKLOAD) is None

        (report,) = daemon.run_round()
        assert report.completed
        assert daemon.store.latest_hash(WORKLOAD) == report.tree.digest()


def _timed_get(url: str) -> float:
    start = time.perf_counter()
    with urllib.request.urlopen(url, timeout=10.0) as response:
        response.read()
    return (time.perf_counter() - start) * 1000.0


def _post(url: str, body: str) -> None:
    request = urllib.request.Request(
        url,
        data=body.encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        assert response.status == 200


class TestServingWhileProfiling:
    def test_requests_stay_fast_while_a_round_runs(self, tmp_path, make_daemon):
        # GETs made while the round's windows simulate must answer
        # nearly as fast as idle GETs.  Two POSTs of other profiles land
        # during the round; the final latest must be the join of every
        # cycle tree and both submissions, whatever order they landed
        # in — a lost update under the daemon lock would drop one.
        daemon = make_daemon(config(tmp_path, instances=2, sim_duration_ms=1_500.0))
        url = daemon.start_service()
        latest_url = f"{url}/profiles/{WORKLOAD}/latest"
        warm = daemon.run_round()
        assert all(r.completed for r in warm)
        idle = [_timed_get(latest_url) for _ in range(10)]
        submissions = [offline_profile(seed, 1_500.0) for seed in (44, 45)]
        to_post = list(submissions)

        outcome = {}

        def run_round() -> None:
            try:
                outcome["reports"] = daemon.run_round()
            except BaseException as exc:  # re-raised below, in the test
                outcome["error"] = exc

        thread = threading.Thread(target=run_round)
        busy = []
        deadline = time.monotonic() + 60.0
        thread.start()
        try:
            while thread.is_alive() and time.monotonic() < deadline:
                if len(busy) in (2, 5) and to_post:
                    _post(f"{url}/recordings", to_post.pop(0).to_json())
                busy.append(_timed_get(latest_url))
                time.sleep(0.02)
        finally:
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert len(busy) >= 5, busy
        idle_ms = statistics.median(idle)
        busy_ms = statistics.median(busy)
        assert busy_ms <= 4 * idle_ms + 10.0, (busy_ms, idle_ms, busy)
        assert not to_post, "the round ended before both POSTs"

        reports = outcome["reports"]
        assert all(r.completed for r in reports)
        trees = [r.tree for r in warm + reports] + [p.sttree for p in submissions]
        expected = STTree.merge_all(trees).digest()
        assert daemon.store.latest_hash(WORKLOAD) == expected
