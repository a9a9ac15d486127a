"""Binary snapshot-store round trip on the golden scenarios.

Each gc-loop parity scenario's snapshots are saved as ``snapshots.bin``
with ``binstore.write_store``, streamed back with ``binstore.iter_binary``,
and must yield the same snapshots and analyze to the same STTree digest
the streaming analyzer produced during the run.
"""

import hashlib
import json
import os

import pytest

from repro.core.stages import ProfileBuilder
from repro.snapshot.binstore import iter_binary, write_store
from tests.integration.parity_harness import SCENARIOS, _record_scenario


def _digest_snapshots(snapshots):
    payload = [
        {
            "seq": snap.seq,
            "time_ms": snap.time_ms,
            "engine": snap.engine,
            "pages_written": snap.pages_written,
            "size_bytes": snap.size_bytes,
            "duration_us": snap.duration_us,
            "incremental": snap.incremental,
            "live": snap.live_object_ids.to_list(),
        }
        for snap in snapshots
    ]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(
    scope="module",
    params=SCENARIOS,
    ids=["-".join(map(str, s[:2])) for s in SCENARIOS],
)
def recording(request):
    """One scenario's ``(recorder, snapshots, sttree)``, recorded once."""
    scenario = request.param
    _, recorder, snapshots, sttree = _record_scenario(
        *scenario[:4], min(scenario[4], 900.0)
    )
    return recorder, snapshots, sttree


def test_binary_round_trip_identical(recording, tmp_path):
    _, snapshots, _ = recording
    path = str(tmp_path / "snapshots.bin")
    write_store(path, snapshots)
    loaded = list(iter_binary(path))
    assert _digest_snapshots(loaded) == _digest_snapshots(snapshots)


def test_reread_profile_identical(recording, tmp_path):
    recorder, snapshots, sttree = recording
    path = str(tmp_path / "snapshots.bin")
    write_store(path, snapshots)
    builder = ProfileBuilder(recorder.records)
    for snapshot in iter_binary(path):
        builder.feed_snapshot(snapshot)
    assert builder.analyzer.finish().digest() == sttree.digest()


def test_binary_is_smaller_on_disk(tmp_path):
    # Against the same snapshots rendered as JSON lines, one object per
    # snapshot.
    _, _, snapshots, _ = _record_scenario(*SCENARIOS[0][:4], 900.0)
    binary = str(tmp_path / "snapshots.bin")
    write_store(binary, snapshots)
    text_bytes = sum(
        len(json.dumps(snapshot.to_dict())) + 1 for snapshot in snapshots
    )
    assert os.path.getsize(binary) < text_bytes
