"""Malformed profile documents fail in one line at every boundary.

A profile document enters through ``AllocationProfile.from_json``,
``repro run --profile FILE`` and the profile service's
``POST /recordings``.  Each payload below must raise a one-line
``ProfileFormatError`` there: the CLI exits 2 with one ``error:`` line
and the service answers 400, never a traceback or a 500.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.__main__ import main
from repro.core.profile import AllocationProfile
from repro.core.sttree import STTree
from repro.errors import ProfileFormatError
from repro.serve.daemon import ServeConfig, ServeDaemon

WORKLOAD = "cassandra-wi"


def document(**fields) -> str:
    """A valid v2 profile document with ``fields`` overwritten."""
    tree = STTree.build([((("A", "run", 1), ("L", "alloc", 10)), 1, 5)])
    payload = json.loads(
        AllocationProfile.from_sttree(tree, workload=WORKLOAD).to_json()
    )
    payload.update(fields)
    return json.dumps(payload)


def with_pre_set_gen(value) -> str:
    payload = json.loads(document())
    payload["alloc_directives"][0]["pre_set_gen"] = value
    return json.dumps(payload)


MALFORMED = {
    "array-document": "[]",
    "v1-format": json.dumps(
        {
            "format": "polm2-profile-v1",
            "workload": WORKLOAD,
            "conflicts_detected": 0,
            "alloc_directives": [
                {"class": "A", "method": "m", "line": 3, "pre_set_gen": None}
            ],
            "call_directives": [],
            "metadata": {},
        }
    ),
    "string-conflicts": document(conflicts_detected="many"),
    "list-metadata": document(metadata=["note"]),
    "list-workload": document(workload=[WORKLOAD]),
    "string-pre-set-gen": with_pre_set_gen("2"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_from_json_raises_one_line(name):
    with pytest.raises(ProfileFormatError) as err:
        AllocationProfile.from_json(MALFORMED[name])
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_run_exits_2_with_one_error_line(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED[name])
    code = main(
        [
            "run",
            WORKLOAD,
            "--strategy",
            "polm2",
            "--profile",
            str(path),
            "--duration-ms",
            "100",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def service_url(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("store")
    daemon = ServeDaemon(ServeConfig(workloads=[WORKLOAD], store_dir=str(store_dir)))
    url = daemon.start_service()
    yield url
    daemon.stop_service()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_post_recordings_answers_400(name, service_url):
    request = urllib.request.Request(
        f"{service_url}/recordings",
        data=MALFORMED[name].encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10.0)
    assert err.value.code == 400
    assert "error" in json.loads(err.value.read().decode())


def test_valid_document_still_accepted():
    assert AllocationProfile.from_json(document()).workload == WORKLOAD
