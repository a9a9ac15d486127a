"""Contract test of the end-to-end benchmark, at tiny durations.

Run from the repository root (about three minutes on 2 cores)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench.py -q

It checks the metric catalogue in BENCHMARK.json, the last-line contract
of a held-out ``--seed 7`` run of every workload, that per-layer counts
repeat exactly across two same-seed traced runs, that the wrapped layers
cover at least 90% of the traced wall time, that no span's self time
exceeds its busy time, and that tracing leaves no wrapper behind.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
TINY = ["--seconds", "1"]


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = load("e2e_bench_under_test", BENCH)


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH), *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    """Two traced runs of all five workloads at the same seed."""
    outs = []
    for index in range(2):
        out = tmp_path_factory.mktemp("traced") / f"run{index}.json"
        proc = run("--trace", "1", "--seed", "42", "--out", str(out), *TINY)
        assert proc.returncode == 0, proc.stderr
        outs.append({r["workload"]: r for r in json.loads(out.read_text())["runs"]})
    traces = {
        name: json.loads((bench.RESULTS / f"trace_{name}.json").read_text())
        for name in bench.WORKLOADS
    }
    return outs, traces


def test_spec_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    entries = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries] + [w["name"] for w in SPEC["workloads"]]
    assert len(set(e["name"] for e in entries)) == len(entries)
    for name in names:
        assert NAME.match(name), name
    for entry in entries:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"]
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert len(SPEC["per_layer"]) <= 128 and len(SPEC["end_to_end"]) <= 16


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_held_out_seed_prints_the_contract_line(workload):
    proc = run("--workload", workload, "--seed", "7", "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0, proc.stdout
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [e["name"] for e in SPEC["end_to_end"]]
    for entry in SPEC["end_to_end"]:
        metric = line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0, entry["name"]


def test_traced_runs_emit_every_per_layer_metric(traced_pair):
    outs, _ = traced_pair
    for result in outs[0].values():
        assert result["correct"], result["problems"]
        line = bench.contract_line(result, SPEC, True)
        assert [(name, m["unit"]) for name, m in line["metrics"].items()] == [
            (e["name"], e["unit"]) for e in SPEC["per_layer"]
        ]
        for name in ("trace.overhead_pct", "trace.wrapper_ns", "trace.coverage_pct"):
            assert name in result["metrics"], (result["workload"], name)
        # The wrapped layers account for at least 90% of the traced wall time.
        assert result["metrics"]["trace.coverage_pct"] >= 90.0, result["workload"]
    # A name no workload measures is a typo between BENCHMARK.json and
    # the code.
    for entry in SPEC["per_layer"]:
        assert any(entry["name"] in r["metrics"] for r in outs[0].values()), entry


def test_per_layer_counts_repeat_exactly(traced_pair):
    outs, _ = traced_pair
    counted = [e["name"] for e in SPEC["per_layer"] if e["unit"] in bench.EXACT_UNITS]
    for workload in bench.WORKLOADS:
        first, second = outs[0][workload], outs[1][workload]
        assert first["output_digest"] == second["output_digest"]
        for name in counted:
            assert first["metrics"].get(name) == second["metrics"].get(name), (
                workload, name
            )


def test_self_never_exceeds_busy(traced_pair):
    outs, traces = traced_pair
    for trace in traces.values():
        for repetition in trace["repetitions"]:
            for span in repetition["spans"]:
                assert 0 <= span["self_s"] <= span["busy_s"] + 1e-9, span
            for row in repetition["counters"]:
                assert row["self_s"] <= row["busy_s"] + 1e-9, row
    for result in outs[0].values():
        metrics = result["metrics"]
        for name in metrics:
            if name.endswith(".self_s") and name[:-7] + ".busy_s" in metrics:
                assert metrics[name] <= metrics[name[:-7] + ".busy_s"] + 1e-9, name


def test_tracing_leaves_no_wrapper_installed():
    bench.import_repro()
    tracing = bench.load_trace_module()
    tracer = tracing.Tracer()
    bench.register_serve_layers(tracer)
    bench.register_matrix_layers(tracer)
    targets = {(owner, attr) for owner, attr, _ in tracer._targets}
    before = {(o, a): o.__dict__.get(a) for o, a in targets}
    with tracer:
        assert all(o.__dict__.get(a) is not before[(o, a)] for o, a in targets)
    assert {(o, a): o.__dict__.get(a) for o, a in targets} == before

    # A real traced repetition, and one that raises, restore them too.
    workload = bench.make("graphchi-pr-g1-x10", 42)
    reps = workload.run(0.0, True, lambda: tracing.Tracer(0.0))
    assert any(rep.traced and rep.layers["gc.young.calls"] for rep in reps)
    failing = tracing.Tracer()
    bench.register_sim_layers(failing)
    with pytest.raises(RuntimeError):
        with failing:
            raise RuntimeError("boom")
    assert {(o, a): o.__dict__.get(a) for o, a in targets} == before


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    for name in ("bench.py", "trace.py"):
        (tmp_path / "benchmarks" / "e2e" / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "matrix"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
