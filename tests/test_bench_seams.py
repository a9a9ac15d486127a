"""The end-to-end benchmark's tracer still installs on this source tree.

``benchmarks/e2e/bench.py`` times each layer by wrapping ``src`` methods
by name, among them ``VM.allocate_batch``, ``SimHeap.allocate_batch`` and
``Recorder.on_allocation_batch``, which stay only for it.  Renaming or
deleting a wrapped method makes the tracer's install raise, so every
traced benchmark run fails; this test finds that in seconds, where the
benchmark's own contract test takes minutes.  The benchmark files are
only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "bench.py"

#: Wrapped only for the benchmark: nothing under ``src/`` needs them.
KEPT_FOR_TRACER = {
    "VM.allocate_batch",
    "SimHeap.allocate_batch",
    "Recorder.on_allocation_batch",
}


def load_bench():
    spec = importlib.util.spec_from_file_location("e2e_bench_seams", BENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_method():
    bench = load_bench()
    tracer = bench.load_trace_module().Tracer()
    bench.register_serve_layers(tracer)
    bench.register_matrix_layers(tracer)
    targets = {(owner, attr) for owner, attr, _ in tracer._targets}
    assert KEPT_FOR_TRACER <= {f"{o.__name__}.{a}" for o, a in targets}
    before = {(o, a): o.__dict__.get(a) for o, a in targets}
    with tracer:
        assert all(o.__dict__.get(a) is not before[(o, a)] for o, a in targets)
    assert {(o, a): o.__dict__.get(a) for o, a in targets} == before
