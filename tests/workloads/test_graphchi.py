"""Unit tests for the mini GraphChi engine and graph generator."""

import random

import pytest

from repro.config import SimConfig
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.workloads.graphchi.engine import EngineParams
from repro.workloads.graphchi.graph import PowerLawGraph
from repro.workloads.graphchi.workload import GraphChiWorkload


def small_graph() -> PowerLawGraph:
    return PowerLawGraph(vertex_count=3000, mean_degree=10, seed=3)


def small_params() -> EngineParams:
    return EngineParams(
        edges_per_batch=6000,
        value_chunks=8,
        load_weight=10.0,
        step_weight=2.0,
    )


from repro.workloads.graphchi import codemodel as gcm


class SteppableEngine:
    """Wraps the engine so unit tests can step under the run frame."""

    def __init__(self, engine):
        self._engine = engine

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def step(self):
        with self._engine.thread.entry(gcm.ENGINE, "run"):
            return self._engine.step()


@pytest.fixture
def engine():
    vm = VM(SimConfig.small(), collector=NG2CCollector())
    workload = GraphChiWorkload(
        algorithm="pr", params=small_params(), graph=small_graph(), seed=3
    )
    for model in workload.class_models():
        vm.classloader.load(model)
    workload.setup(vm)
    return workload, SteppableEngine(workload.engine), vm


class TestPowerLawGraph:
    def test_degree_sequence_properties(self):
        graph = small_graph()
        assert len(graph.degrees) == 3000
        assert all(d >= 1 for d in graph.degrees)
        mean = graph.edge_count / graph.vertex_count
        assert 5 <= mean <= 20

    def test_heavy_tail(self):
        graph = small_graph()
        top = sorted(graph.degrees, reverse=True)
        assert top[0] > 5 * (graph.edge_count / graph.vertex_count)

    def test_batches_cover_all_vertices(self):
        graph = small_graph()
        slices = graph.batch_slices(edge_budget=5000)
        covered = [v for s in slices for v in s]
        assert covered == list(range(graph.vertex_count))

    def test_batches_respect_budget_roughly(self):
        graph = small_graph()
        budget = 5000
        for batch in graph.batch_slices(budget)[:-1]:
            edges = sum(graph.degrees[v] for v in batch)
            max_degree = max(graph.degrees)
            assert edges <= budget + max_degree

    def test_deterministic(self):
        a = PowerLawGraph(vertex_count=100, seed=5)
        b = PowerLawGraph(vertex_count=100, seed=5)
        assert a.degrees == b.degrees

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PowerLawGraph(vertex_count=0)
        with pytest.raises(ValueError):
            small_graph().batch_slices(0)


def reference_degrees(vertex_count, mean_degree, alpha, seed):
    """The degree sequence through ``Random.paretovariate``."""
    rng = random.Random(seed)
    raw = [rng.paretovariate(alpha) for _ in range(vertex_count)]
    scale = mean_degree * vertex_count / sum(raw)
    return [max(1, int(d * scale)) for d in raw]


class TestAgainstReferenceLoops:
    @pytest.mark.parametrize(
        "vertex_count, mean_degree, seed",
        [(200_000, 18.0, 42), (200_000, 18.0, 7), (3000, 10, 3)],
        ids=["default-seed-42", "default-seed-7", "small"],
    )
    def test_degrees_match_paretovariate(self, vertex_count, mean_degree, seed):
        graph = PowerLawGraph(vertex_count, mean_degree, seed=seed)
        assert graph.degrees == reference_degrees(
            vertex_count, mean_degree, 1.8, seed
        )

    def test_batch_edges_match_generator_sum(self, engine):
        _, eng, _ = engine
        graph = eng.graph
        assert len(eng.batch_edges) == len(eng.batches) > 1
        for batch, edges in zip(eng.batches, eng.batch_edges):
            assert edges == sum(graph.degrees[v] for v in batch)


class TestEngineLifecycle:
    def test_first_step_initializes_values(self, engine):
        _, eng, vm = engine
        eng.step()
        assert eng.values_holder is not None
        assert len(eng.values_holder.refs) > small_params().value_chunks

    def test_second_step_loads_batch(self, engine):
        _, eng, vm = engine
        eng.step()
        eng.step()
        assert eng.batch_holder is not None
        assert len(eng.batch_holder.refs) > 0

    def test_batch_dies_at_completion(self, engine):
        _, eng, vm = engine
        eng.step()
        eng.step()
        block_ids = [o.object_id for o in eng.batch_holder.refs]
        guard = 0
        while eng.batch_index == 0 and eng.iteration == 0:
            eng.step()
            guard += 1
            assert guard < 10_000
        live = {o.object_id for o in vm.heap.trace_live(vm.iter_roots())}
        assert not (set(block_ids) & live)

    def test_vertex_values_survive_batches(self, engine):
        _, eng, vm = engine
        for _ in range(400):
            eng.step()
        live = {o.object_id for o in vm.heap.trace_live(vm.iter_roots())}
        assert all(ref.object_id in live for ref in eng.values_holder.refs)

    def test_iterations_advance(self, engine):
        _, eng, vm = engine
        guard = 0
        while eng.iteration == 0:
            eng.step()
            guard += 1
            assert guard < 50_000
        assert eng.batches_loaded == len(eng.batches)


class TestConnectedComponentsConvergence:
    def test_active_fraction_decays(self):
        vm = VM(SimConfig.small(), collector=NG2CCollector())
        workload = GraphChiWorkload(
            algorithm="cc", params=small_params(), graph=small_graph(), seed=3
        )
        for model in workload.class_models():
            vm.classloader.load(model)
        workload.setup(vm)
        eng = SteppableEngine(workload.engine)
        guard = 0
        while eng.iteration < 2:
            eng.step()
            guard += 1
            assert guard < 100_000
        assert eng._cc_active_fraction < 1.0


class TestDriver:
    def test_tick_returns_steps(self, engine):
        workload, _, vm = engine
        assert workload.tick() > 0

    def test_invalid_algorithm(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            GraphChiWorkload(algorithm="bfs")
