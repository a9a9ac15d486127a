"""The GraphChi engine: batch loading and vertex-program execution."""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional

from repro.heap.objects import HeapObject
from repro.runtime.thread import SimThread
from repro.runtime.vm import VM
from repro.workloads.graphchi import codemodel as cm
from repro.workloads.graphchi.graph import PowerLawGraph


@dataclasses.dataclass
class EngineParams:
    """Sizing, scaled with the 64 MiB default heap."""

    #: Edge budget per batch (GraphChi's memory-budget interval sizing).
    #: ~230k edges * 16 bytes ≈ 3.5 MiB of edge blocks per batch, plus
    #: vertex/degree/edge-data blocks ≈ 10-12 MiB per loaded batch.
    edges_per_batch: int = 230_000
    #: Bytes of edge storage one edge costs across the three edge arrays.
    bytes_per_edge: int = 16
    #: Vertices processed per engine step (one tick = one step).
    vertices_per_step: int = 192
    #: Vertex-value chunks (long-lived) to allocate at init (~8 MiB; the
    #: partition/shard-index tables add several MiB more).
    value_chunks: int = 256
    #: Message/scratch buffers allocated per step (vertex programs batch
    #: their messaging; one buffer serves many vertices).
    buffers_per_step: int = 4
    #: Probability a step draws a buffer from the shared pool.
    pool_buffer_probability: float = 0.30
    #: Virtual mutator weight of loading one batch (disk read, shard
    #: decompression — hundreds of milliseconds for ~12 MiB).
    load_weight: float = 2000.0
    #: Virtual mutator weight of one processing step (vertex updates are
    #: compute-heavy; GraphChi is throughput- not latency-oriented).
    step_weight: float = 50.0


class GraphEngine:
    """Executes PageRank / Connected Components batch by batch."""

    def __init__(
        self,
        vm: VM,
        thread: SimThread,
        graph: PowerLawGraph,
        algorithm: str,
        params: EngineParams,
        seed: int,
    ) -> None:
        if algorithm not in ("pr", "cc"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.vm = vm
        self.thread = thread
        self.graph = graph
        self.algorithm = algorithm
        self.params = params
        self.rng = random.Random(seed)
        self.algo_class = (
            cm.PAGERANK if algorithm == "pr" else cm.CONNECTED_COMPONENTS
        )
        self.update_call_line = (
            cm.L_RUN_CALL_UPDATE_PR if algorithm == "pr" else cm.L_RUN_CALL_UPDATE_CC
        )
        self.engine_root = vm.allocate_anonymous(64)
        vm.roots.pin("graphchi.engine", self.engine_root)
        self.values_holder: Optional[HeapObject] = None
        self.batch_holder: Optional[HeapObject] = None
        self.batches = graph.batch_slices(params.edges_per_batch)
        #: Edges in each batch, summed once here rather than per load.
        degrees = graph.degrees
        self.batch_edges = [sum(degrees[b.start : b.stop]) for b in self.batches]
        self.batch_index = 0
        self.iteration = 0
        self.vertices_processed = 0
        self._cursor = 0  # vertex offset within the current batch
        self._batch_loaded = False
        #: CC converges: per-iteration fraction of vertices still active.
        self._cc_active_fraction = 1.0
        self.batches_loaded = 0
        self.flush_listeners: List = []

    # -- initialization (long-lived vertex values) ------------------------------------

    def init_vertex_values(self) -> None:
        """Allocate vertex values + shard index — live for the whole run."""
        thread = self.thread
        heap = self.vm.heap
        holder = self.vm.allocate_anonymous(64)
        heap.write_ref(self.engine_root, holder)
        with thread.call(cm.L_RUN_CALL_INIT, cm.VERTEX_DATA, "init"):
            thread.alloc_batch(
                cm.L_INIT_ALLOC_VALUES,
                count=self.params.value_chunks,
                link_from=holder,
            )
            # One partition/index table per interval (GraphChi keeps the
            # shard indexes resident for the whole computation).
            thread.alloc_batch(
                cm.L_INIT_ALLOC_PARTITIONS,
                count=max(16, len(self.batches)),
                link_from=holder,
            )
        self.values_holder = holder

    # -- engine stepping --------------------------------------------------------------

    def step(self) -> int:
        """Advance the engine by one unit of work; returns ops performed.

        A step either loads the next batch (one pause-free bulk of block
        allocations) or processes a chunk of vertices in the loaded batch.
        """
        if self.values_holder is None:
            self.init_vertex_values()
            return 1
        if not self._batch_loaded:
            self._load_batch()
            return 1
        return self._process_chunk()

    def _load_batch(self) -> None:
        batch = self.batches[self.batch_index]
        edges = self.batch_edges[self.batch_index]
        thread = self.thread
        heap = self.vm.heap
        holder = self.vm.allocate_anonymous(64)
        heap.write_ref(self.engine_root, holder)
        with thread.call(cm.L_RUN_CALL_LOAD, cm.SHARD, "loadBatch"):
            vertex_blocks = max(1, len(batch) * 24 // cm.SIZE_VERTEX_BLOCK)
            thread.alloc_batch(
                cm.L_LOAD_ALLOC_VERTEX_BLOCK,
                count=vertex_blocks,
                link_from=holder,
            )
            heap.write_ref(
                holder, thread.alloc(cm.L_LOAD_ALLOC_VERTEX_INDEX, keep=False)
            )
            degree_blocks = max(1, len(batch) * 8 // cm.SIZE_DEGREE_BLOCK)
            thread.alloc_batch(
                cm.L_LOAD_ALLOC_DEGREE_BLOCK,
                count=degree_blocks,
                link_from=holder,
            )
            edge_bytes = edges * self.params.bytes_per_edge
            edge_blocks = max(1, edge_bytes // (2 * cm.SIZE_EDGE_BLOCK))
            # In/out edge blocks alternate sites each iteration — scalar.
            for _ in range(edge_blocks):
                heap.write_ref(
                    holder, thread.alloc(cm.L_LOAD_ALLOC_IN_EDGES, keep=False)
                )
                heap.write_ref(
                    holder, thread.alloc(cm.L_LOAD_ALLOC_OUT_EDGES, keep=False)
                )
            data_blocks = max(1, edge_bytes // (2 * cm.SIZE_EDGE_DATA))
            thread.alloc_batch(
                cm.L_LOAD_ALLOC_EDGE_DATA, count=data_blocks, link_from=holder
            )
            # Pooled decompression buffers (middle-lived path through the
            # shared BufferPool — one side of the conflict).
            with thread.call(cm.L_LOAD_CALL_BUFFER, cm.BUFFER_POOL, "allocate"):
                thread.alloc_batch(cm.L_POOL_ALLOC, count=4, link_from=holder)
        self.batch_holder = holder
        self._batch_loaded = True
        self._cursor = 0
        self.batches_loaded += 1
        self.vm.tick_op(weight=self.params.load_weight)

    def _process_chunk(self) -> int:
        batch = self.batches[self.batch_index]
        thread = self.thread
        params = self.params
        active_fraction = (
            self._cc_active_fraction if self.algorithm == "cc" else 1.0
        )
        todo = min(params.vertices_per_step, len(batch) - self._cursor)
        with thread.call(self.update_call_line, self.algo_class, "update"):
            processed = int(todo * active_fraction)
            for _ in range(params.buffers_per_step):
                thread.alloc(cm.L_UPDATE_ALLOC_MESSAGES, keep=False)
                thread.alloc(cm.L_UPDATE_ALLOC_SCRATCH, keep=False)
            if self.rng.random() < params.pool_buffer_probability:
                with thread.call(
                    cm.L_UPDATE_CALL_BUFFER, cm.BUFFER_POOL, "allocate"
                ):
                    thread.alloc(cm.L_POOL_ALLOC, keep=False)
            self.vertices_processed += processed
        self._cursor += todo
        self.vm.tick_op(weight=params.step_weight * max(0.2, active_fraction))
        if self._cursor >= len(batch):
            self._finish_batch()
        return 1

    def _finish_batch(self) -> None:
        """Drop the batch (its blocks die together) and advance."""
        if self.batch_holder is not None:
            self.vm.heap.remove_ref(self.engine_root, self.batch_holder)
            self.batch_holder = None
        self._batch_loaded = False
        self.batch_index += 1
        for listener in self.flush_listeners:
            listener()
        if self.batch_index >= len(self.batches):
            self.batch_index = 0
            self.iteration += 1
            if self.algorithm == "cc":
                # Label propagation converges geometrically.
                self._cc_active_fraction = max(
                    0.15, self._cc_active_fraction * 0.55
                )
