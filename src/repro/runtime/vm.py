"""The VM façade: heap + clock + threads + class loader + collector."""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.config import SimConfig
from repro.errors import OutOfMemoryError, ReproError
from repro.heap.heap import SimHeap
from repro.heap.objects import HeapObject
from repro.runtime.classloader import ClassLoader
from repro.runtime.clock import VirtualClock
from repro.runtime.code import AllocSite, SiteRegistry
from repro.runtime.events import (
    AGENT_HOOKS,
    ALLOCATION,
    CLASS_LOAD,
    SAFEPOINT,
    ClassLoadEvent,
    EventBus,
    SafepointEvent,
)
from repro.runtime.roots import RootRegistry
from repro.runtime.stack import Frame
from repro.runtime.thread import SimThread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gc.base import GenerationalCollector
    from repro.runtime.code import ClassModel

#: Allocation listener: ``(obj, site, stack_trace)`` — the Recorder's hook.
AllocListener = Callable[[HeapObject, AllocSite, tuple], None]


class VM:
    """A simulated JVM instance.

    Wires together the heap, the virtual clock, the class loader (with its
    agent transformers), application threads, the GC root set, and a
    pluggable collector.  Workloads interact with the VM through
    :class:`~repro.runtime.thread.SimThread` (calls + allocations) and
    :meth:`tick_op` (mutator work).
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        collector: Optional["GenerationalCollector"] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.clock = VirtualClock()
        self.heap = SimHeap(self.config)
        self.classloader = ClassLoader()
        self.roots = RootRegistry()
        self.sites = SiteRegistry()
        self.threads: List[SimThread] = []
        #: The typed event bus every agent subscribes through.
        self.events = EventBus()
        #: Hot-path alias of the bus's ALLOCATION subscriber list (the
        #: same list object, mutated in place): ``allocate_at_site`` tests
        #: its emptiness per allocation, and an empty list means no trace
        #: is captured at all — the PR 2 fast-path invariant.
        self._alloc_listeners: List[AllocListener] = self.events.listener_list(
            ALLOCATION
        )
        #: The recorded-allocation trace cache (see :meth:`_recorded_trace`):
        #: ``(caller prefix id, site id) -> (trace, trace id)``, and the
        #: caller-prefix intern table behind those prefix ids.
        self._traces_by_prefix: Dict[Tuple[int, int], Tuple[tuple, int]] = {}
        self._prefix_ids: Dict[tuple, int] = {}
        self._agents: List = []
        self.classloader.on_loaded = self._publish_class_load
        self.ops_completed = 0
        #: Executed ``setGeneration`` API calls (the overhead §4.4's
        #: push-up optimization minimizes; exercised by ablation benches).
        self.set_generation_calls = 0
        self.collector: Optional["GenerationalCollector"] = None
        if collector is not None:
            self.set_collector(collector)

    # -- wiring ---------------------------------------------------------------------

    def set_collector(self, collector: "GenerationalCollector") -> None:
        self.collector = collector
        collector.attach(self)

    def new_thread(self, name: str) -> SimThread:
        thread = SimThread(self, name)
        self.threads.append(thread)
        return thread

    # -- agents -----------------------------------------------------------------------

    def attach_agent(self, agent) -> None:
        """Attach a :class:`~repro.runtime.events.VMAgent` to this VM.

        Runs ``agent.on_attach(vm)`` first (validation — a raise leaves
        the VM untouched), then registers the agent as a class transformer
        if it defines ``transform``, then subscribes every ``on_<event>``
        hook the agent defines.  This is the one seam through which the
        Recorder, Dumper, Instrumenter, telemetry, and any third-party
        profiler reach the VM.
        """
        if agent in self._agents:
            raise ReproError(f"agent {agent!r} is already attached")
        on_attach = getattr(agent, "on_attach", None)
        if callable(on_attach):
            on_attach(self)
        if callable(getattr(agent, "transform", None)):
            self.classloader.add_transformer(agent)
        for kind, hook_name in AGENT_HOOKS:
            hook = getattr(agent, hook_name, None)
            if callable(hook):
                self.events.subscribe(kind, hook)
        self._agents.append(agent)

    def detach_agent(self, agent) -> None:
        """Detach a previously attached agent (symmetric teardown)."""
        if agent not in self._agents:
            raise ReproError(f"agent {agent!r} is not attached")
        self._agents.remove(agent)
        for kind, hook_name in AGENT_HOOKS:
            hook = getattr(agent, hook_name, None)
            if callable(hook):
                self.events.unsubscribe(kind, hook)
        if callable(getattr(agent, "transform", None)):
            self.classloader.remove_transformer(agent)
        on_detach = getattr(agent, "on_detach", None)
        if callable(on_detach):
            on_detach(self)

    @property
    def agents(self) -> List:
        return list(self._agents)

    def safepoint(self, kind: str, source: Optional[str] = None) -> None:
        """Publish a workload-declared safepoint (e.g. a memtable flush)."""
        if self.events.has_listeners(SAFEPOINT):
            self.events.publish(
                SAFEPOINT,
                SafepointEvent(kind=kind, at_ms=self.clock.now_ms, source=source),
            )

    def _publish_class_load(self, class_model: "ClassModel") -> None:
        if self.events.has_listeners(CLASS_LOAD):
            self.events.publish(CLASS_LOAD, ClassLoadEvent(class_model))

    # -- roots ----------------------------------------------------------------------

    def iter_roots(self) -> Iterator[HeapObject]:
        yield from self.roots.iter_static_roots()
        for thread in self.threads:
            yield from thread.iter_roots()

    # -- allocation -----------------------------------------------------------------

    def allocate_at_site(
        self,
        thread: SimThread,
        site: AllocSite,
        size: int,
        pretenure_index: int = 0,
        refs: Sequence[HeapObject] = (),
    ) -> HeapObject:
        """Allocate through a declared allocation site (the normal path)."""
        collector = self.collector
        if collector is None:
            raise OutOfMemoryError("no collector attached to the VM")
        collector.before_allocation(size)
        gen_id = collector.resolve_allocation_gen(pretenure_index)
        site_id = site.cached_site_id
        if site_id == 0:
            site_id = self.sites.site_id(site.location)
            site.cached_site_id = site_id
        trace: tuple = ()
        trace_id = 0
        record_hook = site.record_hook
        if record_hook and self._alloc_listeners:
            # Trace-cache hit: one dict lookup on (caller prefix, site).
            frames = thread.frames
            hit = (
                self._traces_by_prefix.get((frames[-1].prefix_id, site_id))
                if frames
                else None
            )
            if hit is None:
                hit = self._recorded_trace(thread, site_id)
            trace, trace_id = hit
        heap = self.heap
        try:
            # Positional: keywords double this per-object call's cost.
            obj = heap.allocate(size, gen_id, site_id, trace_id, refs)
        except OutOfMemoryError:
            collector.handle_oom()
            obj = heap.allocate(size, gen_id, site_id, trace_id, refs)
        if gen_id != 0:
            # Pretenured allocation takes the non-TLAB slow path.
            self.clock.advance_us(
                self.config.costs.pretenure_alloc_kib_us * (size / 1024.0)
            )
        collector.after_allocation(size, gen_id)
        if record_hook:
            for listener in self._alloc_listeners:
                listener(obj, site, trace)
        return obj

    def _recorded_trace(self, thread: SimThread, site_id: int) -> Tuple[tuple, int]:
        """``(trace, trace_id)`` for a recorded allocation at ``site_id``.

        The trace cache keys on ``(caller prefix id, site id)``: the
        prefix id names the locations of the allocating frame's callers,
        which cannot change while that frame is on the stack (a caller's
        line only moves while it is the top frame), and the innermost
        location is the site's own.  So a key determines the whole trace,
        and the stack is captured and interned once per distinct trace.
        """
        frames = thread.frames
        if not frames:
            return (), self.sites.trace_id(())
        key = (self._prefix_id(frames, len(frames) - 1), site_id)
        hit = self._traces_by_prefix.get(key)
        if hit is None:
            trace = thread.current_stack_trace()
            hit = (trace, self.sites.trace_id(trace))
            self._traces_by_prefix[key] = hit
        return hit

    def _prefix_id(self, frames: List[Frame], depth: int) -> int:
        """Interned id of the caller locations of ``frames[depth]``.

        Cached on the frame on first use.  A prefix is interned as its
        caller's own prefix id plus the caller's location, in a table of
        its own, so prefixes never consume trace ids and VM trace ids keep
        first-encounter order.
        """
        frame = frames[depth]
        prefix_id = frame.prefix_id
        if not prefix_id:
            if depth == 0:
                key: tuple = ()
            else:
                caller = frames[depth - 1]
                method = caller.method
                key = (
                    self._prefix_id(frames, depth - 1),
                    method.class_name,
                    method.name,
                    caller.current_line,
                )
            prefix_ids = self._prefix_ids
            prefix_id = prefix_ids.get(key)
            if prefix_id is None:
                prefix_id = prefix_ids[key] = len(prefix_ids) + 1
            frame.prefix_id = prefix_id
        return prefix_id

    def allocate_batch(
        self,
        thread: SimThread,
        site: AllocSite,
        sizes: Sequence[int],
        pretenure_index: int = 0,
        link_from: Optional[HeapObject] = None,
    ) -> List[HeapObject]:
        """Allocate one object per entry of ``sizes`` through ``site``.

        A loop over :meth:`allocate_at_site`; with ``link_from``, each new
        object is linked from it before the next allocation can collect.
        """
        objs = []
        for size in sizes:
            obj = self.allocate_at_site(thread, site, size, pretenure_index)
            if link_from is not None:
                self.heap.write_ref(link_from, obj)
            objs.append(obj)
        return objs

    def allocate_anonymous(
        self, size: int, refs: Sequence[HeapObject] = ()
    ) -> HeapObject:
        """Allocate outside any modelled site (JDK-internal noise).

        Charged exactly like :meth:`allocate_at_site` minus the site
        machinery: the slow-path pretenure cost and the collector's
        ``after_allocation`` accounting apply here too (they were
        historically skipped, which let anonymous allocations dodge
        NG2C's pretenured-byte budget).
        """
        collector = self.collector
        if collector is None:
            raise OutOfMemoryError("no collector attached to the VM")
        collector.before_allocation(size)
        gen_id = collector.resolve_allocation_gen(0)
        heap = self.heap
        try:
            obj = heap.allocate(size, gen_id, refs=refs)
        except OutOfMemoryError:
            collector.handle_oom()
            obj = heap.allocate(size, gen_id, refs=refs)
        if gen_id != 0:
            # Pretenured allocation takes the non-TLAB slow path.
            self.clock.advance_us(
                self.config.costs.pretenure_alloc_kib_us * (size / 1024.0)
            )
        collector.after_allocation(size, gen_id)
        return obj

    # -- lifetime ----------------------------------------------------------------------

    def close(self) -> None:
        """Free the simulated heap once the run's result is built.

        A finished VM is one reference cycle: the collector and the VM
        point at each other, every thread points back at the VM, the
        class loader and the event bus hold bound methods of the VM and
        its agents, and every generation holds a bound method of the
        heap.  Only a full CPython collection frees such a cycle, and
        every object the heap holds with it.  Closing drops the VM's hold
        on those objects (the heap's regions and remembered set, the
        collector's last trace, the thread frames and the static roots),
        so reference counting frees them at once.

        Every counter a result reads stays: the clock, ``ops_completed``,
        ``set_generation_calls``, the collector's pause log and cycle
        count, and the heap's allocation totals and peak.  Idempotent,
        and ``heap.verify()`` passes after it.  The VM's owner closes it;
        :func:`~repro.core.pipeline.drive` does not, so a caller can still
        inspect the heap after a run.
        """
        self.heap.free_all()
        if self.collector is not None:
            self.collector.last_live_objects = []
        for thread in self.threads:
            thread.frames.clear()
        for name in self.roots.names:
            self.roots.unpin(name)

    # -- mutator time ------------------------------------------------------------------

    def tick_op(self, weight: float = 1.0) -> None:
        """Account one workload operation's mutator time.

        The collector's barrier overhead (C4's read/write barriers) scales
        the cost; stop-the-world pauses are charged separately by the
        collector itself.
        """
        self.ops_completed += 1
        overhead = self.collector.mutator_overhead if self.collector else 1.0
        self.clock.advance_us(self.config.costs.op_base_us * weight * overhead)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        collector = type(self.collector).__name__ if self.collector else None
        return (
            f"VM(clock={self.clock.now_ms:.1f} ms, ops={self.ops_completed}, "
            f"collector={collector})"
        )
