"""The typed VM event bus and the :class:`VMAgent` interface.

The paper's architecture is a set of *agents* attached to the JVM through
one uniform mechanism — load-time agents plus GC-cycle callbacks (§3, §4).
This module is that seam for the simulated runtime: a small typed event
bus owned by the :class:`~repro.runtime.vm.VM`, and an agent protocol that
the Recorder, Dumper, Instrumenter, telemetry, and any third-party
profiler plug into via ``vm.attach_agent(agent)``.

Event kinds
-----------

``CLASS_LOAD``
    A class model finished loading (all transformers applied).  Payload:
    :class:`ClassLoadEvent`.  Guaranteed to precede every allocation made
    from that class's sites.
``ALLOCATION``
    One allocation through a record-hooked site.  **Hot path**: to keep
    the interned-trace fast path of ``VM.allocate_at_site`` intact, no
    event object is boxed — subscribers are called with the raw
    ``(obj, site, trace)`` triple, exactly the historical alloc-listener
    signature.  When no subscriber exists the VM skips trace capture
    entirely (the "no listeners → no trace capture" short-circuit).
    ``SimThread.alloc_batch`` loops over the same path, so each object of
    a batch is published once, like any other allocation.
``SAFEPOINT``
    A workload-declared safepoint (memtable flush, segment merge, batch
    completion).  Payload: :class:`SafepointEvent`.
``GC_START`` / ``GC_END``
    Bracketing one stop-the-world collection, with the cycle kind
    (young / mixed / gen / full / concurrent).  Payloads:
    :class:`GCStartEvent` / :class:`GCEndEvent`.  ``GC_END`` is
    guaranteed to be published before any ``SNAPSHOT_POINT`` of the same
    cycle.
``SNAPSHOT_POINT``
    The Recorder decided this cycle ends with a checkpoint: the no-need
    pages are already marked and the full live set is attached.  Payload:
    :class:`SnapshotPointEvent`.  The Dumper subscribes here.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.idset import IdSet
    from repro.gc.events import GCPause
    from repro.heap.objects import HeapObject
    from repro.runtime.code import ClassModel
    from repro.runtime.vm import VM

CLASS_LOAD = "class-load"
ALLOCATION = "allocation"
SAFEPOINT = "safepoint"
GC_START = "gc-start"
GC_END = "gc-end"
SNAPSHOT_POINT = "snapshot-point"

EVENT_KINDS = (
    CLASS_LOAD,
    ALLOCATION,
    SAFEPOINT,
    GC_START,
    GC_END,
    SNAPSHOT_POINT,
)


@dataclasses.dataclass(frozen=True)
class ClassLoadEvent:
    """A class finished loading through the VM's class loader."""

    class_model: "ClassModel"


@dataclasses.dataclass(frozen=True)
class SafepointEvent:
    """A workload-declared safepoint (e.g. a memtable flush)."""

    kind: str
    at_ms: float
    source: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class GCStartEvent:
    """A stop-the-world collection is beginning."""

    cycle: int
    kind: str
    start_ms: float
    collector: str


@dataclasses.dataclass(frozen=True)
class GCEndEvent:
    """A stop-the-world collection finished; the pause is fully accounted."""

    pause: "GCPause"


@dataclasses.dataclass(frozen=True)
class SnapshotPointEvent:
    """The cycle ends with a checkpoint; ``live`` is the full live set.

    ``live_ids`` optionally carries the same set as a prebuilt
    :class:`~repro.core.idset.IdSet` so downstream consumers (no-need
    marking, the CRIU engine) share one compact-kernel build instead of
    each re-deriving it from the object list.
    """

    pause: "GCPause"
    live: Sequence["HeapObject"]
    live_ids: Optional["IdSet"] = None


class EventBus:
    """Per-VM typed publish/subscribe fan-out.

    Dispatch order is subscription order.  The bus hands the VM a direct
    reference to its internal ``ALLOCATION`` list (:meth:`listener_list`)
    so the allocation hot path can test emptiness without a dict lookup;
    the list object is therefore mutated in place and never rebound.
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[Callable]] = {
            kind: [] for kind in EVENT_KINDS
        }

    def _listeners(self, kind: str) -> List[Callable]:
        try:
            return self._subscribers[kind]
        except KeyError:
            raise ReproError(f"unknown VM event kind {kind!r}") from None

    def subscribe(self, kind: str, listener: Callable) -> None:
        self._listeners(kind).append(listener)

    def unsubscribe(self, kind: str, listener: Callable) -> None:
        self._listeners(kind).remove(listener)

    def listener_list(self, kind: str) -> List[Callable]:
        """The live (mutated in place) subscriber list for ``kind``."""
        return self._listeners(kind)

    def has_listeners(self, kind: str) -> bool:
        return bool(self._listeners(kind))

    def publish(self, kind: str, event) -> None:
        for listener in self._listeners(kind):
            listener(event)


class VMAgent:
    """Base class for VM agents (the ``-javaagent`` analogue).

    Subclasses opt into events by *defining* the matching hook — the VM
    inspects the agent at :meth:`~repro.runtime.vm.VM.attach_agent` time
    and subscribes exactly the hooks present, so an agent pays only for
    the events it consumes:

    ``transform(class_model)``
        registered as a class transformer (load-time rewriting);
    ``on_class_load(event: ClassLoadEvent)``
    ``on_allocation(obj, site, trace)``   *(hot path — raw args)*
    ``on_safepoint(event: SafepointEvent)``
    ``on_gc_start(event: GCStartEvent)``
    ``on_gc_end(event: GCEndEvent)``
    ``on_snapshot_point(event: SnapshotPointEvent)``

    ``on_attach(vm)`` runs first (validation and wiring; raising there
    leaves the VM untouched) and ``on_detach(vm)`` runs last on
    :meth:`~repro.runtime.vm.VM.detach_agent`.  :meth:`telemetry` lets an
    agent contribute counters to the run's :class:`PhaseResult`.
    """

    def on_attach(self, vm: "VM") -> None:
        """Validate and wire up; called before any subscription exists."""

    def on_detach(self, vm: "VM") -> None:
        """Release resources; called after every subscription is removed."""

    def telemetry(self) -> Dict[str, int]:
        """Counters merged into the run's ``PhaseResult.telemetry``."""
        return {}


#: (event kind, agent hook name) pairs inspected by ``VM.attach_agent``.
AGENT_HOOKS = (
    (CLASS_LOAD, "on_class_load"),
    (ALLOCATION, "on_allocation"),
    (SAFEPOINT, "on_safepoint"),
    (GC_START, "on_gc_start"),
    (GC_END, "on_gc_end"),
    (SNAPSHOT_POINT, "on_snapshot_point"),
)
