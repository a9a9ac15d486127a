"""Heap objects and their headers.

A :class:`HeapObject` models a Java object as the GC and the profiler see
it: a header (identity hash code, class id, age) plus a payload size and
outgoing references.  Workload *semantics* (keys, postings, vertex values)
live in plain Python attached elsewhere; the simulated heap only cares
about sizes, references, and placement.

Since the columnar heap storage landed, a ``HeapObject`` is a *view*: the
region holding it mirrors identity, size, site, placement offset, and age
in parallel ``array('q')`` columns (see :mod:`repro.heap.region`), and the
collector inner loops run over those columns instead of these boxed
records.  The view keeps plain attributes for the mutator-facing hot
paths — tracing reads ``mark_epoch``/``_refs``, write barriers read
``gen_id`` — and the heap keeps view and column in lockstep at every
placement.  Dead views are simply left behind with their last-written
placement fields (the columns of a reclaimed region are discarded), which
preserves the historical stale-read semantics floating garbage relies on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

#: Size in bytes of an object header (mark word + class word on HotSpot).
HEADER_BYTES = 16

_next_identity_hash = 1


def next_identity_hash() -> int:
    """Return a fresh, never-reused identity hash code.

    HotSpot computes identity hashes lazily and stores them in the object
    header so they survive moves; modelling them as a monotonic counter
    preserves the property the Analyzer relies on (paper §4.3): the id of
    an object is stable across promotion and compaction.
    """
    global _next_identity_hash
    value = _next_identity_hash
    _next_identity_hash = value + 1
    return value


class HeapObject:
    """A simulated heap object.

    Attributes:
        object_id: Stable identity hash code, assigned at allocation and
            preserved across moves (stored in the header).
        class_id: Interned class identifier (see the runtime's code model).
        size: Total size in bytes, header included.
        site_id: Allocation-site id (0 when allocated outside any site).
        trace_id: Stack-trace id at allocation (0 when unknown).
        gen_id: Id of the generation currently holding the object.
        address: Current virtual address; changes when the object moves.
        age: Number of young collections survived (G1 tenuring input).
            A write-through property: when the object is attached to a
            region, assignments also land in the region's age column, so
            vectorized tenuring passes and per-object mutations agree.
        birth_cycle: GC cycle count at allocation time.
        mark_epoch: Heap mark epoch at which this object was last found
            reachable.  ``obj.mark_epoch == heap.mark_epoch`` means "marked
            live by the most recent trace"; marking is one int store and the
            liveness test one int compare, so no per-cycle visited set is
            ever allocated (see docs/architecture.md, "Hot paths").
    """

    __slots__ = (
        "object_id",
        "class_id",
        "size",
        "site_id",
        "trace_id",
        "gen_id",
        "address",
        "_age",
        "birth_cycle",
        "mark_epoch",
        "_refs",
        # Columnar-view backpointers: the region whose columns mirror this
        # object and the object's lane index there (-1 when detached).
        "_region",
        "_slot",
    )

    def __init__(
        self,
        size: int,
        class_id: int = 0,
        site_id: int = 0,
        trace_id: int = 0,
        birth_cycle: int = 0,
    ) -> None:
        global _next_identity_hash
        if size < HEADER_BYTES:
            raise ValueError(
                f"object size {size} smaller than header ({HEADER_BYTES} bytes)"
            )
        # next_identity_hash(), inlined: this runs once per allocation.
        self.object_id = _next_identity_hash
        _next_identity_hash += 1
        self.class_id = class_id
        self.size = size
        self.site_id = site_id
        self.trace_id = trace_id
        self.gen_id = -1
        self.address = -1
        self._age = 0
        self.birth_cycle = birth_cycle
        self.mark_epoch = 0
        self._refs: List[HeapObject] = []
        self._region = None
        self._slot = -1

    @property
    def age(self) -> int:
        return self._age

    @age.setter
    def age(self, value: int) -> None:
        self._age = value
        region = self._region
        if region is not None:
            region._ages[self._slot] = value

    @property
    def refs(self) -> List["HeapObject"]:
        """Outgoing references (read-only view by convention).

        Mutate through :meth:`repro.heap.heap.SimHeap.write_ref` /
        :meth:`~repro.heap.heap.SimHeap.remove_ref` so that the pages
        holding the object are marked dirty, as a real store barrier would.
        """
        return self._refs

    def iter_refs(self) -> Iterator["HeapObject"]:
        return iter(self._refs)

    def _remove_ref(self, target: "HeapObject") -> None:
        self._refs.remove(target)

    def _replace_refs(self, targets: Iterable["HeapObject"]) -> None:
        self._refs = list(targets)

    def page_span(self, page_size: int) -> range:
        """Indices of the pages this object occupies at its current address."""
        if self.address < 0:
            return range(0)
        first = self.address // page_size
        last = (self.address + self.size - 1) // page_size
        return range(first, last + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HeapObject(id={self.object_id}, size={self.size}, "
            f"gen={self.gen_id}, addr={self.address}, age={self.age})"
        )


def reset_identity_hashes() -> None:
    """Restart the identity-hash counter at 1 (fresh-process state).

    :func:`repro.core.pipeline.drive` calls this before it loads the
    workload's classes, so every run — a sweep cell, a serve cycle, a
    recording — is byte-identical whatever ran before it in the same
    process.  Also used by tests to keep id expectations readable.
    """
    global _next_identity_hash
    _next_identity_hash = 1
