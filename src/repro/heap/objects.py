"""Heap objects and their headers.

A :class:`HeapObject` models a Java object as the GC and the profiler see
it: a header (identity hash code, age) plus a payload size and outgoing
references.  Workload *semantics* (keys, postings, vertex values)
live in plain Python attached elsewhere; the simulated heap only cares
about sizes, references, and placement.

A ``HeapObject`` is the only copy of its fields: a region holds its
objects in a plain list (see :mod:`repro.heap.region`), and evacuation
rewrites ``address``, ``gen_id`` and ``age`` in place.  A reclaimed
object keeps its last placement fields, which is what floating garbage
still reachable from a dead parent reads.

An object holds only fields something reads, and a leaf costs no list:
every object starts with the shared empty tuple :data:`NO_REFS` as its
references, and :class:`~repro.heap.heap.SimHeap` gives it a list of its
own when it gets its first child.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

#: Size in bytes of an object header (mark word + class word on HotSpot).
HEADER_BYTES = 16

_next_identity_hash = 1

#: The references of every object with no children, shared by all of them.
NO_REFS: Tuple["HeapObject", ...] = ()


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
        size: Total size in bytes, header included.
        site_id: Allocation-site id (0 when allocated outside any site).
        trace_id: Stack-trace id at allocation (0 when unknown).
        gen_id: Id of the generation currently holding the object.
        address: Current virtual address; changes when the object moves.
        age: Number of young collections survived (G1 tenuring input).
        mark_epoch: Heap mark epoch at which this object was last found
            reachable.  ``obj.mark_epoch == heap.mark_epoch`` means "marked
            live by the most recent trace"; marking is one int store and the
            liveness test one int compare, so no per-cycle visited set is
            ever allocated (see docs/architecture.md, "Hot paths").
        _refs: Outgoing references: :data:`NO_REFS` until the first child
            is written, then a list owned by this object.
    """

    __slots__ = (
        "object_id",
        "size",
        "site_id",
        "trace_id",
        "gen_id",
        "address",
        "age",
        "mark_epoch",
        "_refs",
    )

    def __init__(self, size: int, site_id: int = 0, trace_id: int = 0) -> None:
        global _next_identity_hash
        if size < HEADER_BYTES:
            raise ValueError(
                f"object size {size} smaller than header ({HEADER_BYTES} bytes)"
            )
        # next_identity_hash(), inlined: this runs once per allocation.
        self.object_id = _next_identity_hash
        _next_identity_hash += 1
        self.size = size
        self.site_id = site_id
        self.trace_id = trace_id
        self.gen_id = -1
        self.address = -1
        self.age = 0
        self.mark_epoch = 0
        self._refs = NO_REFS

    @property
    def refs(self) -> List["HeapObject"]:
        """Outgoing references (read-only view by convention).

        Mutate through :meth:`repro.heap.heap.SimHeap.write_ref` /
        :meth:`~repro.heap.heap.SimHeap.remove_ref` so that the pages
        holding the object are marked dirty, as a real store barrier would.
        A leaf returns a fresh empty list.
        """
        return self._refs or []

    def iter_refs(self) -> Iterator["HeapObject"]:
        return iter(self._refs)

    def _remove_ref(self, target: "HeapObject") -> None:
        refs = self._refs
        if not refs:
            # NO_REFS is a tuple, whose missing remove() would raise
            # AttributeError; a leaf fails as a list without target does.
            raise ValueError(
                f"object {self.object_id} holds no reference to "
                f"object {target.object_id}"
            )
        refs.remove(target)

    def _replace_refs(self, targets: Iterable["HeapObject"]) -> None:
        self._refs = list(targets) or NO_REFS

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
