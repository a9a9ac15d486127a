"""Thread frames and stack traces."""

from __future__ import annotations

from typing import List, Tuple

from repro.heap.objects import HeapObject
from repro.runtime.code import CodeLocation, MethodModel


class Frame:
    """One activation record on a simulated thread stack.

    ``current_line`` tracks the line the frame is executing — updated at
    every call and allocation so that captured stack traces carry the call
    chain the paper's Analyzer needs (class, method, line per frame).

    ``locals`` holds heap objects referenced from the frame; they are GC
    roots until the frame pops.

    ``prefix_id`` is the VM's interned id for the locations of this
    frame's callers, filled in lazily by the VM's trace cache (0 until
    then).  It stays valid for the frame's whole activation: a caller's
    line only changes while that caller is the top frame.
    """

    __slots__ = ("method", "current_line", "locals", "prefix_id")

    def __init__(self, method: MethodModel) -> None:
        self.method = method
        self.current_line = 0
        self.locals: List[HeapObject] = []
        self.prefix_id = 0

    @property
    def location(self) -> CodeLocation:
        return (self.method.class_name, self.method.name, self.current_line)

    def keep(self, obj: HeapObject) -> HeapObject:
        """Root ``obj`` in this frame (a local-variable store)."""
        self.locals.append(obj)
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.method.class_name}.{self.method.name}:{self.current_line})"


def capture_stack_trace(frames: List[Frame]) -> Tuple[CodeLocation, ...]:
    """Snapshot the call chain, innermost frame last.

    Every frame contributes ⟨class, method, current line⟩; for outer frames
    the current line is the call site through which control reached the
    next frame, and for the innermost frame it is the allocation line —
    matching the stack traces the Recorder logs (§3.2).
    """
    return tuple(frame.location for frame in frames)
