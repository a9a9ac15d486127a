"""Simulated application threads.

A :class:`SimThread` executes workload code against the *loaded* code
model: every call and allocation names its source line, and the thread
consults the (possibly agent-rewritten) :class:`~repro.runtime.code
.MethodModel` to decide what actually happens — whether the allocation is
pretenured (``@Gen``), whether it must be logged (Recorder hook), and
whether the call flips the thread-local *target generation* (NG2C's
``setGeneration`` bracket).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import NoActiveFrameError
from repro.heap.objects import HeapObject
from repro.runtime.stack import Frame, capture_stack_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.vm import VM

class _FrameContext:
    """Lightweight context manager for one method activation.

    Hand-rolled instead of ``contextlib.contextmanager`` because frame
    entry/exit is the hottest path in the simulation.
    """

    __slots__ = ("thread", "frame", "saved_gen")

    def __init__(self, thread: "SimThread", frame: Frame, saved_gen: Optional[int]):
        self.thread = thread
        self.frame = frame
        self.saved_gen = saved_gen

    def __enter__(self) -> Frame:
        self.thread.frames.append(self.frame)
        return self.frame

    def __exit__(self, exc_type, exc, tb) -> None:
        thread = self.thread
        thread.frames.pop()
        if self.saved_gen is not None:
            thread.target_gen = self.saved_gen


class SimThread:
    """An application thread: a stack of frames plus NG2C's target generation."""

    def __init__(self, vm: "VM", name: str) -> None:
        self.vm = vm
        self.name = name
        self.frames: List[Frame] = []
        #: NG2C thread-local target generation, as a *profile index*
        #: (0 = young).  ``@Gen`` allocation sites pretenure into this.
        self.target_gen = 0

    # -- frame management -------------------------------------------------------

    @property
    def top(self) -> Frame:
        if not self.frames:
            raise NoActiveFrameError(f"thread {self.name!r} has no active frame")
        return self.frames[-1]

    def entry(self, class_name: str, method_name: str) -> _FrameContext:
        """Enter a top-level method (thread entry point, no caller)."""
        method = self.vm.classloader.method(class_name, method_name)
        return _FrameContext(self, Frame(method), saved_gen=None)

    def call(self, line: int, class_name: str, method_name: str) -> _FrameContext:
        """Call ``class_name.method_name`` from ``line`` of the current frame.

        If the Instrumenter bracketed this call site with ``setGeneration``,
        the thread's target generation is switched for the duration of the
        call and restored afterwards (Listing 2 of the paper).
        """
        caller = self.frames[-1]
        caller.current_line = line
        call_site = caller.method.call_sites.get(line)
        saved_gen: Optional[int] = None
        if call_site is not None and call_site.target_generation is not None:
            saved_gen = self.target_gen
            self.target_gen = call_site.target_generation
            self.vm.set_generation_calls += 2  # set + restore
        method = self.vm.classloader.method(class_name, method_name)
        return _FrameContext(self, Frame(method), saved_gen)

    # -- allocation ----------------------------------------------------------------

    def alloc(
        self,
        line: int,
        size: Optional[int] = None,
        refs: Sequence[HeapObject] = (),
        keep: bool = True,
    ) -> HeapObject:
        """Allocate at the declared allocation site on ``line``.

        The site must exist in the executing method's code model; this
        catches drift between workload code and its declared model.  When
        ``keep`` is true the object is rooted in the current frame (a local
        variable) until the frame pops.
        """
        frames = self.frames
        if not frames:
            raise NoActiveFrameError(f"thread {self.name!r} has no active frame")
        frame = frames[-1]
        frame.current_line = line
        site = frame.method.alloc_sites.get(line)
        if site is None:
            raise NoActiveFrameError(
                f"{frame.method.class_name}.{frame.method.name} has no "
                f"allocation site at line {line}"
            )
        if site.gen_annotated:
            if site.pre_set_gen is not None:
                pretenure_index = site.pre_set_gen
                self.vm.set_generation_calls += 2  # set + restore bracket
            else:
                pretenure_index = self.target_gen
        else:
            pretenure_index = 0
        obj = self.vm.allocate_at_site(
            self,
            site,
            size if size is not None else site.size_hint,
            pretenure_index,
            refs,
        )
        if keep:
            frame.locals.append(obj)
        return obj

    def alloc_batch(
        self, line: int, count: int, link_from: Optional[HeapObject] = None
    ) -> List[HeapObject]:
        """Allocate ``count`` objects of the site's ``size_hint`` on ``line``.

        One site lookup, then :meth:`VM.allocate_batch` (a loop over the
        scalar path).  ``link_from`` writes a reference from that object
        to each allocated one (the usual container-holds-elements idiom);
        the objects are not rooted in the current frame.
        """
        if not self.frames:
            raise NoActiveFrameError(f"thread {self.name!r} has no active frame")
        frame = self.frames[-1]
        frame.current_line = line
        site = frame.method.alloc_sites.get(line)
        if site is None:
            raise NoActiveFrameError(
                f"{frame.method.class_name}.{frame.method.name} has no "
                f"allocation site at line {line}"
            )
        if site.gen_annotated:
            if site.pre_set_gen is not None:
                pretenure_index = site.pre_set_gen
                self.vm.set_generation_calls += 2 * count
            else:
                pretenure_index = self.target_gen
        else:
            pretenure_index = 0
        return self.vm.allocate_batch(
            self, site, [site.size_hint] * count, pretenure_index, link_from
        )

    def current_stack_trace(self) -> tuple:
        return capture_stack_trace(self.frames)

    # -- GC interface ------------------------------------------------------------

    def iter_roots(self) -> Iterator[HeapObject]:
        """All objects rooted by this thread's frame locals."""
        for frame in self.frames:
            yield from frame.locals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.name!r}, depth={len(self.frames)})"
