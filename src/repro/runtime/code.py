"""The code model: classes, methods, allocation sites, call sites.

Java agents rewrite bytecode at the granularity of individual instructions
located by ⟨class, method, line⟩.  The simulation represents exactly that
level of structure: a :class:`MethodModel` declares, per source line, the
allocation sites and call sites the method contains.  Workload code then
*executes against* the loaded (possibly agent-transformed) model: every
simulated allocation consults its :class:`AllocSite` (is it ``@Gen``
annotated?  does it carry a Recorder callback?) and every simulated call
consults its :class:`CallSite` (does it set a target generation?).

This mirrors the paper faithfully:

* the **Recorder** transformer flips ``record_hook`` on allocation sites —
  the analogue of inserting a logging callback after every ``new`` (§4.1);
* the **Instrumenter** transformer flips ``gen_annotated`` (the ``@Gen``
  annotation) and sets ``CallSite.target_generation`` (the inserted
  ``setGeneration``/restore bracket of Listing 2).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, Optional, Tuple

#: A code location as used throughout the paper: class, method, line.
CodeLocation = Tuple[str, str, int]


@dataclasses.dataclass
class AllocSite:
    """An object-allocation site (a ``new`` at a specific line).

    Attributes:
        class_name / method_name / line: the code location.
        type_name: name of the allocated type (for readable profiles).
        size_hint: nominal size in bytes of instances allocated here (the
            workload may override per allocation, e.g. arrays).
        gen_annotated: True when the site carries NG2C's ``@Gen``
            annotation — instances are pretenured into the thread's current
            target generation.
        pre_set_gen: when not None, the Instrumenter bracketed this single
            allocation instruction with ``setGeneration(pre_set_gen)`` /
            restore (the per-statement variant of Listing 2's rewrite, used
            when no enclosing call site can carry the directive).
        record_hook: True when the Recorder rewrote the site to log each
            allocation (profiling phase only).
    """

    class_name: str
    method_name: str
    line: int
    type_name: str = "java.lang.Object"
    size_hint: int = 64
    gen_annotated: bool = False
    pre_set_gen: Optional[int] = None
    record_hook: bool = False
    #: Interned site id, filled in lazily by the VM (hot-path cache).
    cached_site_id: int = 0

    @property
    def location(self) -> CodeLocation:
        return (self.class_name, self.method_name, self.line)

    def copy(self) -> "AllocSite":
        clone = dataclasses.replace(self)
        # The cache is per loaded copy (per VM): an interned id from another
        # VM's registry must never leak through a class-model copy.
        clone.cached_site_id = 0
        return clone


@dataclasses.dataclass
class CallSite:
    """A method-call site, optionally bracketed by ``setGeneration``.

    When ``target_generation`` is not None, entering the call sets the
    calling thread's target generation to that value and restores the
    previous one on return — the rewrite shown at lines 8/10, 20/22, and
    25/27 of the paper's Listing 2.
    """

    class_name: str
    method_name: str
    line: int
    callee_class: str = ""
    callee_method: str = ""
    target_generation: Optional[int] = None

    @property
    def location(self) -> CodeLocation:
        return (self.class_name, self.method_name, self.line)

    def copy(self) -> "CallSite":
        return dataclasses.replace(self)


class MethodModel:
    """A method: a bag of allocation sites and call sites keyed by line."""

    def __init__(self, class_name: str, name: str) -> None:
        self.class_name = class_name
        self.name = name
        self.alloc_sites: Dict[int, AllocSite] = {}
        self.call_sites: Dict[int, CallSite] = {}

    def add_alloc_site(
        self, line: int, type_name: str = "java.lang.Object", size_hint: int = 64
    ) -> AllocSite:
        if line in self.alloc_sites:
            raise ValueError(
                f"{self.class_name}.{self.name}: duplicate alloc site at line {line}"
            )
        site = AllocSite(
            class_name=self.class_name,
            method_name=self.name,
            line=line,
            type_name=type_name,
            size_hint=size_hint,
        )
        self.alloc_sites[line] = site
        return site

    def add_call_site(
        self, line: int, callee_class: str = "", callee_method: str = ""
    ) -> CallSite:
        if line in self.call_sites:
            raise ValueError(
                f"{self.class_name}.{self.name}: duplicate call site at line {line}"
            )
        site = CallSite(
            class_name=self.class_name,
            method_name=self.name,
            line=line,
            callee_class=callee_class,
            callee_method=callee_method,
        )
        self.call_sites[line] = site
        return site

    def alloc_site(self, line: int) -> Optional[AllocSite]:
        return self.alloc_sites.get(line)

    def call_site(self, line: int) -> Optional[CallSite]:
        return self.call_sites.get(line)

    def copy(self) -> "MethodModel":
        clone = MethodModel(self.class_name, self.name)
        clone.alloc_sites = {line: s.copy() for line, s in self.alloc_sites.items()}
        clone.call_sites = {line: s.copy() for line, s in self.call_sites.items()}
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MethodModel({self.class_name}.{self.name}, "
            f"allocs={len(self.alloc_sites)}, calls={len(self.call_sites)})"
        )


class ClassModel:
    """A class: a named collection of :class:`MethodModel` instances."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.methods: Dict[str, MethodModel] = {}

    def add_method(self, name: str) -> MethodModel:
        if name in self.methods:
            raise ValueError(f"class {self.name}: duplicate method {name!r}")
        method = MethodModel(self.name, name)
        self.methods[name] = method
        return method

    def method(self, name: str) -> MethodModel:
        return self.methods[name]

    def get_method(self, name: str) -> Optional[MethodModel]:
        return self.methods.get(name)

    def copy(self) -> "ClassModel":
        clone = ClassModel(self.name)
        clone.methods = {name: m.copy() for name, m in self.methods.items()}
        return clone

    def iter_alloc_sites(self) -> Iterator[AllocSite]:
        for method in self.methods.values():
            yield from method.alloc_sites.values()

    def iter_call_sites(self) -> Iterator[CallSite]:
        for method in self.methods.values():
            yield from method.call_sites.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassModel({self.name!r}, methods={sorted(self.methods)})"


class SiteRegistry:
    """Interns code locations and stack traces to small integer ids.

    The Recorder keeps "a table with all the stack traces that have been
    used for allocations" and streams object ids per stack trace (§3.2);
    interning gives each site and each distinct trace a compact id so those
    streams stay cheap.
    """

    def __init__(self) -> None:
        self._site_ids: Dict[CodeLocation, int] = {}
        self._sites: Dict[int, CodeLocation] = {}
        self._trace_ids: Dict[Tuple[CodeLocation, ...], int] = {}
        self._traces: Dict[int, Tuple[CodeLocation, ...]] = {}

    def site_id(self, location: CodeLocation) -> int:
        sid = self._site_ids.get(location)
        if sid is None:
            sid = len(self._site_ids) + 1
            self._site_ids[location] = sid
            self._sites[sid] = location
        return sid

    def site_location(self, site_id: int) -> CodeLocation:
        return self._sites[site_id]

    def trace_id(self, trace: Tuple[CodeLocation, ...]) -> int:
        tid = self._trace_ids.get(trace)
        if tid is None:
            tid = len(self._trace_ids) + 1
            self._trace_ids[trace] = tid
            self._traces[tid] = trace
        return tid

    def trace(self, trace_id: int) -> Tuple[CodeLocation, ...]:
        return self._traces[trace_id]

    @property
    def site_count(self) -> int:
        return len(self._site_ids)

    @property
    def trace_count(self) -> int:
        return len(self._trace_ids)
