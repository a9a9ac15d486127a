"""Workload interface and the manual-NG2C baseline strategy."""

from __future__ import annotations

import abc
import dataclasses
from typing import List, Optional, TYPE_CHECKING

from repro.core.profile import AllocationProfile, AllocDirective, CallDirective
from repro.runtime.code import ClassModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.vm import VM


@dataclasses.dataclass
class ManualNG2CStrategy:
    """Hand-written NG2C annotations for a workload (the paper's baseline).

    This is what an experienced developer produced by reading the source:
    a set of ``@Gen`` annotations and ``setGeneration`` call brackets.
    ``rotate_generation_on_flush`` reproduces the Cassandra usage the
    paper describes ("NG2C creates one generation each time a memory
    table is flushed").

    The paper found (§5.4.1) that even experts misjudge multi-path
    allocation sites: the shipped strategies for Cassandra-RI and Lucene
    intentionally carry those documented mistakes, which is why POLM2
    outperforms manual NG2C on exactly those two workloads.
    """

    alloc_directives: List[AllocDirective]
    call_directives: List[CallDirective]
    rotate_generation_on_flush: bool = False
    #: Which generation index rotates at flush (Cassandra memtables).
    rotating_index: int = 1
    #: How many allocation-site conflicts the developer identified and
    #: resolved with distinguishing setGeneration placements (Table 1's
    #: right-hand "Conflicts Encountered" numbers).
    conflicts_handled: int = 0
    notes: str = ""

    def as_profile(self, workload: str) -> AllocationProfile:
        """Adapt to an :class:`AllocationProfile` so the same Instrumenter
        machinery applies manual annotations (they are, after all, just
        source-level ``@Gen`` + ``setGeneration``)."""
        return AllocationProfile(
            workload=f"{workload}-manual",
            alloc_directives=self.alloc_directives,
            call_directives=self.call_directives,
            metadata={"manual": True, "notes": self.notes},
        )


class Workload(abc.ABC):
    """A runnable big-data application over the simulated VM.

    Lifecycle: construct -> (agents attach to the VM) -> ``class_models``
    are loaded through the VM's class loader -> ``setup`` pins roots and
    creates threads -> ``tick`` is called until the experiment's virtual
    duration elapses.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        #: The VM this workload runs on; the pipeline driver sets it
        #: before loading classes (subclasses also set it in ``setup``).
        self.vm: Optional["VM"] = None

    def fire_flush_hooks(self) -> None:
        """Publish the ``flush`` safepoint: the workload retired a large
        unit of state (memtable flush, segment merge, batch completion).
        Agents such as the manual-NG2C generation rotation subscribe to
        the VM's ``SAFEPOINT`` event."""
        vm = getattr(self, "vm", None)
        if vm is not None:
            vm.safepoint("flush", source=self.name)

    @abc.abstractmethod
    def class_models(self) -> List[ClassModel]:
        """The workload's declared code model (classes to load)."""

    @abc.abstractmethod
    def setup(self, vm: "VM") -> None:
        """Create threads, pin static roots, build initial state."""

    @abc.abstractmethod
    def tick(self) -> int:
        """Execute one batch of operations; returns operations executed."""

    def manual_ng2c(self) -> Optional[ManualNG2CStrategy]:
        """The hand-annotated NG2C baseline, if one exists for this workload."""
        return None

    def teardown(self) -> None:
        """Release references (optional)."""
