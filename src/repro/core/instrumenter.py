"""The Instrumenter: load-time application of an allocation profile (§3.4).

The production-phase agent.  Registered as a class transformer, it
rewrites each class as it loads:

* allocation sites named by the profile receive the ``@Gen`` annotation
  (and, where the profile says so, a per-allocation ``setGeneration``
  bracket);
* call sites named by the profile receive a ``setGeneration(gen)`` /
  restore bracket, switching the thread's target generation while
  execution is inside the corresponding subtree of the STTree.

At attach time the generations the profile needs are created through the
collector's ``new_generation`` (the paper: "generations ... are
automatically created at launch time").  The Instrumenter only needs the
small pretenuring API surface — paper §4.5 notes POLM2 is GC-independent;
any collector whose ``supports_pretenuring`` is true works.
"""

from __future__ import annotations

from typing import Optional, Union, TYPE_CHECKING

from repro.core.profile import AllocationProfile
from repro.core.sttree import STTree
from repro.errors import PretenuringUnsupportedError
from repro.runtime.code import ClassModel
from repro.runtime.events import VMAgent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.vm import VM


class Instrumenter(VMAgent):
    """Applies an :class:`AllocationProfile` at class-load time.

    Also accepts the canonical :class:`~repro.core.sttree.STTree` IR
    directly (flattened with the default push-up plan), so tooling that
    carries only the IR never rebuilds a profile by hand.
    """

    def __init__(self, profile: Union[AllocationProfile, STTree]) -> None:
        if isinstance(profile, STTree):
            profile = AllocationProfile.from_sttree(profile)
        self.profile = profile
        self._alloc_by_location = {d.location: d for d in profile.alloc_directives}
        self._call_by_location = {d.location: d for d in profile.call_directives}
        self.applied_alloc_sites = 0
        self.applied_call_sites = 0
        self.vm: Optional["VM"] = None

    # -- agent lifecycle ---------------------------------------------------------

    def on_attach(self, vm: "VM") -> None:
        """Validate the collector and pre-create the profile's generations.

        Raising here (no pretenuring API) happens before the VM registers
        anything, so a failed attach leaves the VM untouched.
        """
        collector = vm.collector
        if collector is None or not collector.supports_pretenuring:
            raise PretenuringUnsupportedError(
                "the Instrumenter requires a collector with a pretenuring "
                "API (NG2C); attach one before the Instrumenter"
            )
        self.vm = vm
        for index in sorted(self.profile.generation_indexes):
            collector.ensure_generation(index)

    def telemetry(self) -> dict:
        return {
            "instrumented_alloc_sites": self.applied_alloc_sites,
            "instrumented_call_sites": self.applied_call_sites,
        }

    # -- ClassTransformer -----------------------------------------------------------

    def transform(self, class_model: ClassModel) -> ClassModel:
        for site in class_model.iter_alloc_sites():
            directive = self._alloc_by_location.get(site.location)
            if directive is not None:
                site.gen_annotated = True
                site.pre_set_gen = directive.pre_set_gen
                self.applied_alloc_sites += 1
        for call in class_model.iter_call_sites():
            directive = self._call_by_location.get(call.location)
            if directive is not None:
                call.target_generation = directive.target_generation
                self.applied_call_sites += 1
        return class_model
