"""A binary (single-tenured-space) pretenuring collector.

Two purposes:

1. **GC independence (paper §4.5).**  POLM2 "can be used with any
   generational GC that supports pretenuring" — the Instrumenter only
   needs ``supports_pretenuring`` and ``ensure_generation``.  This
   collector is the second implementation of that small API surface.

2. **A related-work ablation.**  Memento (Clifford et al., 2015) also
   pretenures, but "is only able to manage one tenured space, therefore
   applying a binary decision that will still potentially co-locate
   objects with possibly very different lifetimes, incurring in
   additional later compaction effort" (paper §6.1).  This collector *is*
   that design: every pretenure request, whatever its generation index,
   lands in the single old generation.  Running POLM2 on top of it
   quantifies exactly how much of the win comes from NG2C's *multiple*
   generations rather than from pretenuring per se.
"""

from __future__ import annotations

from repro.config import YOUNG_GEN
from repro.gc.g1 import G1Collector


class BinaryPretenuringCollector(G1Collector):
    """G1 mechanics plus a single-target pretenuring API (Memento-style).

    Inherits G1's collections unchanged, including their evacuation
    plans (:class:`repro.heap.evacuation.SurvivorTenuring` for
    young pauses, :class:`repro.heap.evacuation.FixedDestination` for
    mixed/full) — pretenuring only redirects *allocation*, never copying.
    """

    name = "Binary"

    @property
    def supports_pretenuring(self) -> bool:
        return True

    def ensure_generation(self, index: int) -> int:
        """Every non-young index maps to the one old generation."""
        if index <= 0:
            return YOUNG_GEN
        return self.old_gen_id

    def resolve_allocation_gen(self, pretenure_index: int) -> int:
        return self.ensure_generation(pretenure_index)
