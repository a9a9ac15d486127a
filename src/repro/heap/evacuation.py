"""Evacuation plans: where each survivor of a collection goes.

:meth:`SimHeap.evacuate <repro.heap.heap.SimHeap.evacuate>` is one loop
over the survivors of the collected regions, in region and allocation
order; for each it asks the plan for a destination generation and bumps
the object into it.  Evacuation takes a plan and nothing else: the
collectors pass :class:`FixedDestination` (mixed, full and compacting
collections) or :class:`SurvivorTenuring` (young collections).
"""

from __future__ import annotations

from repro.heap.objects import HeapObject
from repro.heap.space import Generation


class EvacuationPlan:
    """Base class: maps each survivor to its destination generation."""

    def destination(self, obj: HeapObject) -> Generation:
        raise NotImplementedError


class FixedDestination(EvacuationPlan):
    """Every survivor goes to one generation (mixed, full, compaction)."""

    __slots__ = ("generation",)

    def __init__(self, generation: Generation) -> None:
        self.generation = generation

    def destination(self, obj: HeapObject) -> Generation:
        return self.generation


class SurvivorTenuring(EvacuationPlan):
    """Young-collection policy: every survivor ages by one collection and
    is promoted once its age reaches the tenuring threshold."""

    __slots__ = ("young", "old", "threshold")

    def __init__(self, young: Generation, old: Generation, threshold: int) -> None:
        self.young = young
        self.old = old
        self.threshold = threshold

    def destination(self, obj: HeapObject) -> Generation:
        age = obj.age + 1
        obj.age = age
        return self.old if age >= self.threshold else self.young
