"""Evacuation plans: destination policies the columnar engine vectorizes.

A plan expresses where survivors go over *position runs* of a region's
columns, so :meth:`SimHeap.evacuate <repro.heap.heap.SimHeap.evacuate>`
splits each live run into maximal same-destination sub-runs and moves
every sub-run as one column-slice copy, never one Python call per
survivor.  Evacuation takes a plan and nothing else: the collectors pass
:class:`FixedDestination` (mixed, full and compacting collections) or
:class:`SurvivorTenuring` (young collections).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.heap.region import Region
from repro.heap.space import Generation

#: A maximal same-destination sub-run: positions [start, stop) -> where.
SubRun = Tuple[int, int, Generation]


class EvacuationPlan:
    """Base class: maps live position runs to destination generations."""

    #: Whether the engine must sync view ages from the age column after a
    #: copy (True only for plans that mutate ages).
    sync_ages = False

    def split(
        self, region: Region, runs: List[Tuple[int, int]]
    ) -> Iterator[SubRun]:
        raise NotImplementedError


class FixedDestination(EvacuationPlan):
    """Every survivor goes to one generation (mixed, full, compaction)."""

    __slots__ = ("generation",)

    def __init__(self, generation: Generation) -> None:
        self.generation = generation

    def split(
        self, region: Region, runs: List[Tuple[int, int]]
    ) -> Iterator[SubRun]:
        generation = self.generation
        for start, stop in runs:
            yield start, stop, generation


class SurvivorTenuring(EvacuationPlan):
    """Young-collection policy: every survivor ages by one collection and
    is promoted once its age reaches the tenuring threshold.

    The age bump and the threshold compare run as lane arithmetic over the
    packed age column (:meth:`Region.age_up_and_split`); eden regions —
    where every lane comes out below the threshold — stay a single
    young-bound sub-run.
    """

    sync_ages = True

    __slots__ = ("young", "old", "threshold")

    def __init__(self, young: Generation, old: Generation, threshold: int) -> None:
        self.young = young
        self.old = old
        self.threshold = threshold

    def split(
        self, region: Region, runs: List[Tuple[int, int]]
    ) -> Iterator[SubRun]:
        young = self.young
        old = self.old
        threshold = self.threshold
        for start, stop in runs:
            for a, b, promote in region.age_up_and_split(start, stop, threshold):
                yield a, b, old if promote else young
