"""Per-allocation-site lifetime estimation (paper §3.3).

The estimation steps of the paper's bucket algorithm, shared by the
streaming :class:`~repro.core.stages.IncrementalAnalyzer`:

* every recorded object id starts in bucket zero of its stack trace;
* for each snapshot (in time order), every object id found live in the
  snapshot moves to the next bucket;
* per stack trace, the bucket where *most* objects end — the number of
  collections most of its objects survive — estimates the optimal
  generation for that trace.

Distinct survival counts are then grouped into generation indexes on
power-of-two boundaries (objects surviving 4 and 6 cycles belong
together; objects surviving 1 do not), the STTree resolves same-site
conflicts, and the result is an :class:`~repro.core.profile
.AllocationProfile`.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, Optional

from repro.core.recorder import AllocationRecords
from repro.core.sttree import STTree


@dataclasses.dataclass
class LifetimeDistribution:
    """Survival histogram for one allocation stack trace."""

    trace_id: int
    #: survival count (snapshots survived) -> number of objects.
    buckets: Dict[int, int]

    @property
    def sample_count(self) -> int:
        return sum(self.buckets.values())

    def mode_generation(self, max_generations: int) -> int:
        """The generation index most objects fall into.

        Raw survival counts are a poor voting domain: objects allocated
        steadily at a long-lived site carry survival counts spread evenly
        over [1, profile length], so no single count dominates.  Folding
        counts into log2 generation classes first makes cohorts vote
        together (ties -> the smaller index, conservative).
        """
        if not self.buckets:
            return 0
        votes = self.generation_votes(max_generations)
        best_count = max(votes.values())
        return min(g for g, c in votes.items() if c == best_count)

    def generation_votes(self, max_generations: int) -> Dict[int, int]:
        """Object counts folded into log2 generation classes."""
        votes: Dict[int, int] = {}
        for survival, count in self.buckets.items():
            gen = survival_to_generation(survival, max_generations)
            votes[gen] = votes.get(gen, 0) + count
        return votes


def survival_to_generation(survival: int, max_generations: int) -> int:
    """Map a survival count to a generation index on log2 boundaries.

    0 -> young (0); 1 -> gen 1; 2-3 -> gen 2; 4-7 -> gen 3; 8-15 -> gen 4…
    capped at ``max_generations - 1``.  Exponential lifetime classes keep
    the number of generations small while separating short-, middle-, and
    long-lived sites — the same spacing generational aging produces.
    """
    if survival <= 0:
        return 0
    gen = 1
    boundary = 2
    while survival >= boundary:
        gen += 1
        boundary *= 2
    return min(gen, max_generations - 1)


# -- estimation steps: survival counts -> distributions -> STTree ----------------


def lifetime_distributions(
    records: AllocationRecords,
    counts: Dict[int, int],
    cutoff: Optional[int],
) -> Dict[int, LifetimeDistribution]:
    """Fold per-id survival counts into per-trace histograms.

    Ids above ``cutoff`` (allocated after the last snapshot) carry no
    lifetime signal and are excluded.
    """
    result: Dict[int, LifetimeDistribution] = {}
    for trace_id, stream in records.streams.items():
        buckets: Dict[int, int] = collections.defaultdict(int)
        for object_id in stream:
            if cutoff is not None and object_id > cutoff:
                continue
            buckets[counts.get(object_id, 0)] += 1
        if buckets:
            result[trace_id] = LifetimeDistribution(trace_id, dict(buckets))
    return result


def estimate_trace_generations(
    distributions: Dict[int, LifetimeDistribution],
    max_generations: int,
    min_samples: int,
) -> Dict[int, int]:
    """Per-trace estimated generation (0 = leave in young)."""
    estimates: Dict[int, int] = {}
    for trace_id, dist in distributions.items():
        if dist.sample_count < min_samples:
            estimates[trace_id] = 0
        else:
            estimates[trace_id] = dist.mode_generation(max_generations)
    return estimates


def build_trace_tree(
    records: AllocationRecords, estimates: Dict[int, int]
) -> STTree:
    """Insert every estimated trace into a fresh STTree (the profile IR)."""
    tree = STTree()
    for trace_id, gen in sorted(estimates.items()):
        trace = records.traces[trace_id]
        count = len(records.streams[trace_id])
        tree.insert(trace, gen, count)
    return tree
