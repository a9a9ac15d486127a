"""A plain reference for the streaming analyzer's survival counting.

An id's survival count is the number of snapshots whose live set holds
it; the shared estimation functions turn those counts into an STTree.
Tests compare :class:`~repro.core.stages.IncrementalAnalyzer` against
this definition instead of against a second analyzer implementation.
"""

import collections

from repro.core.analyzer import (
    build_trace_tree,
    estimate_trace_generations,
    lifetime_distributions,
)


def reference_distributions(records, snapshots):
    """Per-trace survival histograms by direct intersection counting."""
    counts = collections.Counter()
    for snapshot in snapshots:
        counts.update(snapshot.live_object_ids)
    last = snapshots[-1].live_object_ids if snapshots else None
    cutoff = max(last) if last else None
    return lifetime_distributions(records, counts, cutoff)


def reference_tree(records, snapshots, max_generations=16, min_samples=8):
    distributions = reference_distributions(records, snapshots)
    estimates = estimate_trace_generations(
        distributions, max_generations, min_samples
    )
    return build_trace_tree(records, estimates)
