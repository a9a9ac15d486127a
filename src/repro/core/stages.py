"""Streaming profile pipeline: the one analysis path.

The paper's Analyzer (§3.3) matches every recorded id against every
snapshot.  Here that dataflow runs one event at a time, the shape
ROLP-style runtime profilers use:

* :class:`IncrementalAnalyzer` — the bucket algorithm as a stream: each
  snapshot credits the ids that died since the one before and is then
  dropped, so peak memory is O(live ids), not O(ids × snapshots); its
  artifact is the canonical :class:`~repro.core.sttree.STTree` IR;
* :class:`ProfileBuilder` — the profiling entry point: takes the
  allocation records, is fed one snapshot at a time, and flattens the
  finished IR into an :class:`~repro.core.profile.AllocationProfile`.

A profiled VM's :class:`~repro.core.dumper.Dumper` feeds
:meth:`ProfileBuilder.feed_snapshot` directly, with the Recorder's live
:class:`~repro.core.recorder.AllocationRecords`; an on-disk recording
(:func:`~repro.core.offline.analyze_recording`) feeds the same builder
from ``snapshots.bin`` with the records loaded from its directory.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.analyzer import (
    LifetimeDistribution,
    build_trace_tree,
    estimate_trace_generations,
    lifetime_distributions,
)
from repro.core.profile import AllocationProfile
from repro.core.recorder import AllocationRecords
from repro.core.sttree import STTree
from repro.errors import ProfileError
from repro.snapshot.snapshot import Snapshot


class IncrementalAnalyzer:
    """The bucket algorithm as a bounded-memory stream.

    Survival counting runs per arriving snapshot over :attr:`born_at`,
    which maps each id alive in the last snapshot to the index of the
    snapshot it became alive at: an id gone from the new snapshot is
    credited the length of its interval and dropped, and an id new to it
    enters at the new index.  Crediting interval lengths sums to exactly
    the number of snapshots each id appears live in.

    ``records`` (the trace table and per-trace id streams) is read only
    by :meth:`finish`, so a live Recorder's records may still grow
    while snapshots arrive.

    Memory: the analyzer keeps the survival counts and :attr:`born_at`
    (id ints, no snapshot references) — O(live ids) overall.
    """

    def __init__(
        self,
        records: AllocationRecords,
        max_generations: int = 16,
        min_samples: int = 8,
    ) -> None:
        if max_generations < 2:
            raise ProfileError("max_generations must be >= 2")
        self.records = records
        self.max_generations = max_generations
        self.min_samples = min_samples
        self.snapshots_seen = 0
        self._counts: Dict[int, int] = {}
        #: id alive in the last snapshot -> index of the snapshot it
        #: became alive at.
        self.born_at: Dict[int, int] = {}
        self._tree: Optional[STTree] = None
        #: Per-trace survival histograms and estimated generations, kept
        #: by :meth:`finish` for :meth:`site_report` and demographics.
        self.distributions: Dict[int, LifetimeDistribution] = {}
        self.estimates: Dict[int, int] = {}

    # -- event intake ----------------------------------------------------------------

    def on_snapshot(self, snapshot: Snapshot) -> None:
        if self._tree is not None:
            raise ProfileError("IncrementalAnalyzer is already finished")
        index = self.snapshots_seen
        live = snapshot.live_object_ids
        born_at = self.born_at
        counts = self._counts
        for object_id in born_at.keys() - live:
            counts[object_id] = (
                counts.get(object_id, 0) + index - born_at.pop(object_id)
            )
        born_at.update(dict.fromkeys(live.difference(born_at), index))
        self.snapshots_seen += 1

    def finish(self) -> STTree:
        """Credit the ids still alive and fold counts into the STTree IR."""
        if self._tree is not None:
            return self._tree
        total = self.snapshots_seen
        born_at = self.born_at
        counts = self._counts
        # Ids allocated after the last snapshot carry no lifetime signal.
        cutoff = max(born_at) if born_at else None
        for object_id, birth in born_at.items():
            counts[object_id] = counts.get(object_id, 0) + total - birth
        born_at.clear()
        self.distributions = lifetime_distributions(
            self.records, self._counts, cutoff
        )
        self.estimates = estimate_trace_generations(
            self.distributions, self.max_generations, self.min_samples
        )
        self._tree = build_trace_tree(self.records, self.estimates)
        return self._tree

    def site_report(self, max_sites: int = 40) -> str:
        """Human-readable per-trace lifetime distributions.

        One line per allocation stack trace (busiest first): sample count,
        the survival histogram folded into generation classes, and the
        estimated generation.  This is the "application allocation
        profile" a human would review before trusting the instrumentation.
        Finishes the analysis if it is still open.
        """
        self.finish()
        distributions = self.distributions
        rows = sorted(
            distributions.items(),
            key=lambda item: item[1].sample_count,
            reverse=True,
        )[:max_sites]
        lines = [
            "allocation-site lifetime report "
            f"({len(distributions)} traces, {self.snapshots_seen} snapshots)",
            f"{'allocation site (innermost frame)':<52} {'samples':>8} "
            f"{'gen':>4}  survival histogram",
        ]
        for trace_id, dist in rows:
            trace = self.records.traces[trace_id]
            leaf = trace[-1]
            site = f"{leaf[0].split('.')[-1]}.{leaf[1]}:{leaf[2]}"
            if len(trace) > 1:
                caller = trace[-2]
                site += f" (via {caller[1]}:{caller[2]})"
            votes = dist.generation_votes(self.max_generations)
            histogram = " ".join(
                f"g{gen}:{count}" for gen, count in sorted(votes.items())
            )
            lines.append(
                f"{site:<52} {dist.sample_count:>8} "
                f"{self.estimates.get(trace_id, 0):>4}  {histogram}"
            )
        return "\n".join(lines)


class ProfileBuilder:
    """The profiling entry point: records in, snapshots fed, profile out.

    Both deployment shapes run through here — a live VM's Dumper calling
    :meth:`feed_snapshot` as each snapshot is taken, or
    :func:`~repro.core.offline.analyze_recording` replaying a recording
    from disk — so there is exactly one analysis code path.
    """

    def __init__(
        self,
        records: AllocationRecords,
        max_generations: int = 16,
        min_samples: int = 8,
        push_up: bool = True,
    ) -> None:
        self.push_up = push_up
        self.analyzer = IncrementalAnalyzer(
            records, max_generations=max_generations, min_samples=min_samples
        )

    # -- event intake ----------------------------------------------------------------

    def feed_snapshot(self, snapshot: Snapshot) -> None:
        self.analyzer.on_snapshot(snapshot)

    # -- output ----------------------------------------------------------------------

    def build(
        self,
        workload: str = "unknown",
        metadata: Optional[Dict[str, object]] = None,
    ) -> AllocationProfile:
        """Finish the analysis and flatten its IR into a profile."""
        tree = self.analyzer.finish()
        records = self.analyzer.records
        meta: Dict[str, object] = {
            "snapshots_analyzed": self.analyzer.snapshots_seen,
            "traces_analyzed": records.trace_count,
            "allocations_recorded": records.total_allocations,
            "push_up": self.push_up,
        }
        if metadata:
            meta.update(metadata)
        return AllocationProfile.from_sttree(
            tree, workload=workload, push_up=self.push_up, metadata=meta
        )
