"""Streaming profile pipeline: the one analysis path.

The paper's Analyzer (§3.3) matches every recorded id against every
snapshot.  Here that dataflow runs one event at a time, the shape
ROLP-style runtime profilers use:

* :class:`IncrementalAnalyzer` — the bucket algorithm as a stream: each
  snapshot is credited into per-birth-index cohorts on arrival and then
  dropped, so peak memory is O(live ids), not O(ids × snapshots); its
  artifact is the canonical :class:`~repro.core.sttree.STTree` IR;
* :class:`ProfileBuilder` — the profiling entry point: feeds the
  analyzer from a source and flattens the finished IR into an
  :class:`~repro.core.profile.AllocationProfile`;
* two sources driving the same builder: :class:`RecordingDirSource`
  replays an on-disk recording directory (the offline workflow, whose
  one entry point is :func:`~repro.core.offline.analyze_recording`) and
  :class:`LiveVMSource` is a VMAgent subscribing to snapshot-point
  events inside the profiled VM (the streaming workflow; the serve
  cycle's :class:`~repro.serve.cycle.BoundedLiveSource` is the same
  source with a trimmed snapshot store).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, Optional, TYPE_CHECKING

from repro.core.analyzer import (
    LifetimeDistribution,
    build_trace_tree,
    credit_counts,
    estimate_trace_generations,
    lifetime_distributions,
)
from repro.core.idset import IdSet
from repro.core.profile import AllocationProfile
from repro.core.recorder import AllocationRecords
from repro.core.sttree import STTree
from repro.errors import ProfileError, ProfileFormatError
from repro.runtime.events import SnapshotPointEvent, VMAgent
from repro.snapshot.snapshot import Snapshot, SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dumper import Dumper
    from repro.core.recorder import Recorder

#: Files of a recording directory.  Kept here, next to the code that
#: replays them; ``repro.core.offline`` re-exports both.
SNAPSHOTS_BIN_FILE = "snapshots.bin"
META_FILE = "meta.json"

#: Version of the recording-directory layout (``meta.json`` +
#: ``traces.json`` + ``streams.bin`` + ``snapshots.bin``).  Readers
#: accept this version and older; newer versions fail with a one-line
#: error instead of misparsing.
RECORDING_SCHEMA_VERSION = 1


class IncrementalAnalyzer:
    """The bucket algorithm as a bounded-memory stream.

    Survival counting is a delta-chain cohort algebra applied per
    arriving snapshot: ids are grouped into per-birth-index cohorts,
    deaths peel off each cohort and credit the interval length.  A
    snapshot that does not chain onto the previously seen one (a full
    image, or a delta from elsewhere) is synthesized into a born/dead
    pair against the union of the live cohorts — crediting interval
    lengths over those synthesized deltas sums to exactly the number of
    snapshots each id appears live in, so the resulting STTree is the
    same whichever way the snapshots are encoded.

    Memory: the analyzer keeps the survival counts, the live cohorts (id
    ints, no snapshot references), and the latest snapshot (for the
    chain identity check) — never more than two snapshots' id sets at
    once, and O(live ids) overall.
    """

    def __init__(self, max_generations: int = 16, min_samples: int = 8) -> None:
        if max_generations < 2:
            raise ProfileError("max_generations must be >= 2")
        self.max_generations = max_generations
        self.min_samples = min_samples
        self.records: Optional[AllocationRecords] = None
        self.snapshots_seen = 0
        self._counts: Dict[int, int] = {}
        #: birth index -> ids born there and still alive.
        self._cohorts: Dict[int, IdSet] = {}
        self._previous: Optional[Snapshot] = None
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
        chained = snapshot.is_delta and snapshot.predecessor is self._previous
        if chained:
            born, dead = snapshot.born_ids, snapshot.dead_ids
        else:
            # Full image or out-of-chain delta: synthesize the delta
            # against what the cohorts say is currently live.
            live = snapshot.live_object_ids
            current = IdSet.union_all(self._cohorts.values())
            born = live - current
            dead = current - live
        if dead:
            for birth in list(self._cohorts):
                cohort = self._cohorts[birth]
                died = cohort & dead
                if died:
                    remaining = cohort - died
                    if remaining:
                        self._cohorts[birth] = remaining
                    else:
                        del self._cohorts[birth]
                    credit_counts(self._counts, died, index - birth)
        if born:
            self._cohorts[index] = born
        self._previous = snapshot
        self.snapshots_seen += 1

    def on_trace_flush(self, records: AllocationRecords) -> None:
        if self.records is not None and self.records is not records:
            raise ProfileError(
                "IncrementalAnalyzer is already bound to different "
                "allocation records"
            )
        self.records = records

    def finish(self) -> STTree:
        """Close the open cohorts and fold counts into the STTree IR."""
        if self._tree is not None:
            return self._tree
        if self.records is None:
            raise ProfileError(
                "no allocation records flushed into the analyzer; feed "
                "on_trace_flush() before finish()"
            )
        total = self.snapshots_seen
        cutoff = None
        for birth, cohort in self._cohorts.items():
            cohort_max = cohort.max()
            if cutoff is None or cohort_max > cutoff:
                cutoff = cohort_max
            credit_counts(self._counts, cohort, total - birth)
        self._cohorts.clear()
        self._previous = None
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
    """The profiling entry point: an analyzer fed by a source, profile out.

    Both deployment shapes run through here — a
    :class:`RecordingDirSource` replaying a recording from disk
    (:func:`~repro.core.offline.analyze_recording`), or a
    :class:`LiveVMSource` pushing events during the profiling run — so
    there is exactly one analysis code path.
    """

    def __init__(
        self,
        max_generations: int = 16,
        min_samples: int = 8,
        push_up: bool = True,
    ) -> None:
        self.push_up = push_up
        self.analyzer = IncrementalAnalyzer(
            max_generations=max_generations, min_samples=min_samples
        )

    # -- event intake ----------------------------------------------------------------

    def feed_snapshot(self, snapshot: Snapshot) -> None:
        self.analyzer.on_snapshot(snapshot)

    def feed_trace_flush(self, records: AllocationRecords) -> None:
        self.analyzer.on_trace_flush(records)

    # -- output ----------------------------------------------------------------------

    def build(
        self,
        workload: str = "unknown",
        metadata: Optional[Dict[str, object]] = None,
    ) -> AllocationProfile:
        """Finish the analysis and flatten its IR into a profile."""
        tree = self.analyzer.finish()
        records = self.analyzer.records
        assert records is not None  # finish() above guarantees it
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


class RecordingDirSource:
    """Replays an on-disk recording directory through a ProfileBuilder.

    Validates ``meta.json`` up front (missing, corrupt, or
    newer-than-supported recordings fail with a
    :class:`~repro.errors.ProfileFormatError` naming the offending path
    and the expected schema version) and streams ``snapshots.bin`` one
    snapshot at a time, so replay memory matches the live source's.
    """

    def __init__(self, recording_dir: str) -> None:
        self.recording_dir = recording_dir
        meta_path = os.path.join(recording_dir, META_FILE)
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ProfileFormatError(
                f"{meta_path}: not a readable recording meta (expected "
                f"recording schema v{RECORDING_SCHEMA_VERSION}): {exc}"
            ) from exc
        if not isinstance(meta, dict):
            raise ProfileFormatError(
                f"{meta_path}: recording meta must be a JSON object "
                f"(expected recording schema v{RECORDING_SCHEMA_VERSION})"
            )
        version = meta.get("schema_version", 1)
        if not isinstance(version, int) or version < 1:
            raise ProfileFormatError(
                f"{meta_path}: invalid recording schema_version {version!r} "
                f"(expected an int <= {RECORDING_SCHEMA_VERSION})"
            )
        if version > RECORDING_SCHEMA_VERSION:
            raise ProfileFormatError(
                f"{meta_path}: recording schema v{version} is newer than "
                f"the supported v{RECORDING_SCHEMA_VERSION}; upgrade repro "
                "to read it"
            )
        self.meta = meta

    @property
    def workload(self) -> str:
        return str(self.meta.get("workload", "unknown"))

    @property
    def max_generations(self) -> int:
        return int(self.meta.get("max_generations", 16))

    def iter_snapshots(self) -> Iterator[Snapshot]:
        path = os.path.join(self.recording_dir, SNAPSHOTS_BIN_FILE)
        try:
            yield from SnapshotStore.iter_file(path)
        except OSError as exc:
            raise ProfileFormatError(
                f"{path}: cannot read recording snapshots (recording "
                f"schema v{RECORDING_SCHEMA_VERSION}): {exc}"
            ) from exc
        except ValueError as exc:
            raise ProfileFormatError(
                f"{path}: corrupt snapshot store (recording schema "
                f"v{RECORDING_SCHEMA_VERSION}): {exc}"
            ) from exc

    def load_records(self) -> AllocationRecords:
        return AllocationRecords.load_from_dir(self.recording_dir)

    def replay(self, builder: ProfileBuilder) -> None:
        for snapshot in self.iter_snapshots():
            builder.feed_snapshot(snapshot)
        builder.feed_trace_flush(self.load_records())


class LiveVMSource(VMAgent):
    """Streams a live VM's snapshot points into a ProfileBuilder.

    Attach AFTER the Dumper: snapshot-point listeners run in attachment
    order, so the Dumper's snapshot is already in its store when this
    agent forwards it.  Call :meth:`flush` once the run ends to hand the
    Recorder's completed streams to the analyzer.  The store is left
    whole; the serve cycle's
    :class:`~repro.serve.cycle.BoundedLiveSource` trims it.
    """

    def __init__(
        self,
        builder: ProfileBuilder,
        recorder: "Recorder",
        dumper: "Dumper",
    ) -> None:
        self.builder = builder
        self.recorder = recorder
        self.dumper = dumper
        self.snapshots_streamed = 0
        self._last: Optional[Snapshot] = None

    def on_snapshot_point(self, event: SnapshotPointEvent) -> None:
        store = self.dumper.store
        # The newest snapshot, not the store's length: a trimming
        # subclass keeps only the last one.
        if len(store) == 0 or store[-1] is self._last:
            raise ProfileError(
                f"{type(self).__name__} saw a snapshot point before the "
                "Dumper's snapshot landed; attach the Dumper first"
            )
        self._last = store[-1]
        self.builder.feed_snapshot(self._last)
        self.snapshots_streamed += 1

    def flush(self) -> None:
        """End of run: flush the Recorder's streams into the analyzer."""
        self.builder.feed_trace_flush(self.recorder.records)

    def telemetry(self) -> Dict[str, int]:
        return {"snapshots_streamed": self.snapshots_streamed}
