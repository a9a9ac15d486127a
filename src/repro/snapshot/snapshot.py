"""Snapshot records and the store that orders them.

Two in-memory representations exist, mirroring the paper's two dump
engines:

* **full** — the snapshot owns its complete ``live_object_ids`` set
  (what a jmap ``.hprof`` dump contains);
* **delta** — the snapshot stores only ``born_ids``/``dead_ids`` relative
  to its predecessor (what a CRIU incremental image directory contains,
  §4.3); the cumulative live-set is materialized lazily on first access
  and cached.

Delta encoding cuts both resident memory and (de)serialization cost by
roughly the live/dirty ratio — the same economics that make the paper's
incremental checkpoints viable.

Id sets (``born_ids``/``dead_ids``/``live_object_ids``) are
:class:`~repro.core.idset.IdSet` kernels, not frozensets: chunked
sorted-run/bitmap containers whose set algebra runs as big-int bitwise
passes.  On disk, a store is one binary columnar file
(``snapshots.bin``, schema ``polm2-snapshots-v2`` — see
:mod:`repro.snapshot.binstore`) holding either representation.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Iterator, List, Optional

from repro.core.idset import EMPTY_IDSET, IdSet


class Snapshot:
    """One memory snapshot.

    ``live_object_ids`` is the *logical* content: the identity hash codes
    of every reachable object at dump time, i.e. what the analyzer sees
    after reconstructing the process image from the incremental chain and
    reading each object header (paper §4.3).  ``size_bytes`` and
    ``duration_us`` are the *physical* cost of producing this snapshot
    (incremental for CRIU, full for jmap) — the quantities of Figures 3/4.

    A snapshot is constructed either *full* (``live_object_ids=...``) or
    *delta-encoded* (``born_ids=...``, ``dead_ids=...``, plus the
    ``predecessor`` snapshot the delta applies to; ``predecessor=None``
    means the delta applies to the empty heap).  For delta snapshots the
    cumulative live-set is materialized on first ``live_object_ids``
    access — walking the predecessor chain iteratively, caching every
    set it computes along the way — so repeated access is O(1).
    """

    __slots__ = (
        "seq",
        "time_ms",
        "engine",
        "pages_written",
        "size_bytes",
        "duration_us",
        "incremental",
        "born_ids",
        "dead_ids",
        "_predecessor",
        "_predecessor_released",
        "_live_ids",
        # Weak referencing lets the memory-accounting tests observe that
        # the streaming stages really drop snapshots after consuming them.
        "__weakref__",
    )

    def __init__(
        self,
        seq: int,
        time_ms: float,
        engine: str,
        pages_written: int,
        size_bytes: int,
        duration_us: float,
        live_object_ids=None,
        incremental: bool = True,
        born_ids=None,
        dead_ids=None,
        predecessor: Optional["Snapshot"] = None,
    ) -> None:
        self.seq = seq
        self.time_ms = time_ms
        self.engine = engine
        self.pages_written = pages_written
        self.size_bytes = size_bytes
        self.duration_us = duration_us
        self.incremental = incremental
        if live_object_ids is None and (born_ids is None or dead_ids is None):
            raise ValueError(
                "Snapshot needs live_object_ids or born_ids + dead_ids"
            )
        self.born_ids = None if born_ids is None else IdSet.coerce(born_ids)
        self.dead_ids = None if dead_ids is None else IdSet.coerce(dead_ids)
        self._predecessor = predecessor
        self._predecessor_released = False
        self._live_ids = (
            None if live_object_ids is None else IdSet.coerce(live_object_ids)
        )

    # -- representation ------------------------------------------------------------

    @property
    def is_delta(self) -> bool:
        """True when this snapshot is stored as a born/dead delta."""
        return self.born_ids is not None and self.dead_ids is not None

    @property
    def predecessor(self) -> Optional["Snapshot"]:
        """The snapshot this delta applies to (None: the empty heap)."""
        return self._predecessor

    @property
    def is_materialized(self) -> bool:
        """True when the cumulative live-set is already computed."""
        return self._live_ids is not None

    @property
    def live_object_ids(self) -> IdSet:
        if self._live_ids is None:
            # Materialize iteratively (a long chain would blow the stack
            # if done recursively), caching every intermediate set so a
            # forward scan over the store is O(live) per snapshot.
            chain: List[Snapshot] = []
            node: Optional[Snapshot] = self
            while node is not None and node._live_ids is None:
                if node._predecessor_released:
                    from repro.errors import SnapshotError

                    raise SnapshotError(
                        f"cannot materialize snapshot seq={self.seq}: "
                        f"seq={node.seq} released its predecessor after "
                        "the streaming stages consumed it"
                    )
                chain.append(node)
                node = node._predecessor
            live = EMPTY_IDSET if node is None else node._live_ids
            for snap in reversed(chain):
                live = (live | snap.born_ids) - snap.dead_ids
                snap._live_ids = live
        return self._live_ids

    @property
    def live_count(self) -> int:
        return len(self.live_object_ids)

    def release_predecessor(self) -> None:
        """Drop the reference to the predecessor snapshot.

        The serve-cycle engine calls this once the streaming stages have
        consumed a chained delta's born/dead sets: nothing downstream
        re-materializes old images, so keeping the whole chain alive
        would grow daemon memory by one snapshot per checkpoint — the
        gprofiler memory-never-drains failure mode.  Materializing an
        unmaterialized delta after its chain was released raises
        :class:`~repro.errors.SnapshotError` rather than silently
        computing a wrong live set.
        """
        if self._predecessor is None:
            return
        if self._live_ids is None and self.is_delta:
            self._predecessor_released = True
        self._predecessor = None

    # -- value semantics (the previous frozen-dataclass contract) -------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.time_ms == other.time_ms
            and self.engine == other.engine
            and self.pages_written == other.pages_written
            and self.size_bytes == other.size_bytes
            and self.duration_us == other.duration_us
            and self.incremental == other.incremental
            and self.live_object_ids == other.live_object_ids
        )

    def __hash__(self) -> int:
        return hash((self.seq, self.time_ms, self.engine))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "delta" if self.is_delta else "full"
        return (
            f"Snapshot(seq={self.seq}, t={self.time_ms:.1f}ms, "
            f"engine={self.engine!r}, {kind})"
        )

    # -- payload dict: one line of the legacy JSON-lines layout.  Tests
    # -- and the snapshot-I/O benchmark write it to check that the binary
    # -- readers reject it and to size the binary layout against it.

    def to_dict(self) -> Dict:
        """Native representation: delta snapshots emit born/dead only."""
        payload = {
            "seq": self.seq,
            "time_ms": self.time_ms,
            "engine": self.engine,
            "pages_written": self.pages_written,
            "size_bytes": self.size_bytes,
            "duration_us": self.duration_us,
            "incremental": self.incremental,
        }
        if self.is_delta:
            payload["born_ids"] = self.born_ids.to_list()
            payload["dead_ids"] = self.dead_ids.to_list()
        else:
            payload["live_object_ids"] = self.live_object_ids.to_list()
        return payload


class SnapshotView(Sequence):
    """Read-only, zero-copy view over a store's snapshot list.

    Returned by :attr:`SnapshotStore.snapshots`; the figure drivers
    iterate it in hot loops, so property access must be
    O(1) — the store used to return ``list(...)`` copies, O(n) per call.
    Slicing returns a plain list (callers take prefixes for plots).
    """

    __slots__ = ("_items",)

    def __init__(self, items: List[Snapshot]) -> None:
        self._items = items

    def __getitem__(self, index):
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Snapshot]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotView({self._items!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SnapshotView):
            return self._items == other._items
        if isinstance(other, list):
            return self._items == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment] - mutable underlying list


class SnapshotStore:
    """Time-ordered snapshot sequence for one profiling run."""

    def __init__(self) -> None:
        self._snapshots: List[Snapshot] = []
        self._view = SnapshotView(self._snapshots)

    def append(self, snapshot: Snapshot) -> None:
        if self._snapshots and snapshot.time_ms < self._snapshots[-1].time_ms:
            raise ValueError("snapshots must be appended in time order")
        if snapshot.is_delta and not snapshot.is_materialized:
            # Delta validation: an unmaterialized delta is only decodable
            # if it chains from the snapshot appended just before it.
            predecessor = snapshot.predecessor
            expected = self._snapshots[-1] if self._snapshots else None
            if predecessor is not expected:
                raise ValueError(
                    "delta snapshot must chain from the store's last "
                    f"snapshot (seq={snapshot.seq} has predecessor "
                    f"{predecessor!r}, store tail is {expected!r})"
                )
        self._snapshots.append(snapshot)

    @property
    def snapshots(self) -> SnapshotView:
        """Immutable, O(1) view of the ordered snapshots."""
        return self._view

    def trim(self, keep_last: int = 1) -> int:
        """Drop all but the newest ``keep_last`` snapshots; returns the
        number dropped.

        The serve-cycle engine trims after the streaming stages consume
        each snapshot so daemon memory stays bounded by the cycle, not
        the run.  Mutates the list in place — existing views stay
        coherent.
        """
        if keep_last < 0:
            raise ValueError("keep_last cannot be negative")
        dropped = max(0, len(self._snapshots) - keep_last)
        if dropped:
            del self._snapshots[:dropped]
        return dropped

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self):
        return iter(self._snapshots)

    def __getitem__(self, index: int) -> Snapshot:
        return self._snapshots[index]

    def total_bytes(self) -> int:
        return sum(s.size_bytes for s in self._snapshots)

    # -- persistence: the binary columnar store ------------------------------------

    def save(self, path: str) -> None:
        """Persist every snapshot in its native (delta or full) form as
        a binary columnar ``polm2-snapshots-v2`` file (see
        :mod:`repro.snapshot.binstore`)."""
        from repro.snapshot import binstore

        binstore.write_store(path, self._snapshots)

    @classmethod
    def iter_file(cls, path: str) -> Iterator[Snapshot]:
        """Stream snapshots from a binary store, one at a time.

        A file in any other layout fails with a one-line
        :class:`~repro.errors.ProfileFormatError` naming ``path``.
        Unlike :meth:`load`, nothing here retains the whole sequence:
        each delta chains onto the previous snapshot (so lazy live-set
        decoding still works) but the *caller* decides what stays alive
        — the streaming analyzer keeps only the latest, so replaying a
        recording never materializes every live set at once.
        """
        from repro.snapshot import binstore

        yield from binstore.iter_binary(path)

    @classmethod
    def load(cls, path: str) -> "SnapshotStore":
        """Read a binary store; deltas chain onto the previous snapshot."""
        store = cls()
        for snapshot in cls.iter_file(path):
            store.append(snapshot)
        return store
