"""Snapshot records.

A snapshot is one form for both of the paper's dump engines: its
metadata plus ``live_object_ids``, the complete live set at dump time.
Incrementality belongs to the image on disk, as in the paper (the
Analyzer reconstructs each full CRIU image before it reads object
headers, §4.3): ``snapshots.bin`` (schema ``polm2-snapshots-v2``, see
:mod:`repro.snapshot.binstore`) stores every incremental snapshot as
born/dead ids against the snapshot before it, and reading it back
applies each delta.
"""

from __future__ import annotations

from typing import Dict


class Snapshot:
    """One memory snapshot.

    ``live_object_ids`` is the *logical* content: the identity hash codes
    of every reachable object at dump time, i.e. what the analyzer sees
    after reconstructing the process image from the incremental chain and
    reading each object header (paper §4.3).  ``size_bytes`` and
    ``duration_us`` are the *physical* cost of producing this snapshot
    (incremental for CRIU, full for jmap) — the quantities of Figures 3/4.
    """

    __slots__ = (
        "seq",
        "time_ms",
        "engine",
        "pages_written",
        "size_bytes",
        "duration_us",
        "incremental",
        "live_object_ids",
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
        live_object_ids,
        incremental: bool = True,
    ) -> None:
        self.seq = seq
        self.time_ms = time_ms
        self.engine = engine
        self.pages_written = pages_written
        self.size_bytes = size_bytes
        self.duration_us = duration_us
        self.incremental = incremental
        self.live_object_ids = frozenset(live_object_ids)

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
        return (
            f"Snapshot(seq={self.seq}, t={self.time_ms:.1f}ms, "
            f"engine={self.engine!r}, live={len(self.live_object_ids)})"
        )

    # -- payload dict: one line of a JSON-lines snapshot file.  Tests write
    # -- it to check that the binary reader rejects that layout and to size
    # -- the binary layout against it.

    def to_dict(self) -> Dict:
        return {
            "seq": self.seq,
            "time_ms": self.time_ms,
            "engine": self.engine,
            "pages_written": self.pages_written,
            "size_bytes": self.size_bytes,
            "duration_us": self.duration_us,
            "incremental": self.incremental,
            "live_object_ids": sorted(self.live_object_ids),
        }
