"""A ``-Xlog:gc``-style textual GC log.

Subscribes to ``GC_END`` on the VM's event bus, so it works with any
collector; renders each pause the way HotSpot's unified logging does,
which makes simulated runs easy to eyeball and lets the examples show
familiar-looking output::

    [12.345s] GC(7) Pause Young (NG2C) 18M->6M(64M) 3.219ms
    [14.001s] GC(8) Pause Gen (NG2C) freed 142 regions wholesale 1.108ms
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.gc.events import GCPause
from repro.runtime.events import GC_END, GCEndEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.vm import VM

_MIB = 1024 * 1024


class GCLog:
    """Collects formatted log lines for every GC pause."""

    def __init__(self, vm: "VM") -> None:
        self.vm = vm
        self.lines: List[str] = []
        self._before_bytes: Optional[int] = None
        if vm.collector is None:
            raise ValueError("attach a collector before enabling the GC log")
        vm.events.subscribe(GC_END, self._on_gc_end)

    def _on_gc_end(self, event: GCEndEvent) -> None:
        pause = event.pause
        heap = self.vm.heap
        after = heap.used_bytes
        before = self._before_bytes if self._before_bytes is not None else after
        capacity = self.vm.config.heap_bytes
        detail = self._detail(pause)
        self.lines.append(
            f"[{pause.start_ms / 1000.0:9.3f}s] GC({pause.cycle}) "
            f"Pause {pause.kind.capitalize()} ({pause.collector}) "
            f"{before // _MIB}M->{after // _MIB}M({capacity // _MIB}M) "
            f"{pause.duration_ms:.3f}ms{detail}"
        )
        self._before_bytes = after

    @staticmethod
    def _detail(pause: GCPause) -> str:
        stats = pause.stats
        parts = []
        if stats.get("promoted_bytes"):
            parts.append(f"promoted {stats['promoted_bytes'] // 1024}K")
        if stats.get("compacted_bytes"):
            parts.append(f"compacted {stats['compacted_bytes'] // 1024}K")
        if stats.get("regions_freed_wholesale"):
            parts.append(
                f"freed {stats['regions_freed_wholesale']} regions wholesale"
            )
        if not parts:
            return ""
        return " (" + ", ".join(parts) + ")"

    def tail(self, count: int = 10) -> List[str]:
        return self.lines[-count:]

    def render(self) -> str:
        return "\n".join(self.lines)

    def __len__(self) -> int:
        return len(self.lines)
