"""Outside-in tracer for the end-to-end benchmark.

The tracer never edits ``src/``: while it is installed it replaces
public methods *on their classes* with timing wrappers, and on exit it
puts the original functions back, so an untraced run executes
unmodified code.

Two kinds of wrapper share one frame stack per thread:

* **spans** mark coarse boundaries (a phase, a GC collection, a
  snapshot, a serve cycle, an HTTP request).  Every call is kept as a
  record with its parent span, start, end and self time.
* **counters** mark hot per-object entry points (``allocate*``,
  ``write_ref``, Recorder hooks, ``tick``).  They keep no record per
  call, only ``calls``/``busy``/``self`` sums per (enclosing span, name).

A frame's self time is its busy time minus the busy time of the wrapped
calls made directly inside it.  Each wrapped call also pays for the
wrapper; :func:`calibrate_wrapper_ns` measures that cost and
:meth:`Tracer.totals` removes it: once from the caller's self time per
direct wrapped child, and once from every ancestor's busy time per
wrapped descendant.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Phase name of work done outside any span.
ROOT = "-"

# A frame is a list mutated in place: [child busy s, direct wrapped
# children, wrapped descendants, enclosing span name, enclosing span id].
_CHILD_BUSY, _CHILD_CALLS, _DESCENDANTS, _PHASE, _SPAN_ID = range(5)

#: Amount extractor: ``(args, kwargs) -> int`` summed per counter.
Amount = Callable[[tuple, dict], int]


class _ThreadState:
    """One thread's frame stack, counter sums and finished spans."""

    def __init__(self) -> None:
        self.thread = threading.current_thread().name
        self.root = [0.0, 0, 0, ROOT, None]
        self.stack: List[list] = [self.root]
        #: (phase, name) -> [calls, busy, self, child calls, descendants, amount]
        self.stats: Dict[Tuple[str, str], list] = {}
        self.spans: List[tuple] = []


def _close(
    state: _ThreadState,
    parent: list,
    frame: list,
    name: str,
    start: float,
    end: float,
    is_span: bool,
    amount: int,
) -> None:
    busy = end - start
    own = busy - frame[_CHILD_BUSY]
    key = (parent[_PHASE], name)
    agg = state.stats.get(key)
    if agg is None:
        agg = state.stats[key] = [0, 0.0, 0.0, 0, 0, 0]
    agg[0] += 1
    agg[1] += busy
    agg[2] += own
    agg[3] += frame[_CHILD_CALLS]
    agg[4] += frame[_DESCENDANTS]
    agg[5] += amount
    parent[_CHILD_BUSY] += busy
    parent[_CHILD_CALLS] += 1
    parent[_DESCENDANTS] += 1 + frame[_DESCENDANTS]
    if is_span:
        state.spans.append(
            (
                frame[_SPAN_ID],
                parent[_SPAN_ID],
                name,
                state.thread,
                start,
                end,
                own,
                frame[_CHILD_CALLS],
                frame[_DESCENDANTS],
            )
        )


class Tracer:
    """Class-level method wrappers plus per-thread span/counter sums.

    Register targets with :meth:`span`, :meth:`counter` and
    :meth:`instances`, then use the tracer as a context manager: entering
    installs every wrapper, leaving restores every original.
    """

    def __init__(self, wrapper_ns: float = 0.0) -> None:
        self.wrapper_ns = wrapper_ns
        self._targets: List[Tuple[type, str, Callable[[Callable], Callable]]] = []
        self._saved: List[Tuple[type, str, Optional[object]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._span_ids = itertools.count(1)
        self._instances: Dict[str, list] = {}

    # -- registration ----------------------------------------------------------

    def span(self, owner: type, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span named ``name``."""
        self._targets.append((owner, attr, self._wrapping(name, True, None)))

    def counter(
        self, owner: type, attr: str, name: str, amount: Optional[Amount] = None
    ) -> None:
        """Sum calls/busy/self of ``owner.attr`` under ``name``; with
        ``amount``, also sum ``amount(args, kwargs)`` (e.g. batch sizes)."""
        self._targets.append((owner, attr, self._wrapping(name, False, amount)))

    def instances(self, owner: type, name: str) -> None:
        """Keep every ``owner`` constructed while installed, so counters the
        program already keeps (a heap's allocation totals) can be read."""
        found = self._instances.setdefault(name, [])

        def wrapping(init: Callable) -> Callable:
            @functools.wraps(init)
            def tracked_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                found.append(obj)

            return tracked_init

        self._targets.append((owner, "__init__", wrapping))

    def instances_of(self, name: str) -> list:
        return list(self._instances.get(name, ()))

    # -- install / restore -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, wrapping in self._targets:
                self._saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapping(getattr(owner, attr)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self._restore()

    def _restore(self) -> None:
        # Newest first, so a method wrapped twice gets its original back.
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is None:
                delattr(owner, attr)  # the wrapper shadowed an inherited one
            else:
                setattr(owner, attr, own)

    # -- the wrappers ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _wrapping(
        self, name: str, is_span: bool, amount: Optional[Amount]
    ) -> Callable[[Callable], Callable]:
        local = self._local
        state_of = self._state
        span_ids = self._span_ids
        clock = time.perf_counter

        def wrapping(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = state_of()
                stack = state.stack
                parent = stack[-1]
                if is_span:
                    frame = [0.0, 0, 0, name, next(span_ids)]
                else:
                    frame = [0.0, 0, 0, parent[_PHASE], parent[_SPAN_ID]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    _close(
                        state,
                        parent,
                        frame,
                        name,
                        start,
                        end,
                        is_span,
                        0 if amount is None else amount(args, kwargs),
                    )

            return wrapper

        return wrapping

    def region(self, name: str) -> "_Region":
        """A span the benchmark opens itself, around a call into a layer."""
        return _Region(self, name)

    # -- results ---------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per name over every thread: ``calls``, ``amount``, ``busy_s`` and
        ``self_s`` with the wrapper cost removed, and ``raw_busy_s`` as
        measured."""
        w = self.wrapper_ns * 1e-9
        out: Dict[str, Dict[str, float]] = {}
        for state in list(self._states):
            for (_phase, name), agg in list(state.stats.items()):
                calls, busy, own, child_calls, descendants, amount = agg
                row = out.setdefault(
                    name,
                    dict.fromkeys(
                        ("calls", "amount", "busy_s", "self_s", "raw_busy_s"),
                        0,
                    ),
                )
                net_busy = max(0.0, busy - descendants * w)
                row["calls"] += calls
                row["amount"] += amount
                row["raw_busy_s"] += busy
                row["busy_s"] += net_busy
                row["self_s"] += min(net_busy, max(0.0, own - child_calls * w))
        return out

    def dump(self) -> Dict[str, object]:
        """JSON-ready spans and per-phase counters of every thread."""
        spans = []
        counters = []
        for state in list(self._states):
            for sid, parent, name, thread, start, end, own, kids, desc in list(
                state.spans
            ):
                spans.append(
                    {
                        "id": sid,
                        "parent": parent,
                        "name": name,
                        "thread": thread,
                        "start": start,
                        "end": end,
                        "busy_s": end - start,
                        "self_s": own,
                        "child_calls": kids,
                        "descendants": desc,
                    }
                )
            for (phase, name), agg in sorted(list(state.stats.items())):
                counters.append(
                    {
                        "thread": state.thread,
                        "phase": phase,
                        "name": name,
                        "calls": agg[0],
                        "busy_s": agg[1],
                        "self_s": agg[2],
                        "child_calls": agg[3],
                        "descendants": agg[4],
                        "amount": agg[5],
                    }
                )
        spans.sort(key=lambda span: span["start"])
        return {"wrapper_ns": self.wrapper_ns, "spans": spans, "counters": counters}


class _Region:
    """Context-manager span pushed on the calling thread's stack."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.state = self.tracer._state()
        self.parent = self.state.stack[-1]
        self.frame = [0.0, 0, 0, self.name, next(self.tracer._span_ids)]
        self.state.stack.append(self.frame)
        self.start = time.perf_counter()

    def __exit__(self, *_exc) -> None:
        end = time.perf_counter()
        self.state.stack.pop()
        _close(
            self.state, self.parent, self.frame, self.name, self.start, end, True, 0
        )


def calibrate_wrapper_ns(calls: int = 100_000, trials: int = 5) -> float:
    """Per-call cost of a counter wrapper, in nanoseconds.

    Times ``calls`` calls of an empty method, passed positional and
    keyword arguments as the wrapped entry points are, with and without
    a counter wrapper inside an open region, and returns the median
    difference over ``trials``.
    """

    class Probe:
        def hit(self, thread, site, size, refs=()) -> None:
            return None

    probe = Probe()
    costs = []
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(calls):
            probe.hit(1, 2, 3, refs=())
        plain = time.perf_counter() - start
        tracer = Tracer()
        tracer.counter(Probe, "hit", "probe")
        with tracer, tracer.region("calibrate"):
            start = time.perf_counter()
            for _ in range(calls):
                probe.hit(1, 2, 3, refs=())
            wrapped = time.perf_counter() - start
        costs.append((wrapped - plain) / calls * 1e9)
    return max(0.0, statistics.median(costs))
