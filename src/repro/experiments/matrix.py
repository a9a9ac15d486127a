"""Fleet-scale experiment matrix: sharded scheduling over a sqlite cache.

The paper's evaluation is a (workload × strategy) grid; statistically
honest tail-latency claims need a (workload × strategy × seed ×
heap-config) *sweep* — hundreds of seeds, thousands of cells.  This
module is the machinery that makes such a sweep practical:

* :class:`CellKey` — one cell of the sweep space, addressable by a
  stable string id that carries workload, strategy, seed, and named
  heap configuration.
* :class:`SqliteCacheBackend` — the keyed result store a sweep lands
  in, opened from a ``sqlite:///PATH`` spec: a whole sweep in a single
  WAL-mode database file that several runner processes can share, so a
  killed sweep resumes from exactly the cells already committed.
* :func:`run_sweep` — the one scheduler.  With ``jobs=1`` it runs every
  cell in-process in deterministic sweep order; with ``jobs > 1`` it is
  a **sharded work-stealing scheduler** over the sweep's per-cell
  dependency DAG.  Cells are sharded across worker slots; a slot that
  drains its shard steals from the fullest one, so a straggler cell
  never idles the rest of the fleet.  A POLM2 production cell unblocks
  the moment *its* (workload, seed, heap) profiling cell lands — there
  is no global profiling barrier.  Results **stream back
  incrementally** as :class:`CellResult` values with live progress
  (cells done/total, cells/sec, ETA); nothing accumulates behind an
  end-of-matrix barrier.
* :func:`_run_profiling_cell` / :func:`_run_production_cell` — the one
  way a cell is computed, in a pool worker or in-process alike
  (:class:`~repro.experiments.runner.ExperimentRunner` computes its
  single cells through them too).
* :func:`pooled_pause_percentiles` — multi-seed aggregation: pause
  samples pooled across seeds with the seed/sample support counts kept
  alongside, so every figure can say how much data backs its tail.

Every cell is deterministic in (workload, strategy, seed, heap-config,
durations) — virtual clock, fixed seed — so ``jobs=1`` and ``jobs > 1``
produce byte-identical cells, and a cache hit is indistinguishable from
a recompute.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import sqlite3
import time
import warnings
import zlib
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.config import SimConfig
from repro.core.pipeline import POLM2Pipeline, PhaseResult
from repro.core.profile import AllocationProfile
from repro.errors import ReproError
from repro.strategies import get_strategy
from repro.workloads import make_workload

#: Cache-format version; bump on incompatible PhaseResult layout changes.
#: v4: cells carry seed + heap-config in their key (multi-seed sweeps);
#: older formats live in unkeyed/other-keyed storage and are never read.
CACHE_FORMAT = "matrix-cache-v4"

#: The pseudo-strategy key the profiling phase is cached under.
PROFILING_KEY = "polm2-profiling"

#: Named heap configurations a sweep can range over.  Values are
#: :class:`SimConfig` field overrides applied to the base config; the
#: names ride in each cell's key, so two heap configs never collide in
#: the cache.  The defaults model the paper's 64 MiB / 6 MiB shape;
#: the variants stress the young:total ratio the paper holds fixed.
HEAP_CONFIGS: Dict[str, Dict[str, int]] = {
    "default": {},
    "tight-young": {"young_bytes": 3 * 1024 * 1024},
    "roomy-young": {"young_bytes": 12 * 1024 * 1024},
    "big-heap": {
        "heap_bytes": 128 * 1024 * 1024,
        "young_bytes": 12 * 1024 * 1024,
    },
}


def heap_config(name: str, base: Optional[SimConfig] = None) -> SimConfig:
    """Resolve a named heap configuration against ``base``."""
    try:
        overrides = HEAP_CONFIGS[name]
    except KeyError:
        known = ", ".join(sorted(HEAP_CONFIGS))
        raise ReproError(
            f"unknown heap config {name!r} (known: {known})"
        ) from None
    config = base if base is not None else SimConfig()
    if not overrides:
        return config
    return dataclasses.replace(config, **overrides)


def parse_seeds(raw: str) -> Tuple[int, ...]:
    """Parse a seed spec: ``"7"``, ``"0-7"`` (inclusive), or ``"1,3,5"``."""
    seeds: List[int] = []
    try:
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            if "-" in part.lstrip("-")[0:]:  # allow negative singletons
                lo_raw, _, hi_raw = part.partition("-")
                if lo_raw and hi_raw:
                    lo, hi = int(lo_raw), int(hi_raw)
                    if hi < lo:
                        raise ReproError(
                            f"seed range {part!r} is empty (end < start)"
                        )
                    seeds.extend(range(lo, hi + 1))
                    continue
            seeds.append(int(part))
    except ValueError:
        raise ReproError(
            f"unparseable seed spec {raw!r} (expected N, N-M, or N,M,...)"
        ) from None
    if not seeds:
        raise ReproError(f"seed spec {raw!r} names no seeds")
    # Preserve order, drop duplicates.
    return tuple(dict.fromkeys(seeds))


# -- cell identity ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True, order=True)
class CellKey:
    """One cell of the sweep space."""

    workload: str
    strategy: str
    seed: int
    heap: str = "default"

    @property
    def cell_id(self) -> str:
        """Stable storage id: ``workload__strategy__s<seed>__heap``."""
        return f"{self.workload}__{self.strategy}__s{self.seed}__{self.heap}"

    @classmethod
    def from_cell_id(cls, cell_id: str) -> "CellKey":
        parts = cell_id.split("__")
        if len(parts) != 4 or not parts[2].startswith("s"):
            raise ReproError(f"malformed cell id {cell_id!r}")
        try:
            seed = int(parts[2][1:])
        except ValueError:
            raise ReproError(f"malformed cell id {cell_id!r}") from None
        return cls(workload=parts[0], strategy=parts[1], seed=seed, heap=parts[3])

    @property
    def is_profiling(self) -> bool:
        return self.strategy == PROFILING_KEY

    def profiling_key(self) -> "CellKey":
        """The profiling cell this cell's profile comes from."""
        return dataclasses.replace(self, strategy=PROFILING_KEY)

    def config(self) -> SimConfig:
        """The fully resolved simulation config for this cell."""
        return heap_config(self.heap, base=SimConfig(seed=self.seed))


# -- code-version fingerprint ----------------------------------------------------

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Content hash over every ``repro`` source file (cached per process).

    Part of the result-cache key: editing any module invalidates every
    cached cell, which is what makes the cache safe to leave on.
    """
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        digest = hashlib.sha256()
        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


def sweep_cache_key(
    config: SimConfig, profiling_ms: float, production_ms: float
) -> str:
    """The storage key shared by every cell of one sweep.

    Hashes the cache format, the package code version, the *base*
    simulation config (seed excluded — it rides in each cell's id, as
    does the heap-config name), and the phase durations.  Anything that
    could change a result changes the key; performance knobs never do.
    """
    fingerprint = config.fingerprint()
    fingerprint.pop("seed", None)
    payload = json.dumps(
        {
            "format": CACHE_FORMAT,
            "code": code_version(),
            "config": fingerprint,
            "profiling_ms": profiling_ms,
            "production_ms": production_ms,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


# -- the sweep cache -------------------------------------------------------------


class SqliteCacheBackend:
    """Keyed store of :class:`PhaseResult` cells: a sweep in one
    WAL-mode sqlite file.

    ``sqlite:///sweep.db`` puts every cell in a single shareable file:
    WAL journaling plus a generous busy timeout make concurrent runner
    processes on the same database safe (each commits small batches;
    ``INSERT OR REPLACE`` keyed on (sweep key, cell id) makes duplicate
    computation idempotent).  Writes are batched — buffered in memory
    and committed one transaction per :meth:`flush` (the scheduler
    flushes as each computed cell lands, so a killed sweep resumes from
    every cell it streamed) or whenever the buffer reaches ``BATCH``
    cells, whichever comes first — bulk writers outside the scheduler
    still amortize their commits.

    A corrupt cell is recoverable: it warns once naming the cell, loads
    as ``None`` and is recomputed.  A file that cannot be opened, read
    or written as this cache — unreadable, not a sqlite database —
    raises a one-line :class:`~repro.errors.ReproError` naming the
    path: recomputing around it would silently fork the sweep's storage.
    """

    BATCH = 32

    def __init__(self, path: str, cache_key: str) -> None:
        self.path = path
        self.key = cache_key
        self._pending: Dict[str, str] = {}
        self._warned: set = set()
        conn = None
        try:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            conn = sqlite3.connect(path, timeout=60.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            with conn:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS cells ("
                    " cache_key TEXT NOT NULL,"
                    " cell_id TEXT NOT NULL,"
                    " format TEXT NOT NULL,"
                    " payload TEXT NOT NULL,"
                    " PRIMARY KEY (cache_key, cell_id))"
                )
            stale = sorted(
                row[0]
                for row in conn.execute(
                    "SELECT DISTINCT format FROM cells WHERE format != ?",
                    (CACHE_FORMAT,),
                )
            )
        except (sqlite3.Error, OSError) as exc:
            if conn is not None:
                conn.close()
            raise ReproError(f"cannot open sqlite cache {path}: {exc}") from exc
        self._conn = conn
        if stale:
            warnings.warn(
                f"sqlite cache {path} holds stale-format cells "
                f"[{', '.join(stale)}]; current format is {CACHE_FORMAT} — "
                "they are ignored and safe to delete"
            )

    @classmethod
    def from_spec(cls, spec: str, cache_key: str) -> "SqliteCacheBackend":
        """Open the cache a ``sqlite:///PATH`` spec names, the one form."""
        scheme, _, path = spec.partition(":///")
        if scheme != "sqlite" or not path:
            raise ReproError(
                f"unknown cache backend {spec!r} (expected sqlite:///PATH)"
            )
        return cls(path, cache_key)

    def load(self, key: CellKey) -> Optional[PhaseResult]:
        raw = self._pending.get(key.cell_id)
        if raw is None:
            try:
                row = self._conn.execute(
                    "SELECT payload FROM cells"
                    " WHERE cache_key = ? AND cell_id = ?",
                    (self.key, key.cell_id),
                ).fetchone()
            except sqlite3.Error as exc:
                raise ReproError(
                    f"sqlite cache {self.path} is unreadable: {exc}"
                ) from exc
            if row is None:
                return None
            raw = row[0]
        try:
            return PhaseResult.from_dict(json.loads(raw))
        except (KeyError, TypeError, ValueError):
            where = f"{self.path}:{key.cell_id}"
            if where not in self._warned:
                self._warned.add(where)
                warnings.warn(
                    f"cache cell {where} is corrupt; recomputing it", stacklevel=2
                )
            return None

    def store(self, key: CellKey, result: PhaseResult) -> None:
        self._pending[key.cell_id] = json.dumps(result.to_dict())
        if len(self._pending) >= self.BATCH:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        rows = [
            (self.key, cell_id, CACHE_FORMAT, payload)
            for cell_id, payload in self._pending.items()
        ]
        try:
            with self._conn:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO cells"
                    " (cache_key, cell_id, format, payload)"
                    " VALUES (?, ?, ?, ?)",
                    rows,
                )
        except sqlite3.Error as exc:
            raise ReproError(
                f"sqlite cache {self.path} rejected a write: {exc}"
            ) from exc
        self._pending.clear()

    def cell_ids(self) -> List[str]:
        try:
            rows = self._conn.execute(
                "SELECT cell_id FROM cells WHERE cache_key = ?", (self.key,)
            ).fetchall()
        except sqlite3.Error as exc:
            raise ReproError(
                f"sqlite cache {self.path} is unreadable: {exc}"
            ) from exc
        ids = {row[0] for row in rows}
        ids.update(self._pending)
        return sorted(ids)

    def close(self) -> None:
        self.flush()
        self._conn.close()


# -- the sweep space -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """The (workload × strategy × seed × heap-config) grid to run."""

    workloads: Tuple[str, ...]
    strategies: Tuple[str, ...]
    seeds: Tuple[int, ...] = (42,)
    heap_configs: Tuple[str, ...] = ("default",)

    def __post_init__(self) -> None:
        for heap in self.heap_configs:
            heap_config(heap)  # raises ReproError on unknown names
        if not (self.workloads and self.strategies and self.seeds):
            raise ReproError("a sweep needs ≥1 workload, strategy, and seed")

    def production_cells(self) -> List[CellKey]:
        """Every production cell, in deterministic sweep order."""
        return [
            CellKey(workload=w, strategy=s, seed=seed, heap=heap)
            for heap in self.heap_configs
            for seed in self.seeds
            for w in self.workloads
            for s in self.strategies
        ]

    @property
    def size(self) -> int:
        return (
            len(self.workloads)
            * len(self.strategies)
            * len(self.seeds)
            * len(self.heap_configs)
        )


# -- streaming results -----------------------------------------------------------


@dataclasses.dataclass
class SweepProgress:
    """Live progress attached to every streamed cell."""

    done: int
    total: int
    elapsed_s: float

    @property
    def cells_per_sec(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.done / self.elapsed_s

    @property
    def eta_s(self) -> float:
        rate = self.cells_per_sec
        if rate <= 0:
            return 0.0
        return (self.total - self.done) / rate


@dataclasses.dataclass
class CellResult:
    """One cell landing: streamed by :func:`run_sweep` as it completes."""

    key: CellKey
    result: PhaseResult
    cached: bool
    progress: SweepProgress


# -- worker-process entry points -------------------------------------------------
# Module-level so ProcessPoolExecutor can pickle them.  Each call
# builds a fresh pipeline from primitive arguments; the virtual clock
# makes every cell bit-deterministic, so a worker computes exactly what
# an in-process call does.


def _cell_pipeline(workload: str, seed: int, heap: str) -> POLM2Pipeline:
    config = heap_config(heap, base=SimConfig(seed=seed))
    return POLM2Pipeline(
        workload_factory=lambda w=workload, s=seed: make_workload(w, seed=s),
        config=config,
    )


def _run_profiling_cell(
    workload: str, seed: int, heap: str, profiling_ms: float
) -> PhaseResult:
    keep: List[PhaseResult] = []
    _cell_pipeline(workload, seed, heap).run_profiling_phase(
        duration_ms=profiling_ms, keep_result=keep
    )
    return keep[0]


def _run_production_cell(
    workload: str,
    strategy: str,
    seed: int,
    heap: str,
    production_ms: float,
    profile_json: Optional[str],
) -> PhaseResult:
    """Resolve ``strategy`` through the registry and run one cell.

    Workers see only strategies registered at import time (the built-ins
    plus anything a ``repro.strategies``-importing plugin registers);
    strategies registered dynamically in the parent process require
    ``jobs=1``.
    """
    pipe = _cell_pipeline(workload, seed, heap)
    profile = (
        AllocationProfile.from_json(profile_json)
        if profile_json is not None
        else None
    )
    return pipe.run(strategy, duration_ms=production_ms, profile=profile)


# -- the sharded work-stealing scheduler ----------------------------------------


class _ShardedScheduler:
    """Shards ready cells across worker slots and steals for stragglers.

    The parent process owns one deque per worker slot.  A slot that
    finishes a cell pulls the next from its own shard head; a dry slot
    steals from the tail of the fullest shard.  Cells are sharded by a
    stable hash of their id, so the initial placement is deterministic;
    stealing then rebalances whatever reality does to the schedule.
    """

    def __init__(self, nshards: int) -> None:
        self.shards: List[Deque[CellKey]] = [deque() for _ in range(nshards)]

    def shard_of(self, key: CellKey) -> int:
        return zlib.crc32(key.cell_id.encode()) % len(self.shards)

    def push(self, key: CellKey) -> None:
        self.shards[self.shard_of(key)].append(key)

    def pop_for(self, slot: int) -> Optional[CellKey]:
        own = self.shards[slot]
        if own:
            return own.popleft()
        victim = max(self.shards, key=len)
        if victim:
            return victim.pop()  # steal from the tail: coldest work
        return None

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)


def run_sweep(
    spec: SweepSpec,
    *,
    profiling_ms: float = 30_000.0,
    production_ms: float = 60_000.0,
    backend: Optional[SqliteCacheBackend] = None,
    jobs: int = 1,
    preloaded: Optional[Mapping[CellKey, PhaseResult]] = None,
    profile_source: Optional[str] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> Iterator[CellResult]:
    """Run every cell of ``spec``, streaming results as they land.

    Cache hits (from ``backend`` and ``preloaded``) stream first; live
    cells follow as workers complete them.  Profiling cells are
    scheduled only for production cells that actually need computing —
    a cached POLM2 cell never forces its profiling phase — and appear
    in the stream (and the done/total counts) like any other cell.

    ``profile_source`` points profile-consuming production cells at an
    external profile instead of a swept profiling cell: a profile URI
    (``http://``, ``store://``, ``file://``) with an optional
    ``{workload}`` placeholder, e.g.
    ``http://host:port/profiles/{workload}/latest`` against a running
    ``repro serve``.  Profiling cells are then skipped entirely, and the
    sourced production cells bypass the cache both ways — their inputs
    live outside the cache key, so neither a stale hit nor a poisoned
    store is possible.

    ``jobs=1`` runs in-process in deterministic sweep order; ``jobs >
    1`` runs the work-stealing scheduler over the per-cell DAG in a
    process pool.  Both produce byte-identical cells.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    preloaded = dict(preloaded or {})
    start = clock()

    sourced_profiles: Dict[str, str] = {}
    if profile_source is not None:
        from repro.core.profilesource import profile_source as parse_source

        for workload in sorted(
            {
                key.workload
                for key in spec.production_cells()
                if get_strategy(key.strategy).needs_profile
            }
        ):
            uri = profile_source.replace("{workload}", workload)
            sourced_profiles[workload] = (
                parse_source(uri).resolve().to_json()
            )

    def lookup(key: CellKey) -> Optional[PhaseResult]:
        hit = preloaded.get(key)
        if hit is None and backend is not None:
            hit = backend.load(key)
        if hit is None:
            return None
        if key.is_profiling and hit.profile is None:
            return None  # foreign/corrupt profiling cell: recompute
        return hit

    # -- cache probe: production first, then only the profiling cells
    # some uncached production cell still needs.
    production = spec.production_cells()
    hits: List[Tuple[CellKey, PhaseResult]] = []
    pending: List[CellKey] = []
    sourced_keys = set()
    for key in production:
        if (
            sourced_profiles
            and get_strategy(key.strategy).needs_profile
        ):
            # Externally-sourced cells bypass the cache: the served
            # profile is not part of the cache key.
            sourced_keys.add(key)
            pending.append(key)
            continue
        found = lookup(key)
        if found is not None:
            hits.append((key, found))
        else:
            pending.append(key)
    needed_profiling: List[CellKey] = []
    profiles: Dict[CellKey, str] = {}  # profiling cell -> profile JSON
    blocked: Dict[CellKey, List[CellKey]] = {}
    for key in pending:
        if not get_strategy(key.strategy).needs_profile:
            continue
        prof_key = key.profiling_key()
        if key in sourced_keys:
            # The profile comes from the service, not a profiling cell.
            profiles[prof_key] = sourced_profiles[key.workload]
            continue
        if prof_key not in blocked:
            blocked[prof_key] = []
            needed_profiling.append(prof_key)
        blocked[prof_key].append(key)
    pending_profiling: List[CellKey] = []
    for prof_key in needed_profiling:
        found = lookup(prof_key)
        if found is not None:
            hits.append((prof_key, found))
            profiles[prof_key] = found.profile.to_json()
            del blocked[prof_key]
        else:
            pending_profiling.append(prof_key)

    total = len(production) + len(needed_profiling)
    done = 0

    def emit(key: CellKey, result: PhaseResult, cached: bool) -> CellResult:
        nonlocal done
        done += 1
        return CellResult(
            key=key,
            result=result,
            cached=cached,
            progress=SweepProgress(
                done=done, total=total, elapsed_s=clock() - start
            ),
        )

    def computed(key: CellKey, result: PhaseResult) -> CellResult:
        if backend is not None and key not in sourced_keys:
            # Store *and* commit before the cell is reported done: a
            # killed sweep must resume from every cell it streamed.
            backend.store(key, result)
            backend.flush()
        if key.is_profiling:
            profiles[key] = result.profile.to_json()
        return emit(key, result, cached=False)

    try:
        for key, result in hits:
            yield emit(key, result, cached=True)
        if not pending and not pending_profiling:
            return

        if jobs == 1:
            # Deterministic sweep order; each needed profiling cell runs
            # immediately before its first dependent.
            profiled = set(profiles)
            for key in pending:
                prof_key = key.profiling_key()
                if (
                    get_strategy(key.strategy).needs_profile
                    and prof_key not in profiled
                ):
                    yield computed(
                        prof_key,
                        _run_profiling_cell(
                            key.workload, key.seed, key.heap, profiling_ms
                        ),
                    )
                    profiled.add(prof_key)
                profile_json = (
                    profiles.get(prof_key)
                    if get_strategy(key.strategy).needs_profile
                    else None
                )
                yield computed(
                    key,
                    _run_production_cell(
                        key.workload,
                        key.strategy,
                        key.seed,
                        key.heap,
                        production_ms,
                        profile_json,
                    ),
                )
            return

        yield from _run_sweep_pool(
            pending,
            pending_profiling,
            blocked,
            profiles,
            computed,
            profiling_ms=profiling_ms,
            production_ms=production_ms,
            jobs=jobs,
        )
    finally:
        if backend is not None:
            backend.flush()


def _run_sweep_pool(
    pending: Sequence[CellKey],
    pending_profiling: Sequence[CellKey],
    blocked: Dict[CellKey, List[CellKey]],
    profiles: Dict[CellKey, str],
    computed: Callable[[CellKey, PhaseResult], CellResult],
    *,
    profiling_ms: float,
    production_ms: float,
    jobs: int,
) -> Iterator[CellResult]:
    """The ``jobs > 1`` scheduler body: a process pool fed by the DAG."""
    scheduler = _ShardedScheduler(jobs)
    blocked_cells = {dep for deps in blocked.values() for dep in deps}
    for key in pending_profiling:
        scheduler.push(key)
    for key in pending:
        # A blocked cell waits for the DAG to release it when its
        # profiling cell lands.
        if key not in blocked_cells:
            scheduler.push(key)

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        in_flight: Dict[concurrent.futures.Future, Tuple[CellKey, int]] = {}

        def submit(key: CellKey, slot: int) -> None:
            if key.is_profiling:
                future = pool.submit(
                    _run_profiling_cell,
                    key.workload,
                    key.seed,
                    key.heap,
                    profiling_ms,
                )
            else:
                profile_json = (
                    profiles.get(key.profiling_key())
                    if get_strategy(key.strategy).needs_profile
                    else None
                )
                future = pool.submit(
                    _run_production_cell,
                    key.workload,
                    key.strategy,
                    key.seed,
                    key.heap,
                    production_ms,
                    profile_json,
                )
            in_flight[future] = (key, slot)

        def fill(free_slots: List[int]) -> None:
            while free_slots:
                slot = free_slots[-1]
                key = scheduler.pop_for(slot)
                if key is None:
                    break
                free_slots.pop()
                submit(key, slot)

        fill(list(range(jobs)))
        while in_flight:
            completed, _ = concurrent.futures.wait(
                in_flight, return_when=concurrent.futures.FIRST_COMPLETED
            )
            free_slots: List[int] = []
            for future in completed:
                key, slot = in_flight.pop(future)
                free_slots.append(slot)
                result = future.result()
                yield computed(key, result)
                for dependent in blocked.pop(key, []):
                    scheduler.push(dependent)
            fill(free_slots)


# -- multi-seed aggregation ------------------------------------------------------


@dataclasses.dataclass
class PooledSeries:
    """Pause samples for one (workload, strategy) pooled across seeds."""

    workload: str
    strategy: str
    durations_ms: List[float]
    seeds: int

    @property
    def samples(self) -> int:
        return len(self.durations_ms)

    @property
    def row(self) -> List[float]:
        from repro.metrics.percentiles import percentile_row

        return percentile_row(self.durations_ms)

    @property
    def support(self) -> str:
        return f"{self.samples} pauses / {self.seeds} seed(s)"


def pooled_pause_percentiles(
    cells: Mapping[CellKey, PhaseResult],
    strategies: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, PooledSeries]]:
    """Pool pause samples across seeds (and heap configs) per cell group.

    Returns ``{workload: {STRATEGY: PooledSeries}}``; each series keeps
    its seed and sample count so figures can report the support behind
    every percentile claim.
    """
    grouped: Dict[Tuple[str, str], Tuple[List[float], set]] = {}
    for key, result in cells.items():
        if key.is_profiling:
            continue
        if strategies is not None and key.strategy not in strategies:
            continue
        durations, seeds = grouped.setdefault(
            (key.workload, key.strategy), ([], set())
        )
        durations.extend(result.pause_durations_ms())
        seeds.add(key.seed)
    pooled: Dict[str, Dict[str, PooledSeries]] = {}
    for (workload, strategy), (durations, seeds) in sorted(grouped.items()):
        pooled.setdefault(workload, {})[strategy.upper()] = PooledSeries(
            workload=workload,
            strategy=strategy,
            durations_ms=durations,
            seeds=len(seeds),
        )
    return pooled
