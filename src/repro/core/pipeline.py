"""Two-phase orchestration: profiling then production (paper §3.5).

:class:`POLM2Pipeline` wires the components end-to-end:

* **profiling phase** — a fresh VM with NG2C (whose modified heap walk
  supports the no-need marking), the Recorder and the Dumper attached;
  the Dumper hands each snapshot to the
  :class:`~repro.core.stages.ProfileBuilder` as it is taken, whose
  incremental analyzer digests it, and the builder flattens the result
  into an :class:`AllocationProfile`;
* **production phase** — a fresh VM with NG2C and only the Instrumenter
  attached, applying the profile at class-load time;
* **baselines** — the same workload under plain G1, plain NG2C with the
  hand-written annotations (the paper's "NG2C" bars), or C4.

Each phase returns a :class:`PhaseResult` carrying pauses, throughput
samples, and memory, which the experiment drivers aggregate into the
paper's tables and figures.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, List, Optional, Union

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.profile import AllocationProfile
from repro.core.profilesource import ProfileSource, resolve_profile
from repro.core.recorder import Recorder
from repro.core.stages import ProfileBuilder
from repro.errors import ReproError
from repro.gc.base import GenerationalCollector
from repro.gc.events import GCPause
from repro.gc.ng2c import NG2CCollector
from repro.heap.objects import reset_identity_hashes
from repro.runtime.vm import VM
from repro.strategies.agents import TelemetryAgent
from repro.strategies.builtin import _polm2_agents
from repro.strategies.spec import StrategyContext, StrategySpec, get_strategy
from repro.workloads.base import Workload

#: Factory producing a fresh workload instance per phase (phases must not
#: share mutable state, just as the paper restarts the application).
WorkloadFactory = Callable[[], Workload]

#: Throughput sampling period for timeline plots (Fig. 8), virtual ms.
THROUGHPUT_SAMPLE_MS = 1000.0


@dataclasses.dataclass
class PhaseResult:
    """Everything measured while running one workload under one strategy."""

    strategy: str
    workload: str
    collector_name: str
    duration_ms: float
    ops_completed: int
    pauses: List[GCPause]
    peak_memory_bytes: int
    set_generation_calls: int
    #: ops/s sampled each virtual second (Fig. 8 timelines).
    throughput_timeline: List[float]
    profile: Optional[AllocationProfile] = None
    #: Merged per-agent counters from every attached agent's
    #: ``telemetry()`` (allocations logged, snapshots taken, ...).
    telemetry: Optional[Dict[str, int]] = None

    @property
    def throughput_ops_s(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.ops_completed / (self.duration_ms / 1000.0)

    def pause_durations_ms(self) -> List[float]:
        return [p.duration_ms for p in self.pauses]

    def pause_report(self) -> str:
        from repro.metrics.percentiles import percentile_table

        return percentile_table(
            {self.strategy: self.pause_durations_ms()},
            title=f"{self.workload} pause times (ms)",
        )

    # -- serialization (the experiment runner's on-disk result cache) -----------
    # JSON keeps floats via repr round-tripping, so load(save(r)) is
    # value-identical to r — the cache parity tests rely on this.

    def to_dict(self) -> Dict:
        return {
            "strategy": self.strategy,
            "workload": self.workload,
            "collector_name": self.collector_name,
            "duration_ms": self.duration_ms,
            "ops_completed": self.ops_completed,
            "pauses": [dataclasses.asdict(p) for p in self.pauses],
            "peak_memory_bytes": self.peak_memory_bytes,
            "set_generation_calls": self.set_generation_calls,
            "throughput_timeline": list(self.throughput_timeline),
            "profile": (
                None
                if self.profile is None
                else json.loads(self.profile.to_json())
            ),
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PhaseResult":
        profile = None
        if payload.get("profile") is not None:
            profile = AllocationProfile.from_json(json.dumps(payload["profile"]))
        return cls(
            strategy=payload["strategy"],
            workload=payload["workload"],
            collector_name=payload["collector_name"],
            duration_ms=float(payload["duration_ms"]),
            ops_completed=int(payload["ops_completed"]),
            pauses=[GCPause(**p) for p in payload["pauses"]],
            peak_memory_bytes=int(payload["peak_memory_bytes"]),
            set_generation_calls=int(payload["set_generation_calls"]),
            throughput_timeline=[float(v) for v in payload["throughput_timeline"]],
            profile=profile,
            telemetry=payload.get("telemetry"),
        )


def drive(
    vm: VM,
    workload: Workload,
    duration_ms: float,
    stop: Optional[Callable[[], bool]] = None,
) -> List[float]:
    """Load the workload's classes, set it up, and tick until the
    virtual deadline; returns the per-second throughput timeline.

    Every run shape shares this loop: agents attach to ``vm`` first
    (class loading is where their transformers apply), then the
    workload runs to ``duration_ms`` of virtual time and tears down.
    ``stop``, when given, is called once before each tick while the
    deadline is still ahead, and ends the run early when it returns
    true (a wall-clock budget, a snapshot count, a tick count).

    The identity-hash counter restarts first, so a run's object ids do
    not depend on what ran before it in the same process.
    """
    reset_identity_hashes()
    workload.vm = vm
    for model in workload.class_models():
        vm.classloader.load(model)
    workload.setup(vm)
    timeline: List[float] = []
    window_start_ms = vm.clock.now_ms
    window_ops = 0
    while vm.clock.now_ms < duration_ms:
        if stop is not None and stop():
            break
        window_ops += workload.tick()
        now = vm.clock.now_ms
        while now - window_start_ms >= THROUGHPUT_SAMPLE_MS:
            timeline.append(window_ops / (THROUGHPUT_SAMPLE_MS / 1000.0))
            window_ops = 0
            window_start_ms += THROUGHPUT_SAMPLE_MS
    workload.teardown()
    return timeline


class POLM2Pipeline:
    """Profiling-phase + production-phase driver for one workload."""

    def __init__(
        self,
        workload_factory: WorkloadFactory,
        config: Optional[SimConfig] = None,
        snapshot_every: int = 1,
    ) -> None:
        self.workload_factory = workload_factory
        self.config = config or SimConfig()
        self.snapshot_every = snapshot_every

    # -- results -----------------------------------------------------------------------

    def _result(
        self,
        strategy: str,
        workload: Workload,
        vm: VM,
        collector: GenerationalCollector,
        timeline: List[float],
        profile: Optional[AllocationProfile] = None,
        telemetry: Optional[Dict[str, int]] = None,
    ) -> PhaseResult:
        peak = vm.heap.peak_committed_bytes
        if getattr(collector, "pre_reserves_memory", False):
            peak = vm.config.heap_bytes
        return PhaseResult(
            strategy=strategy,
            workload=workload.name,
            collector_name=collector.name,
            duration_ms=vm.clock.now_ms,
            ops_completed=vm.ops_completed,
            pauses=collector.pauses,
            peak_memory_bytes=peak,
            set_generation_calls=vm.set_generation_calls,
            throughput_timeline=timeline,
            profile=profile,
            telemetry=telemetry,
        )

    @staticmethod
    def _merged_telemetry(agents: List) -> Dict[str, int]:
        telemetry: Dict[str, int] = {}
        for agent in agents:
            collect = getattr(agent, "telemetry", None)
            if callable(collect):
                telemetry.update(collect())
        return telemetry

    # -- generic strategy driver --------------------------------------------------------

    def run(
        self,
        strategy: Union[str, StrategySpec],
        duration_ms: float = 60_000.0,
        profile: Optional[
            Union[AllocationProfile, str, "ProfileSource"]
        ] = None,
        label: Optional[str] = None,
    ) -> PhaseResult:
        """Run the workload under one registered (or ad-hoc) strategy.

        ``strategy`` is a registry name or a :class:`StrategySpec`.
        Strategies with ``needs_profile`` require ``profile`` — an
        :class:`AllocationProfile`, a
        :class:`~repro.core.profilesource.ProfileSource`, or a URI/path
        string (``file://``, ``store://``, ``http://``) resolved through
        :func:`~repro.core.profilesource.resolve_profile`, so a
        production VM can point straight at a running profile service.
        ``label`` overrides the strategy name recorded in the result.
        """
        spec = (
            strategy
            if isinstance(strategy, StrategySpec)
            else get_strategy(strategy)
        )
        if spec.needs_profile and profile is None:
            raise ReproError(
                f"strategy {spec.name!r} needs an allocation profile; "
                "run a profiling phase first or pass a saved profile"
            )
        if profile is not None and not isinstance(profile, AllocationProfile):
            profile = resolve_profile(profile)
        workload = self.workload_factory()
        collector = spec.collector_factory()
        vm = VM(self.config, collector=collector)
        context = StrategyContext(
            vm=vm,
            workload=workload,
            collector=collector,
            config=self.config,
            profile=profile if spec.needs_profile else None,
        )
        agents = list(spec.build_agents(context))
        agents.append(TelemetryAgent())
        for agent in agents:
            vm.attach_agent(agent)
        timeline = drive(vm, workload, duration_ms)
        return self._result(
            label or spec.name,
            workload,
            vm,
            collector,
            timeline,
            profile=profile if spec.needs_profile else None,
            telemetry=self._merged_telemetry(agents),
        )

    # -- profiling phase ---------------------------------------------------------------

    def run_profiling_phase(
        self,
        duration_ms: float = 30_000.0,
        push_up: bool = True,
        keep_result: Optional[list] = None,
    ) -> AllocationProfile:
        """Run the workload with the streaming profiler attached; return
        the allocation profile.

        Analysis happens *during* the run: the Dumper hands every
        snapshot to the :class:`~repro.core.stages.ProfileBuilder`'s
        incremental analyzer as it is taken and keeps none, so no
        end-of-run pass over a snapshot sequence is needed.

        ``keep_result`` (optional, a list) receives the profiling-run
        :class:`PhaseResult` (profile, pauses, telemetry) — how a sweep's
        profiling cell is computed.
        """
        workload = self.workload_factory()
        collector = NG2CCollector()
        vm = VM(self.config, collector=collector)
        recorder = Recorder(snapshot_every=self.snapshot_every)
        builder = ProfileBuilder(
            recorder.records,
            max_generations=self.config.max_generations,
            push_up=push_up,
        )
        agents = [recorder, Dumper(builder.feed_snapshot), TelemetryAgent()]
        for agent in agents:
            vm.attach_agent(agent)
        timeline = drive(vm, workload, duration_ms)
        profile = builder.build(workload=workload.name)
        if keep_result is not None:
            keep_result.append(
                self._result(
                    "polm2-profiling",
                    workload,
                    vm,
                    collector,
                    timeline,
                    profile=profile,
                    telemetry=self._merged_telemetry(agents),
                )
            )
        return profile

    # -- production phase -----------------------------------------------------------------

    def run_production_phase(
        self,
        profile: AllocationProfile,
        duration_ms: float = 60_000.0,
        collector_factory: Callable[[], GenerationalCollector] = NG2CCollector,
        strategy: str = "polm2",
    ) -> PhaseResult:
        """Run the workload with the profile instrumented in.

        ``collector_factory`` defaults to NG2C but accepts any collector
        implementing the pretenuring API (paper §4.5: POLM2 is
        GC-independent) — e.g.
        :class:`repro.gc.binary.BinaryPretenuringCollector` for the
        Memento-style single-tenured-space ablation.  Prefer registering
        a :class:`~repro.strategies.StrategySpec` and calling
        :meth:`run`; this shim builds an ad-hoc spec.
        """
        spec = StrategySpec(
            name=strategy,
            collector_factory=collector_factory,
            needs_profile=True,
            build_agents=_polm2_agents,
        )
        return self.run(spec, duration_ms=duration_ms, profile=profile)

    # -- baselines ------------------------------------------------------------------------

    def run_baseline(
        self, strategy: str, duration_ms: float = 60_000.0
    ) -> PhaseResult:
        """Run one of the paper's baselines: ``g1``, ``ng2c``, or ``c4``.

        ``ng2c`` means NG2C with the workload's *manual* annotations (the
        paper's "NG2C" bars); plain unannotated NG2C behaves like G1 and
        is available as ``ng2c-unannotated`` for ablations.  Resolves
        through the strategy registry (:meth:`run`).
        """
        return self.run(strategy, duration_ms=duration_ms)
