"""Ablation experiments for POLM2's design choices.

Three ablations quantify the mechanisms DESIGN.md calls out:

1. **push-up** (§4.4) — place a ``setGeneration`` bracket around every
   annotated allocation instead of hoisting uniform subtrees' generations
   to ancestor call sites.  Metric: executed ``setGeneration`` calls (the
   API-call overhead the optimization exists to remove).
2. **no-STTree** (§3.3) — a naive profile that gives every allocation
   site its traffic-weighted majority generation, ignoring per-path
   conflicts.  Conflicting sites (e.g. Cassandra's ``Util.cloneRow``)
   then mis-tenure one of their populations.
3. **no-madvise** (§4.2) — snapshots without the no-need page marking,
   quantifying how much of the Dumper's win over jmap comes from
   skipping dead pages vs from incrementality.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, List

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.pipeline import POLM2Pipeline, PhaseResult, drive
from repro.core.profile import AllocationProfile, AllocDirective
from repro.core.recorder import Recorder
from repro.core.sttree import STTree
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM
from repro.workloads import make_workload


@dataclasses.dataclass
class PushUpAblation:
    """setGeneration call counts with and without the push-up hoisting."""

    workload: str
    calls_with_push_up: int
    calls_without_push_up: int
    pauses_with_ms: float
    pauses_without_ms: float

    @property
    def call_reduction(self) -> float:
        if self.calls_without_push_up == 0:
            return 0.0
        return 1.0 - self.calls_with_push_up / self.calls_without_push_up


def run_push_up_ablation(
    workload: str = "cassandra-wi",
    profiling_ms: float = 20_000.0,
    production_ms: float = 30_000.0,
    seed: int = 42,
) -> PushUpAblation:
    results: Dict[bool, PhaseResult] = {}
    for push_up in (True, False):
        pipeline = POLM2Pipeline(
            workload_factory=lambda w=workload, s=seed: make_workload(w, seed=s),
            config=SimConfig(seed=seed),
        )
        profile = pipeline.run_profiling_phase(
            duration_ms=profiling_ms, push_up=push_up
        )
        results[push_up] = pipeline.run(
            "polm2", duration_ms=production_ms, profile=profile
        )
    return PushUpAblation(
        workload=workload,
        calls_with_push_up=results[True].set_generation_calls,
        calls_without_push_up=results[False].set_generation_calls,
        pauses_with_ms=max(results[True].pause_durations_ms() or [0.0]),
        pauses_without_ms=max(results[False].pause_durations_ms() or [0.0]),
    )


@dataclasses.dataclass
class STTreeAblation:
    """POLM2 with the STTree vs a naive per-site majority profile."""

    workload: str
    sttree_worst_ms: float
    naive_worst_ms: float
    sttree_total_ms: float
    naive_total_ms: float


def build_naive_profile(tree: STTree, workload: str) -> AllocationProfile:
    """Per-site majority-vote profile: no conflict detection, every
    annotated site carries an inline generation bracket.

    Each leaf of the profiling run's STTree votes its estimated
    generation for its allocation site, weighted by its object count.
    """
    votes: Dict[tuple, collections.Counter] = collections.defaultdict(
        collections.Counter
    )
    for leaf in tree.leaves:
        votes[leaf.location][leaf.target_gen] += leaf.object_count
    alloc_directives: List[AllocDirective] = []
    for site, counter in sorted(votes.items()):
        gen = counter.most_common(1)[0][0]
        if gen >= 1:
            alloc_directives.append(
                AllocDirective(
                    class_name=site[0],
                    method_name=site[1],
                    line=site[2],
                    pre_set_gen=gen,
                )
            )
    return AllocationProfile(
        workload=f"{workload}-naive",
        alloc_directives=alloc_directives,
        call_directives=[],
        metadata={"naive": True},
    )


def run_sttree_ablation(
    workload: str = "cassandra-ri",
    profiling_ms: float = 20_000.0,
    production_ms: float = 30_000.0,
    seed: int = 42,
) -> STTreeAblation:
    pipeline = POLM2Pipeline(
        workload_factory=lambda w=workload, s=seed: make_workload(w, seed=s),
        config=SimConfig(seed=seed),
    )
    # One profiling run feeds both profiles.
    sttree_profile = pipeline.run_profiling_phase(duration_ms=profiling_ms)
    naive_profile = build_naive_profile(sttree_profile.sttree, workload)

    with_tree = pipeline.run(
        "polm2", duration_ms=production_ms, profile=sttree_profile
    )
    naive = pipeline.run("polm2", duration_ms=production_ms, profile=naive_profile)
    return STTreeAblation(
        workload=workload,
        sttree_worst_ms=max(with_tree.pause_durations_ms() or [0.0]),
        naive_worst_ms=max(naive.pause_durations_ms() or [0.0]),
        sttree_total_ms=sum(with_tree.pause_durations_ms()),
        naive_total_ms=sum(naive.pause_durations_ms()),
    )


@dataclasses.dataclass
class BinaryPretenuringAblation:
    """NG2C's N generations vs a Memento-style single tenured space.

    Both runs use the *same* POLM2 profile; only the collector changes.
    The binary collector co-locates every pretenured cohort in one space,
    so cohorts with different lifetimes interleave and dying data must be
    compacted out — the co-location cost the paper's §6.1 attributes to
    single-tenured-space pretenuring designs.
    """

    workload: str
    ng2c_worst_ms: float
    binary_worst_ms: float
    ng2c_total_ms: float
    binary_total_ms: float


def run_binary_pretenuring_ablation(
    workload: str = "cassandra-wi",
    profiling_ms: float = 20_000.0,
    production_ms: float = 30_000.0,
    seed: int = 42,
) -> BinaryPretenuringAblation:
    # Both cells resolve through the strategy registry: ``polm2-binary``
    # is a registered first-class strategy (collector swapped, same
    # agents), not a special-cased pipeline call.
    pipeline = POLM2Pipeline(
        workload_factory=lambda w=workload, s=seed: make_workload(w, seed=s),
        config=SimConfig(seed=seed),
    )
    profile = pipeline.run_profiling_phase(duration_ms=profiling_ms)
    ng2c = pipeline.run("polm2", duration_ms=production_ms, profile=profile)
    binary = pipeline.run(
        "polm2-binary", duration_ms=production_ms, profile=profile
    )
    return BinaryPretenuringAblation(
        workload=workload,
        ng2c_worst_ms=max(ng2c.pause_durations_ms() or [0.0]),
        binary_worst_ms=max(binary.pause_durations_ms() or [0.0]),
        ng2c_total_ms=sum(ng2c.pause_durations_ms()),
        binary_total_ms=sum(binary.pause_durations_ms()),
    )


@dataclasses.dataclass
class PauseGoalAblation:
    """Can G1's pause-time goal substitute for lifetime-aware placement?

    HotSpot's answer to long pauses is -XX:MaxGCPauseMillis: shrink the
    young generation until pauses fit the goal.  The ablation shows why
    the paper's approach is different in kind: the goal merely slices the
    same copying work into more, smaller pauses (total GC time stays or
    grows), while POLM2 removes the copying itself.
    """

    workload: str
    goal_ms: float
    g1_worst_ms: float
    g1_total_ms: float
    g1_pauses: int
    g1_goal_worst_ms: float
    g1_goal_total_ms: float
    g1_goal_pauses: int
    polm2_worst_ms: float
    polm2_total_ms: float
    polm2_pauses: int


def run_pause_goal_ablation(
    workload: str = "cassandra-wi",
    goal_ms: float = 30.0,
    profiling_ms: float = 20_000.0,
    production_ms: float = 30_000.0,
    seed: int = 42,
) -> PauseGoalAblation:
    plain = POLM2Pipeline(
        workload_factory=lambda w=workload, s=seed: make_workload(w, seed=s),
        config=SimConfig(seed=seed),
    )
    goal_pipeline = POLM2Pipeline(
        workload_factory=lambda w=workload, s=seed: make_workload(w, seed=s),
        config=SimConfig(seed=seed, pause_goal_ms=goal_ms),
    )
    g1 = plain.run("g1", duration_ms=production_ms)
    g1_goal = goal_pipeline.run("g1", duration_ms=production_ms)
    profile = plain.run_profiling_phase(duration_ms=profiling_ms)
    polm2 = plain.run("polm2", duration_ms=production_ms, profile=profile)
    return PauseGoalAblation(
        workload=workload,
        goal_ms=goal_ms,
        g1_worst_ms=max(g1.pause_durations_ms() or [0.0]),
        g1_total_ms=sum(g1.pause_durations_ms()),
        g1_pauses=len(g1.pauses),
        g1_goal_worst_ms=max(g1_goal.pause_durations_ms() or [0.0]),
        g1_goal_total_ms=sum(g1_goal.pause_durations_ms()),
        g1_goal_pauses=len(g1_goal.pauses),
        polm2_worst_ms=max(polm2.pause_durations_ms() or [0.0]),
        polm2_total_ms=sum(polm2.pause_durations_ms()),
        polm2_pauses=len(polm2.pauses),
    )


@dataclasses.dataclass
class RemsetAblation:
    """Precise whole-heap tracing vs write-barrier remembered sets.

    With remembered sets (G1's real mechanism) young collections stop
    scanning the whole heap, at the price of conservatism: dead tenured
    parents keep young children alive until full liveness is
    re-established.  The ablation measures both sides on the same
    workload: pause behaviour and the peak-memory cost of the floating
    garbage.
    """

    workload: str
    precise_worst_ms: float
    remset_worst_ms: float
    precise_total_ms: float
    remset_total_ms: float
    precise_peak_bytes: int
    remset_peak_bytes: int


def run_remset_ablation(
    workload: str = "cassandra-wi",
    profiling_ms: float = 15_000.0,
    production_ms: float = 25_000.0,
    seed: int = 42,
) -> RemsetAblation:
    # Measured under G1: without pretenuring, the young generation holds
    # the middle-lived traffic, so the old->young remembered set is
    # actually exercised (POLM2 pretenures that data away, making the
    # two liveness modes nearly indistinguishable).
    results = {}
    for remsets in (False, True):
        pipeline = POLM2Pipeline(
            workload_factory=lambda w=workload, s=seed: make_workload(w, seed=s),
            config=SimConfig(seed=seed, use_remembered_sets=remsets),
        )
        results[remsets] = pipeline.run("g1", duration_ms=production_ms)
    precise, remset = results[False], results[True]
    return RemsetAblation(
        workload=workload,
        precise_worst_ms=max(precise.pause_durations_ms() or [0.0]),
        remset_worst_ms=max(remset.pause_durations_ms() or [0.0]),
        precise_total_ms=sum(precise.pause_durations_ms()),
        remset_total_ms=sum(remset.pause_durations_ms()),
        precise_peak_bytes=precise.peak_memory_bytes,
        remset_peak_bytes=remset.peak_memory_bytes,
    )


@dataclasses.dataclass
class MadviseAblation:
    """Snapshot sizes with and without no-need page marking."""

    workload: str
    bytes_with_madvise: int
    bytes_without_madvise: int

    @property
    def size_reduction(self) -> float:
        if self.bytes_without_madvise == 0:
            return 0.0
        return 1.0 - self.bytes_with_madvise / self.bytes_without_madvise


def run_madvise_ablation(
    workload: str = "cassandra-wi",
    duration_ms: float = 20_000.0,
    seed: int = 42,
) -> MadviseAblation:
    totals: Dict[bool, int] = {}
    for mark in (True, False):
        vm = VM(SimConfig(seed=seed), collector=NG2CCollector())
        sizes: List[int] = []
        vm.attach_agent(Recorder(mark_no_need=mark))
        vm.attach_agent(
            Dumper(lambda snapshot: sizes.append(snapshot.size_bytes))
        )
        try:
            drive(vm, make_workload(workload, seed=seed), duration_ms)
        finally:
            vm.close()
        totals[mark] = sum(sizes)
    return MadviseAblation(
        workload=workload,
        bytes_with_madvise=totals[True],
        bytes_without_madvise=totals[False],
    )
