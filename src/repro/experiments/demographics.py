"""Object-lifetime demographics: the paper's motivation, measured.

§1/§2 of the paper argue that big-data platforms "violate the widely
accepted assumption that most objects die young" (the weak generational
hypothesis, Ungar 1984; demographics in Jones & Ryder 2008): they hold
massive volumes of *middle to long-lived* objects, which is why
2-generation collectors pay en-masse promotion and compaction.

This experiment measures exactly that: per workload, the fraction of
allocated objects surviving at least k GC cycles, compared against a
control workload that *does* obey the hypothesis (pure request/response:
every allocation dies within its request).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.pipeline import drive
from repro.core.recorder import Recorder
from repro.core.stages import ProfileBuilder
from repro.gc.ng2c import NG2CCollector
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM
from repro.workloads import make_workload
from repro.workloads.base import Workload

#: Survival thresholds (GC cycles) reported per workload.
SURVIVAL_THRESHOLDS = (1, 2, 4, 8)


class RequestResponseControl(Workload):
    """A weak-generational-hypothesis-compliant control workload.

    Pure request/response: every operation allocates scratch that dies
    when the request completes.  Nothing is retained, so essentially no
    object should survive even one collection.
    """

    name = "control-request-response"

    def __init__(self, seed: int = 42, ops_per_tick: int = 64) -> None:
        super().__init__()
        self.ops_per_tick = ops_per_tick

    def class_models(self) -> List[ClassModel]:
        service = ClassModel("control.Service")
        handle = service.add_method("handle")
        handle.add_alloc_site(10, "Request", 256)
        handle.add_alloc_site(11, "Response", 384)
        handle.add_alloc_site(12, "Scratch", 192)
        return [service]

    def setup(self, vm) -> None:
        self.vm = vm
        self.thread = vm.new_thread("handler")

    def tick(self) -> int:
        with self.thread.entry("control.Service", "handle"):
            for _ in range(self.ops_per_tick):
                self.thread.alloc(10, keep=False)
                self.thread.alloc(11, keep=False)
                self.thread.alloc(12, keep=False)
                self.vm.tick_op()
        return self.ops_per_tick


@dataclasses.dataclass
class DemographicsRow:
    """Survival fractions for one workload."""

    workload: str
    objects_observed: int
    #: threshold -> fraction of objects surviving >= threshold cycles.
    survival: Dict[int, float]

    @property
    def middle_lived_fraction(self) -> float:
        """Objects surviving >= 2 cycles — the population G1 churns on."""
        return self.survival.get(2, 0.0)


def measure_workload(
    workload_name: str,
    duration_ms: float = 15_000.0,
    seed: int = 42,
    workload: Workload = None,
) -> DemographicsRow:
    """Profile one workload and fold its survival distribution."""
    workload = workload or make_workload(workload_name, seed=seed)
    vm = VM(SimConfig(seed=seed), collector=NG2CCollector())
    recorder = Recorder()
    builder = ProfileBuilder(recorder.records)
    vm.attach_agent(recorder)
    vm.attach_agent(Dumper(builder.feed_snapshot))
    drive(vm, workload, duration_ms)
    analyzer = builder.analyzer
    analyzer.finish()
    # The per-trace histograms already exclude ids allocated after the
    # last snapshot (no lifetime signal); summing them over every trace
    # gives the whole-run survival histogram.
    observed = 0
    survivors = {threshold: 0 for threshold in SURVIVAL_THRESHOLDS}
    for dist in analyzer.distributions.values():
        for survived, count in dist.buckets.items():
            observed += count
            for threshold in SURVIVAL_THRESHOLDS:
                if survived >= threshold:
                    survivors[threshold] += count
    survival = {
        threshold: (survivors[threshold] / observed if observed else 0.0)
        for threshold in SURVIVAL_THRESHOLDS
    }
    return DemographicsRow(
        workload=workload.name, objects_observed=observed, survival=survival
    )


def run(
    workloads: Sequence[str] = ("cassandra-wi", "lucene", "graphchi-pr"),
    duration_ms: float = 15_000.0,
    seed: int = 42,
) -> Dict[str, DemographicsRow]:
    rows = {
        "control": measure_workload(
            "control",
            duration_ms=duration_ms,
            seed=seed,
            workload=RequestResponseControl(seed=seed),
        )
    }
    for name in workloads:
        rows[name] = measure_workload(name, duration_ms=duration_ms, seed=seed)
    return rows


def render(rows: Dict[str, DemographicsRow]) -> str:
    lines = [
        "Object lifetime demographics: fraction of objects surviving >= k "
        "GC cycles",
        f"{'workload':>26} {'observed':>9} "
        + " ".join(f">={t:>2}cyc" for t in SURVIVAL_THRESHOLDS),
    ]
    for name, row in rows.items():
        cells = " ".join(
            f"{row.survival[t]:>6.1%}" for t in SURVIVAL_THRESHOLDS
        )
        lines.append(f"{name:>26} {row.objects_observed:>9} {cells}")
    lines.append(
        "(the paper's premise: big-data platforms hold far more middle/"
        "long-lived objects than the weak generational hypothesis assumes)"
    )
    return "\n".join(lines)
