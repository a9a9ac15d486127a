"""The per-allocation collector hooks on the scalar path."""

from __future__ import annotations

import pytest

from repro.config import SimConfig, YOUNG_GEN
from repro.errors import GCError
from repro.gc.binary import BinaryPretenuringCollector
from repro.gc.c4 import C4Collector
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM

COLLECTORS = [G1Collector, NG2CCollector, C4Collector, BinaryPretenuringCollector]


@pytest.mark.parametrize("factory", COLLECTORS)
def test_before_allocation_without_a_vm_raises(factory):
    with pytest.raises(GCError):
        factory().before_allocation(64)


@pytest.mark.parametrize("factory", COLLECTORS)
def test_each_hook_runs_once_per_scalar_allocation(factory):
    calls = []

    class Counting(factory):
        def before_allocation(self, size):
            calls.append(("before", size))
            super().before_allocation(size)

        def resolve_allocation_gen(self, pretenure_index):
            calls.append(("resolve", pretenure_index))
            return super().resolve_allocation_gen(pretenure_index)

        def after_allocation(self, size, gen_id):
            calls.append(("after", size, gen_id))
            super().after_allocation(size, gen_id)

    vm = VM(SimConfig.small(), collector=Counting())
    model = ClassModel("C")
    model.add_method("run").add_alloc_site(10, "Obj", 64)
    vm.classloader.load(model)
    thread = vm.new_thread("t")
    with thread.entry("C", "run"):
        thread.alloc(10)
        thread.alloc(10, size=96)
    assert calls == [
        ("before", 64),
        ("resolve", 0),
        ("after", 64, YOUNG_GEN),
        ("before", 96),
        ("resolve", 0),
        ("after", 96, YOUNG_GEN),
    ]


def test_ng2c_young_index_needs_no_generation_lookup(monkeypatch):
    collector = NG2CCollector()
    VM(SimConfig.small(), collector=collector)

    def no_lookup(index):
        raise AssertionError(f"ensure_generation({index}) on the young path")

    monkeypatch.setattr(collector, "ensure_generation", no_lookup)
    assert collector.resolve_allocation_gen(0) == YOUNG_GEN
    assert collector.resolve_allocation_gen(-1) == YOUNG_GEN
