"""Tests for the typed VM event bus and the agent attach/detach seam."""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.recorder import Recorder
from repro.errors import ReproError
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.runtime.events import (
    ALLOCATION,
    CLASS_LOAD,
    EVENT_KINDS,
    GC_END,
    GC_START,
    SAFEPOINT,
    SNAPSHOT_POINT,
    EventBus,
    VMAgent,
)
from repro.runtime.vm import VM
from tests.conftest import build_simple_class


class _JournalAgent(VMAgent):
    """Records every event delivered, in order, as (kind, payload)."""

    def __init__(self):
        self.journal = []

    def transform(self, class_model):
        self.journal.append(("transform", class_model.name))
        for site in class_model.iter_alloc_sites():
            site.record_hook = True  # opt into allocation events
        return class_model

    def on_class_load(self, event):
        self.journal.append((CLASS_LOAD, event.class_model.name))

    def on_allocation(self, obj, site, trace):
        self.journal.append((ALLOCATION, obj.object_id))

    def on_safepoint(self, event):
        self.journal.append((SAFEPOINT, event.kind))

    def on_gc_start(self, event):
        self.journal.append((GC_START, event.cycle))

    def on_gc_end(self, event):
        self.journal.append((GC_END, event.pause.cycle))

    def on_snapshot_point(self, event):
        self.journal.append((SNAPSHOT_POINT, event.pause.cycle))

    def kinds(self):
        return [kind for kind, _ in self.journal]


def _run_workload(vm, duration_ms=1200.0):
    from repro.workloads import make_workload

    workload = make_workload("graphchi-pr", seed=7)
    for model in workload.class_models():
        vm.classloader.load(model)
    workload.setup(vm)
    while vm.clock.now_ms < duration_ms:
        workload.tick()
    workload.teardown()
    return workload


class TestEventBus:
    def test_publish_dispatches_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(SAFEPOINT, lambda e: seen.append("first"))
        bus.subscribe(SAFEPOINT, lambda e: seen.append("second"))
        bus.publish(SAFEPOINT, object())
        assert seen == ["first", "second"]

    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ReproError):
            bus.subscribe("comet-sighting", lambda e: None)
        with pytest.raises(ReproError):
            bus.publish("comet-sighting", object())

    def test_listener_list_is_live(self):
        bus = EventBus()
        alias = bus.listener_list(ALLOCATION)
        assert not alias
        bus.subscribe(ALLOCATION, lambda *a: None)
        assert len(alias) == 1  # same list object, mutated in place
        assert bus.has_listeners(ALLOCATION)

    def test_every_kind_has_a_slot(self):
        bus = EventBus()
        for kind in EVENT_KINDS:
            assert not bus.has_listeners(kind)


class TestAttachDetachSymmetry:
    def test_detach_reverses_attach(self, small_config):
        vm = VM(small_config, collector=G1Collector())
        agent = _JournalAgent()
        vm.attach_agent(agent)
        assert agent in vm.agents
        assert vm.events.has_listeners(CLASS_LOAD)
        assert agent in vm.classloader.transformers
        vm.detach_agent(agent)
        assert agent not in vm.agents
        assert agent not in vm.classloader.transformers
        for kind in EVENT_KINDS:
            assert not vm.events.has_listeners(kind)

    def test_double_attach_rejected(self, small_config):
        vm = VM(small_config, collector=G1Collector())
        agent = _JournalAgent()
        vm.attach_agent(agent)
        with pytest.raises(ReproError):
            vm.attach_agent(agent)

    def test_detach_unattached_rejected(self, small_config):
        vm = VM(small_config, collector=G1Collector())
        with pytest.raises(ReproError):
            vm.detach_agent(_JournalAgent())

    def test_detached_agent_sees_no_events(self, small_config):
        vm = VM(small_config, collector=G1Collector())
        agent = _JournalAgent()
        vm.attach_agent(agent)
        vm.detach_agent(agent)
        vm.classloader.load(build_simple_class())
        vm.safepoint("flush")
        assert agent.journal == []

    def test_failed_attach_leaves_vm_untouched(self, small_config):
        class _Throws(VMAgent):
            def on_attach(self, vm):
                raise ReproError("refused")

            def on_allocation(self, obj, site, trace):  # pragma: no cover
                pass

        vm = VM(small_config, collector=G1Collector())
        with pytest.raises(ReproError):
            vm.attach_agent(_Throws())
        assert vm.agents == []
        assert not vm.events.has_listeners(ALLOCATION)

class TestEventOrdering:
    def test_class_load_precedes_first_allocation(self):
        # Full-size heap: graphchi-pr overruns the 8 MiB test config.
        vm = VM(SimConfig(seed=7), collector=NG2CCollector())
        agent = _JournalAgent()
        vm.attach_agent(agent)
        _run_workload(vm)
        kinds = agent.kinds()
        assert CLASS_LOAD in kinds and ALLOCATION in kinds
        assert kinds.index(CLASS_LOAD) < kinds.index(ALLOCATION)

    def test_transform_precedes_class_load_event(self, small_config):
        vm = VM(small_config, collector=G1Collector())
        agent = _JournalAgent()
        vm.attach_agent(agent)
        vm.classloader.load(build_simple_class())
        assert agent.kinds() == ["transform", CLASS_LOAD]

    def test_gc_brackets_and_snapshot_point_order(self):
        vm = VM(SimConfig(seed=7), collector=NG2CCollector())
        # The journal agent attaches first: its GC_END hook runs before
        # the Recorder's, which is what publishes the SNAPSHOT_POINT.
        agent = _JournalAgent()
        vm.attach_agent(agent)
        vm.attach_agent(Recorder())
        vm.attach_agent(Dumper())
        _run_workload(vm)
        kinds = agent.kinds()
        assert GC_START in kinds and GC_END in kinds
        assert SNAPSHOT_POINT in kinds
        # Every gc-end is preceded by its gc-start, and every
        # snapshot-point follows a gc-end of the same cycle.
        journal = agent.journal
        for i, (kind, payload) in enumerate(journal):
            if kind == GC_END:
                assert (GC_START, payload) in journal[:i]
            if kind == SNAPSHOT_POINT:
                assert (GC_END, payload) in journal[:i]

    def test_workload_flush_publishes_safepoint(self):
        vm = VM(SimConfig(seed=3), collector=NG2CCollector())
        agent = _JournalAgent()
        vm.attach_agent(agent)
        from repro.workloads import make_workload

        workload = make_workload("cassandra-wi", seed=3)
        for model in workload.class_models():
            vm.classloader.load(model)
        workload.setup(vm)
        while vm.clock.now_ms < 2500.0 and (SAFEPOINT, "flush") not in agent.journal:
            workload.tick()
        workload.teardown()
        assert (SAFEPOINT, "flush") in agent.journal


class TestGCStartEvent:
    def test_start_ms_is_pre_pause_clock(self):
        vm = VM(SimConfig(seed=7), collector=G1Collector())
        starts = []
        vm.events.subscribe(GC_START, lambda e: starts.append(e))
        _run_workload(vm)
        pauses = vm.collector.pauses
        assert len(starts) == len(pauses)
        for event, pause in zip(starts, pauses):
            assert event.cycle == pause.cycle
            assert event.kind == pause.kind
            assert event.start_ms == pause.start_ms
            assert event.collector == vm.collector.name
