"""Unit tests for the Instrumenter agent."""

import pytest

from repro.config import SimConfig
from repro.core.instrumenter import Instrumenter
from repro.core.profile import AllocationProfile, AllocDirective, CallDirective
from repro.errors import PretenuringUnsupportedError
from repro.gc.g1 import G1Collector
from repro.gc.ng2c import NG2CCollector
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM


def build_model() -> ClassModel:
    model = ClassModel("C")
    method = model.add_method("m")
    method.add_alloc_site(10, "Row", 256)
    method.add_alloc_site(11, "Tmp", 64)
    method.add_call_site(20, "D", "n")
    return model


def make_profile() -> AllocationProfile:
    return AllocationProfile(
        workload="unit",
        alloc_directives=[AllocDirective("C", "m", 10, pre_set_gen=None)],
        call_directives=[CallDirective("C", "m", 20, target_generation=2)],
    )


class TestAttachment:
    def test_requires_pretenuring_collector(self):
        vm = VM(SimConfig.small(), collector=G1Collector())
        with pytest.raises(PretenuringUnsupportedError):
            vm.attach_agent(Instrumenter(make_profile()))

    def test_generations_created_at_launch(self):
        vm = VM(SimConfig.small(), collector=NG2CCollector())
        vm.attach_agent(Instrumenter(make_profile()))
        assert vm.collector.created_generation_count == 1


class TestTransformation:
    def test_directives_applied_at_load(self):
        vm = VM(SimConfig.small(), collector=NG2CCollector())
        instrumenter = Instrumenter(make_profile())
        vm.attach_agent(instrumenter)
        loaded = vm.classloader.load(build_model())
        assert loaded.method("m").alloc_site(10).gen_annotated
        assert not loaded.method("m").alloc_site(11).gen_annotated
        assert loaded.method("m").call_site(20).target_generation == 2
        assert instrumenter.applied_alloc_sites == 1
        assert instrumenter.applied_call_sites == 1

    def test_pre_set_gen_applied(self):
        vm = VM(SimConfig.small(), collector=NG2CCollector())
        profile = AllocationProfile(
            workload="unit",
            alloc_directives=[AllocDirective("C", "m", 10, pre_set_gen=4)],
            call_directives=[],
        )
        vm.attach_agent(Instrumenter(profile))
        loaded = vm.classloader.load(build_model())
        site = loaded.method("m").alloc_site(10)
        assert site.gen_annotated
        assert site.pre_set_gen == 4

    def test_unrelated_class_untouched(self):
        vm = VM(SimConfig.small(), collector=NG2CCollector())
        instrumenter = Instrumenter(make_profile())
        vm.attach_agent(instrumenter)
        other = ClassModel("Other")
        other.add_method("x").add_alloc_site(10)
        loaded = vm.classloader.load(other)
        assert not loaded.method("x").alloc_site(10).gen_annotated
        assert instrumenter.applied_alloc_sites == 0

    def test_end_to_end_pretenuring(self):
        vm = VM(SimConfig.small(), collector=NG2CCollector())
        vm.attach_agent(Instrumenter(make_profile()))
        model = build_model()
        callee = ClassModel("D")
        callee.add_method("n").add_alloc_site(30, "Inner", 128)
        vm.classloader.load(model)
        vm.classloader.load(callee)
        # Annotate the callee site through the profile's call directive.
        vm.classloader.lookup("D").method("n").alloc_site(30).gen_annotated = True
        thread = vm.new_thread("t")
        with thread.entry("C", "m"):
            top = thread.alloc(10)  # @Gen but target gen 0 -> young
            with thread.call(20, "D", "n"):
                inner = thread.alloc(30)  # @Gen with target gen 2
        assert top.gen_id == 0
        assert inner.gen_id == vm.collector.ensure_generation(2)
