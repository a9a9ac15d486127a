"""Unit tests for simulated threads: frames, traces, generation brackets."""

import pytest

from repro.config import SimConfig
from repro.errors import NoActiveFrameError
from repro.gc.ng2c import NG2CCollector
from repro.runtime.code import ClassModel
from repro.runtime.vm import VM


def build_vm() -> VM:
    vm = VM(SimConfig.small(), collector=NG2CCollector())
    outer = ClassModel("Outer")
    run = outer.add_method("run")
    run.add_alloc_site(5, "Top", 64)
    run.add_call_site(10, "Inner", "work")
    inner = ClassModel("Inner")
    work = inner.add_method("work")
    work.add_alloc_site(20, "Obj", 128)
    vm.classloader.load(outer)
    vm.classloader.load(inner)
    return vm


class TestFrames:
    def test_alloc_outside_frame_raises(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with pytest.raises(NoActiveFrameError):
            thread.alloc(5)

    def test_entry_and_nested_call(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            assert len(thread.frames) == 1
            with thread.call(10, "Inner", "work"):
                assert len(thread.frames) == 2
            assert len(thread.frames) == 1
        assert thread.frames == []

    def test_alloc_at_undeclared_line_raises(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            with pytest.raises(NoActiveFrameError):
                thread.alloc(99)

    def test_stack_trace_capture(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            with thread.call(10, "Inner", "work"):
                thread.alloc(20)
                trace = thread.current_stack_trace()
        assert trace == (("Outer", "run", 10), ("Inner", "work", 20))

    def test_frame_locals_are_roots(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            obj = thread.alloc(5)
            assert obj in list(thread.iter_roots())
        assert list(thread.iter_roots()) == []

    def test_keep_false_does_not_root(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            thread.alloc(5, keep=False)
            assert list(thread.iter_roots()) == []


class TestGenerationBracket:
    def test_call_directive_switches_and_restores(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        loaded = vm.classloader.lookup("Outer")
        loaded.method("run").call_site(10).target_generation = 3
        with thread.entry("Outer", "run"):
            assert thread.target_gen == 0
            with thread.call(10, "Inner", "work"):
                assert thread.target_gen == 3
            assert thread.target_gen == 0
        assert vm.set_generation_calls == 2

    def test_annotated_site_pretenures_into_target_gen(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        loaded = vm.classloader.lookup("Inner")
        loaded.method("work").alloc_site(20).gen_annotated = True
        vm.classloader.lookup("Outer").method("run").call_site(
            10
        ).target_generation = 2
        with thread.entry("Outer", "run"):
            with thread.call(10, "Inner", "work"):
                obj = thread.alloc(20)
        expected_heap_gen = vm.collector.ensure_generation(2)
        assert obj.gen_id == expected_heap_gen

    def test_unannotated_site_ignores_target_gen(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        thread.target_gen = 4
        with thread.entry("Outer", "run"):
            obj = thread.alloc(5)
        assert obj.gen_id == 0

    def test_pre_set_gen_bracket(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        site = vm.classloader.lookup("Outer").method("run").alloc_site(5)
        site.gen_annotated = True
        site.pre_set_gen = 2
        with thread.entry("Outer", "run"):
            obj = thread.alloc(5)
        assert obj.gen_id == vm.collector.ensure_generation(2)
        assert vm.set_generation_calls == 2

    def test_custom_size_overrides_hint(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            obj = thread.alloc(5, size=1024)
        assert obj.size == 1024


class TestAllocBatch:
    def test_count_uses_size_hint(self):
        vm = build_vm()
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            objs = thread.alloc_batch(5, count=7)
        assert [o.size for o in objs] == [64] * 7

    def test_gen_annotated_site_pretenures(self):
        vm = build_vm()
        site = vm.classloader.lookup("Outer").method("run").alloc_site(5)
        site.gen_annotated = True
        site.pre_set_gen = 1
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            objs = thread.alloc_batch(5, count=4)
        gen_id = vm.collector.ensure_generation(1)
        assert [o.gen_id for o in objs] == [gen_id] * 4
        assert vm.set_generation_calls == 2 * 4

    def test_link_from_writes_refs(self):
        vm = build_vm()
        parent = vm.allocate_anonymous(64)
        vm.roots.pin("p", parent)
        thread = vm.new_thread("t")
        with thread.entry("Outer", "run"):
            objs = thread.alloc_batch(5, count=6, link_from=parent)
        assert parent.refs == objs
