"""Unit tests for frames/stack-trace capture and the root registry."""

from repro.heap.objects import HeapObject
from repro.runtime.code import MethodModel
from repro.runtime.roots import RootRegistry
from repro.runtime.stack import Frame, capture_stack_trace


class TestFrame:
    def test_location_tracks_current_line(self):
        frame = Frame(MethodModel("C", "m"))
        assert frame.location == ("C", "m", 0)
        frame.current_line = 42
        assert frame.location == ("C", "m", 42)

    def test_keep_roots_object(self):
        frame = Frame(MethodModel("C", "m"))
        obj = HeapObject(size=64)
        assert frame.keep(obj) is obj
        assert obj in frame.locals


class TestStackTraceCapture:
    def test_innermost_last(self):
        outer = Frame(MethodModel("A", "a"))
        outer.current_line = 10
        inner = Frame(MethodModel("B", "b"))
        inner.current_line = 20
        trace = capture_stack_trace([outer, inner])
        assert trace == (("A", "a", 10), ("B", "b", 20))

    def test_empty_stack(self):
        assert capture_stack_trace([]) == ()


class TestRootRegistry:
    def test_pin_and_get(self):
        registry = RootRegistry()
        obj = HeapObject(size=64)
        registry.pin("cache", obj)
        assert registry.get("cache") is obj
        assert registry.names == ["cache"]
        assert len(registry) == 1

    def test_pin_replaces(self):
        registry = RootRegistry()
        first = HeapObject(size=64)
        second = HeapObject(size=64)
        registry.pin("x", first)
        registry.pin("x", second)
        assert registry.get("x") is second
        assert list(registry.iter_static_roots()) == [second]

    def test_unpin(self):
        registry = RootRegistry()
        obj = HeapObject(size=64)
        registry.pin("x", obj)
        assert registry.unpin("x") is obj
        assert registry.unpin("x") is None
        assert len(registry) == 0

    def test_iteration_safe_against_mutation(self):
        registry = RootRegistry()
        registry.pin("a", HeapObject(size=64))
        for _ in registry.iter_static_roots():
            registry.pin("b", HeapObject(size=64))  # must not blow up
