"""Unit tests for the Workload base class and the manual-NG2C adapter."""

from repro.config import SimConfig
from repro.core.profile import AllocDirective, CallDirective
from repro.gc.g1 import G1Collector
from repro.runtime.events import SAFEPOINT
from repro.runtime.vm import VM
from repro.workloads.base import ManualNG2CStrategy, Workload


class MinimalWorkload(Workload):
    name = "minimal"

    def class_models(self):
        return []

    def setup(self, vm):
        pass

    def tick(self):
        return 0


class TestFlushHooks:
    def test_hooks_fire_in_order(self):
        # The flush reaches SAFEPOINT subscribers in subscription order.
        vm = VM(SimConfig.small(), collector=G1Collector())
        workload = MinimalWorkload()
        workload.vm = vm
        calls = []
        vm.events.subscribe(SAFEPOINT, lambda e: calls.append(("a", e.kind)))
        vm.events.subscribe(SAFEPOINT, lambda e: calls.append(("b", e.source)))
        workload.fire_flush_hooks()
        assert calls == [("a", "flush"), ("b", "minimal")]

    def test_no_hooks_is_fine(self):
        MinimalWorkload().fire_flush_hooks()

    def test_default_manual_strategy_is_none(self):
        assert MinimalWorkload().manual_ng2c() is None

    def test_teardown_default_noop(self):
        MinimalWorkload().teardown()


class TestManualStrategyAdapter:
    def test_as_profile_carries_directives(self):
        strategy = ManualNG2CStrategy(
            alloc_directives=[AllocDirective("C", "m", 1)],
            call_directives=[CallDirective("C", "r", 2, target_generation=1)],
            notes="test",
        )
        profile = strategy.as_profile("wl")
        assert profile.workload == "wl-manual"
        assert profile.instrumented_site_count == 1
        assert profile.generation_indexes == {1}
        assert profile.metadata["manual"] is True
        assert profile.metadata["notes"] == "test"

    def test_defaults(self):
        strategy = ManualNG2CStrategy(alloc_directives=[], call_directives=[])
        assert not strategy.rotate_generation_on_flush
        assert strategy.conflicts_handled == 0
        assert strategy.rotating_index == 1
