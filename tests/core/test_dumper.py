"""Unit tests for the Dumper component."""

import pytest

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM


@pytest.fixture
def vm() -> VM:
    return VM(SimConfig.small(), collector=NG2CCollector())


def attached(vm, **kwargs) -> Dumper:
    dumper = Dumper(**kwargs)
    vm.attach_agent(dumper)
    return dumper


class TestDumper:
    def test_snapshot_charged_to_clock(self, vm):
        dumper = attached(vm)
        obj = vm.allocate_anonymous(4096)
        before = vm.clock.now_us
        snapshot = dumper.take_snapshot([obj])
        assert vm.clock.now_us == before + snapshot.duration_us

    def test_snapshots_accumulate_in_store(self, vm):
        dumper = attached(vm)
        dumper.take_snapshot([])
        dumper.take_snapshot([])
        assert dumper.snapshots_taken == 2
        assert dumper.store[0].seq == 1
        assert dumper.store[1].seq == 2

    def test_snapshot_times_are_virtual(self, vm):
        dumper = attached(vm)
        first = dumper.take_snapshot([])
        vm.clock.advance_ms(500.0)
        second = dumper.take_snapshot([])
        assert second.time_ms > first.time_ms + 499.0

    def test_external_store_shared(self, vm):
        from repro.snapshot.snapshot import SnapshotStore

        store = SnapshotStore()
        dumper = attached(vm, store=store)
        dumper.take_snapshot([])
        assert len(store) == 1

    def test_incremental_across_snapshots(self, vm):
        dumper = attached(vm)
        vm.allocate_anonymous(8192)
        first = dumper.take_snapshot([])
        second = dumper.take_snapshot([])
        assert second.pages_written == 0
        assert first.pages_written > 0
