"""Unit tests for the Dumper component."""

import pytest

from repro.config import SimConfig
from repro.core.dumper import Dumper
from repro.core.idset import EMPTY_IDSET, IdSet
from repro.gc.ng2c import NG2CCollector
from repro.runtime.vm import VM


@pytest.fixture
def vm() -> VM:
    return VM(SimConfig.small(), collector=NG2CCollector())


def attached(vm, consume=lambda snapshot: None) -> Dumper:
    dumper = Dumper(consume)
    vm.attach_agent(dumper)
    return dumper


class TestDumper:
    def test_snapshot_charged_to_clock(self, vm):
        dumper = attached(vm)
        obj = vm.allocate_anonymous(4096)
        before = vm.clock.now_us
        snapshot = dumper.take_snapshot(IdSet([obj.object_id]))
        assert vm.clock.now_us == before + snapshot.duration_us

    def test_snapshots_accumulate_in_store(self, vm):
        # The consumer is the store: each snapshot reaches it, in order,
        # before take_snapshot returns; the Dumper keeps only a count.
        store = []
        dumper = attached(vm, store.append)
        first = dumper.take_snapshot(EMPTY_IDSET)
        assert store == [first]
        dumper.take_snapshot(EMPTY_IDSET)
        assert dumper.snapshots_taken == 2
        assert [s.seq for s in store] == [1, 2]

    def test_snapshot_times_are_virtual(self, vm):
        dumper = attached(vm)
        first = dumper.take_snapshot(EMPTY_IDSET)
        vm.clock.advance_ms(500.0)
        second = dumper.take_snapshot(EMPTY_IDSET)
        assert second.time_ms > first.time_ms + 499.0

    def test_incremental_across_snapshots(self, vm):
        dumper = attached(vm)
        vm.allocate_anonymous(8192)
        first = dumper.take_snapshot(EMPTY_IDSET)
        second = dumper.take_snapshot(EMPTY_IDSET)
        assert second.pages_written == 0
        assert first.pages_written > 0
