"""Unit tests for regions (bump allocation, accounting, reset)."""

import pytest

from repro.errors import RegionFullError
from repro.heap.objects import HeapObject
from repro.heap.region import Region


@pytest.fixture
def region() -> Region:
    return Region(index=2, base=2 * 65536, size=65536)


class TestBumpAllocation:
    def test_first_object_at_base(self, region):
        obj = HeapObject(size=64)
        address = region.bump_allocate(obj)
        assert address == region.base
        assert obj.address == region.base

    def test_sequential_addresses(self, region):
        a = HeapObject(size=64)
        b = HeapObject(size=128)
        region.bump_allocate(a)
        region.bump_allocate(b)
        assert b.address == a.address + a.size

    def test_objects_tracked(self, region):
        a = HeapObject(size=64)
        region.bump_allocate(a)
        assert region.objects == [a]

    def test_full_region_raises(self, region):
        region.bump_allocate(HeapObject(size=65536))
        with pytest.raises(RegionFullError):
            region.bump_allocate(HeapObject(size=16))


class TestAccounting:
    def test_used_and_free(self, region):
        region.bump_allocate(HeapObject(size=100))
        assert region.used_bytes == 100
        assert region.free_bytes == 65536 - 100

    def test_page_span_empty(self, region):
        assert list(region.page_span(4096)) == []

    def test_page_span_used(self, region):
        region.bump_allocate(HeapObject(size=5000))
        pages = list(region.page_span(4096))
        assert pages[0] == region.base // 4096
        assert len(pages) == 2


class TestReset:
    def test_reset_clears_everything(self, region):
        region.gen_id = 3
        region.bump_allocate(HeapObject(size=64))
        region.reset()
        assert region.top == 0
        assert region.gen_id is None
        assert region.objects == []
        assert region.free_bytes == 65536
