"""Unit tests for heap objects and headers."""

import pytest

from repro.heap.objects import (
    HEADER_BYTES,
    NO_REFS,
    HeapObject,
    next_identity_hash,
)


class TestIdentityHash:
    def test_monotonic_and_unique(self):
        first = next_identity_hash()
        second = next_identity_hash()
        assert second > first

    def test_objects_get_distinct_ids(self):
        a = HeapObject(size=64)
        b = HeapObject(size=64)
        assert a.object_id != b.object_id

    def test_id_allocated_in_creation_order(self):
        a = HeapObject(size=64)
        b = HeapObject(size=64)
        assert b.object_id > a.object_id

    def test_id_survives_address_change(self):
        # The Analyzer's §4.3 requirement: ids live in headers, not
        # addresses, so a GC move must not change them.
        obj = HeapObject(size=64)
        original = obj.object_id
        obj.address = 4096
        obj.address = 65536
        assert obj.object_id == original


class TestHeapObject:
    def test_rejects_size_below_header(self):
        with pytest.raises(ValueError):
            HeapObject(size=HEADER_BYTES - 1)

    def test_minimum_size_is_header(self):
        obj = HeapObject(size=HEADER_BYTES)
        assert obj.size == HEADER_BYTES

    def test_initial_placement_is_unmapped(self):
        obj = HeapObject(size=64)
        assert obj.address == -1
        assert obj.gen_id == -1
        assert obj.age == 0

    def test_refs_start_empty(self):
        obj = HeapObject(size=64)
        assert obj.refs == []
        assert list(obj.iter_refs()) == []

    def test_leaves_share_one_empty_refs_value(self):
        a, b = HeapObject(size=64), HeapObject(size=64)
        assert a._refs is NO_REFS
        assert b._refs is NO_REFS
        # refs hands a leaf's caller a list of its own, never the shared value.
        assert a.refs == [] and a.refs is not b.refs

    def test_page_span_unmapped_is_empty(self):
        obj = HeapObject(size=64)
        assert list(obj.page_span(4096)) == []

    def test_page_span_single_page(self):
        obj = HeapObject(size=64)
        obj.address = 100
        assert list(obj.page_span(4096)) == [0]

    def test_page_span_straddles_boundary(self):
        obj = HeapObject(size=128)
        obj.address = 4096 - 32
        assert list(obj.page_span(4096)) == [0, 1]

    def test_page_span_large_object(self):
        obj = HeapObject(size=3 * 4096)
        obj.address = 4096
        assert list(obj.page_span(4096)) == [1, 2, 3]
