"""Unit tests for the page table (dirty + no-need bits)."""

import pytest

from repro.errors import InvalidAddressError
from repro.heap.page import PageTable


@pytest.fixture
def table() -> PageTable:
    return PageTable(address_space_bytes=16 * 4096, page_size=4096)


class TestConstruction:
    def test_page_count(self, table):
        assert table.num_pages == 16

    def test_rounds_partial_page_up(self):
        table = PageTable(address_space_bytes=4097, page_size=4096)
        assert table.num_pages == 2

    def test_rejects_empty_address_space(self):
        with pytest.raises(ValueError):
            PageTable(0)

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            PageTable(4096, page_size=0)


class TestAddressing:
    def test_page_index(self, table):
        assert table.page_index(0) == 0
        assert table.page_index(4095) == 0
        assert table.page_index(4096) == 1

    def test_page_index_out_of_range(self, table):
        with pytest.raises(InvalidAddressError):
            table.page_index(16 * 4096)
        with pytest.raises(InvalidAddressError):
            table.page_index(-1)

    def test_pages_for_range(self, table):
        assert list(table.pages_for_range(0, 1)) == [0]
        assert list(table.pages_for_range(4000, 200)) == [0, 1]
        assert list(table.pages_for_range(0, 3 * 4096)) == [0, 1, 2]

    def test_pages_for_empty_range(self, table):
        assert list(table.pages_for_range(0, 0)) == []

    def test_pages_for_negative_range(self, table):
        assert list(table.pages_for_range(0, -1)) == []
        assert list(table.pages_for_range(8 * 4096, -4096)) == []

    def test_range_touching_last_page(self, table):
        assert list(table.pages_for_range(15 * 4096, 4096)) == [15]
        assert list(table.pages_for_range(14 * 4096 + 1, 2 * 4096 - 1)) == [14, 15]

    def test_range_past_last_page_raises(self, table):
        with pytest.raises(InvalidAddressError):
            table.pages_for_range(15 * 4096, 4097)

    def test_partial_trailing_page_is_addressable(self):
        # 4097 bytes round up to two pages; the tail page is only 1 byte.
        table = PageTable(address_space_bytes=4097, page_size=4096)
        assert list(table.pages_for_range(4096, 1)) == [1]
        table.mark_written_range(4096, 1)
        assert table.is_dirty(1)


class TestDirtyBit:
    def test_fresh_table_is_clean(self, table):
        assert table.dirty_pages() == []

    def test_mark_dirty_range(self, table):
        table.mark_dirty_range(4096, 100)
        assert table.dirty_pages() == [1]
        assert table.is_dirty(1)
        assert not table.is_dirty(0)

    def test_mark_dirty_spanning(self, table):
        table.mark_dirty_range(4000, 5000)
        assert table.dirty_pages() == [0, 1, 2]

    def test_clear_dirty_returns_count(self, table):
        table.mark_dirty_range(0, 3 * 4096)
        assert table.clear_dirty() == 3
        assert table.dirty_pages() == []

    def test_zero_length_write_is_noop(self, table):
        table.mark_dirty_range(0, 0)
        assert table.dirty_pages() == []

    def test_mark_dirty_pages_list(self, table):
        table.mark_dirty_pages([2, 5])
        assert table.dirty_pages() == [2, 5]


class TestNoNeedBit:
    def test_set_and_clear(self, table):
        table.set_no_need([3, 4])
        assert table.no_need_pages() == [3, 4]
        table.clear_no_need([3])
        assert table.no_need_pages() == [4]

    def test_clear_all(self, table):
        table.set_no_need(range(8))
        table.clear_all_no_need()
        assert table.no_need_pages() == []

    def test_no_need_independent_of_dirty(self, table):
        table.mark_dirty_range(0, 4096)
        table.set_no_need([0])
        assert table.is_dirty(0)
        assert table.is_no_need(0)


class TestSnapshotCandidates:
    def test_candidates_are_dirty_minus_no_need(self, table):
        table.mark_dirty_pages([0, 1, 2, 3])
        table.set_no_need([1, 3, 8])
        assert table.snapshot_candidate_pages() == [0, 2]

    def test_mark_written_clears_stale_advice(self, table):
        table.set_no_need([0])
        table.mark_written_range(0, 100)
        assert table.is_dirty(0)
        assert not table.is_no_need(0)

    def test_counts(self, table):
        table.mark_dirty_pages([0, 1])
        table.set_no_need([1, 2])
        counts = table.counts()
        assert counts.total == 16
        assert counts.dirty == 2
        assert counts.no_need == 2
        assert counts.dirty_and_no_need == 1

    def test_candidate_count_matches_candidate_list(self, table):
        table.mark_dirty_pages([0, 1, 2, 3])
        table.set_no_need([1, 3, 8])
        assert table.snapshot_candidate_count() == len(
            table.snapshot_candidate_pages()
        )

    def test_clear_dirty_preserves_no_need(self, table):
        table.mark_dirty_pages([0, 1])
        table.set_no_need([1, 2])
        assert table.clear_dirty() == 2
        assert table.no_need_pages() == [1, 2]
        assert table.dirty_pages() == []


class TestRewriteNoNeed:
    def test_marks_complement_of_needed(self, table):
        needed = bytearray(table.num_pages)
        needed[3] = 1
        needed[7] = 1
        marked = table.rewrite_no_need(needed)
        assert marked == 14
        assert table.no_need_pages() == [p for p in range(16) if p not in (3, 7)]

    def test_replaces_stale_advice(self, table):
        table.set_no_need([5])
        needed = bytearray(table.num_pages)
        needed[5] = 1  # page 5 now holds live data
        table.rewrite_no_need(needed)
        assert not table.is_no_need(5)
        assert table.is_no_need(4)

    def test_preserves_dirty_bits(self, table):
        table.mark_dirty_pages([0, 5])
        needed = bytearray(table.num_pages)
        needed[0] = 1
        table.rewrite_no_need(needed)
        assert table.is_dirty(0) and table.is_dirty(5)
        assert not table.is_no_need(0)
        assert table.is_no_need(5)

    def test_rejects_wrong_size_map(self, table):
        with pytest.raises(ValueError):
            table.rewrite_no_need(bytearray(table.num_pages - 1))
