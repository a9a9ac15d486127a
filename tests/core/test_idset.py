"""Unit tests for the compact id-set kernel (``repro.core.idset``)."""

import random

import pytest

from repro.core.idset import (
    BITMAP_BYTES,
    CHUNK_SPAN,
    EMPTY_IDSET,
    SPARSE_MAX,
    IdSet,
)


def assert_matches(idset, reference):
    """The kernel must agree with a plain Python set on everything."""
    reference = set(reference)
    assert len(idset) == len(reference)
    assert idset.to_list() == sorted(reference)
    assert list(idset) == sorted(reference)
    assert idset == reference
    if reference:
        assert idset.max() == max(reference)


class TestConstruction:
    def test_empty(self):
        empty = IdSet()
        assert len(empty) == 0
        assert not empty
        assert empty.to_list() == []
        assert 0 not in empty
        with pytest.raises(ValueError):
            empty.max()

    def test_single_id(self):
        single = IdSet([42])
        assert_matches(single, {42})
        assert 42 in single
        assert 41 not in single
        assert 43 not in single

    def test_adversarial_unsorted_duplicate_input(self):
        ids = [5, 1, 5, 3, 1, 1, 99, 3, 0, 99]
        assert_matches(IdSet(ids), set(ids))

    def test_dense_range_crossing_bitmap_block_boundary(self):
        # 0..n spanning two chunks: both sides must become bitmap blocks
        # and every boundary id must resolve.
        n = CHUNK_SPAN + CHUNK_SPAN // 2
        dense = IdSet(range(n))
        assert len(dense) == n
        for probe in (0, CHUNK_SPAN - 1, CHUNK_SPAN, CHUNK_SPAN + 1, n - 1):
            assert probe in dense
        assert n not in dense
        assert dense.max() == n - 1
        # Two chunks, both dense -> int bitmap containers.
        assert all(isinstance(c, int) for c in dense._chunks.values())

    def test_64_bit_identity_hashes(self):
        ids = {1 << 62, (1 << 62) + 1, (1 << 63) - 1, 7}
        big = IdSet(ids)
        assert_matches(big, ids)
        payload = big.to_bytes()
        assert_matches(IdSet.from_bytes(payload), ids)

    def test_canonical_form_is_input_order_independent(self):
        a = IdSet([3, 1, 2])
        b = IdSet([2, 3, 1, 1])
        assert a == b
        assert hash(a) == hash(b)

    def test_sparse_dense_threshold(self):
        from array import array

        sparse = IdSet(range(SPARSE_MAX))
        dense = IdSet(range(SPARSE_MAX + 1))
        assert all(isinstance(c, array) for c in sparse._chunks.values())
        assert all(isinstance(c, int) for c in dense._chunks.values())

    def test_coerce_returns_same_instance(self):
        original = IdSet([1, 2])
        assert IdSet.coerce(original) is original
        assert IdSet.coerce({1, 2}) == original


class TestSetAlgebra:
    UNIVERSES = (
        set(),
        {7},
        set(range(CHUNK_SPAN + 100)),            # dense, crosses a chunk
        {i * 1000 for i in range(300)},          # sparse, multi-chunk
        {(1 << 62) + i for i in range(20)},      # high 64-bit range
        set(range(0, 4096, 2)),                  # half-dense single chunk
    )

    def test_against_python_sets(self):
        rng = random.Random(1234)
        extra = {rng.randrange(1 << 40) for _ in range(2000)}
        universes = self.UNIVERSES + (extra,)
        for left in universes:
            for right in universes:
                a, b = IdSet(left), IdSet(right)
                assert_matches(a & b, left & right)
                assert_matches(a | b, left | right)
                assert_matches(a - b, left - right)

    def test_accepts_plain_sets_on_the_right(self):
        a = IdSet(range(100))
        assert_matches(a & {5, 50, 500}, {5, 50})
        assert_matches(a - set(range(50)), set(range(50, 100)))
        assert_matches(a | {1000}, set(range(100)) | {1000})

    def test_results_stay_canonical(self):
        # A bitmap result that shrinks below the threshold must demote
        # back to a run so equality-by-chunks keeps holding.
        dense = IdSet(range(CHUNK_SPAN))
        few = dense & IdSet({1, 2, 3})
        assert few == IdSet({1, 2, 3})
        assert few._chunks == IdSet({1, 2, 3})._chunks


class TestSerialization:
    @pytest.mark.parametrize(
        "ids",
        [
            set(),
            {0},
            {42},
            set(range(CHUNK_SPAN + 500)),
            {i * 3000 for i in range(1000)},
            {(1 << 62) + i * 7 for i in range(100)},
        ],
        ids=["empty", "zero", "single", "dense", "sparse", "high64"],
    )
    def test_round_trip(self, ids):
        payload = IdSet(ids).to_bytes()
        assert_matches(IdSet.from_bytes(payload), ids)

    def test_dense_payload_is_compact(self):
        # A full chunk serializes as ~one bitmap block, not 8 B/id.
        dense = IdSet(range(CHUNK_SPAN))
        assert len(dense.to_bytes()) <= BITMAP_BYTES + 16

    def test_truncated_payload_raises(self):
        payload = IdSet(range(5000)).to_bytes()
        with pytest.raises(ValueError):
            IdSet.from_bytes(payload[: len(payload) // 2])

    def test_trailing_garbage_raises(self):
        payload = IdSet({1, 2, 3}).to_bytes()
        with pytest.raises(ValueError, match="trailing"):
            IdSet.from_bytes(payload + b"\x00")

    def test_unknown_chunk_kind_raises(self):
        with pytest.raises(ValueError, match="unknown chunk kind"):
            IdSet.from_bytes(bytes([1, 0, 7]))


class TestValueSemantics:
    def test_equals_frozenset_and_hash_law(self):
        ids = frozenset({3, 1 << 30, 1 << 50})
        kernel = IdSet(ids)
        assert kernel == ids
        assert hash(kernel) == hash(ids)

    def test_empty_singleton_is_falsy(self):
        assert not EMPTY_IDSET
        assert EMPTY_IDSET == frozenset()

    def test_nbytes_dense_beats_frozenset(self):
        import sys

        ids = range(100_000)
        kernel = IdSet(ids)
        boxed = sys.getsizeof(frozenset(ids)) + 28 * 100_000
        assert kernel.nbytes < boxed / 10
