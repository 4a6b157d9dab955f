import dataclasses
import math

import numpy as np
import pytest

from chaossde.errors import IndexSetTooLarge, InvalidSparseIndex
from chaossde.multiindex import (FullTruncation, IndexSet, SparseFirstOrder,
                                 SparseSecondOrder, count_indices,
                                 enumerate_indices, parse_sparse_text)
from chaossde.presets import SPARSE_PRESETS


def rows(index_set):
    """The rows of an index set as tuples."""
    return [tuple(row) for row in index_set.dense.tolist()]


class TestMultiIndex:
    def test_label(self):
        index_set = IndexSet(np.array([[0, 0, 0], [2, 0, 1]]))
        assert index_set.labels() == ["0", "a1:2|a3:1"]


class TestEnumerate:
    def test_full_3_5(self):
        assert len(enumerate_indices(FullTruncation(p=3, k=5))) == 56

    def test_sparse_first_example(self):
        assert len(enumerate_indices(SparseFirstOrder((3, 2, 2, 1, 1)))) == 42

    def test_sparse_second_example(self):
        spec = SparseSecondOrder(((1,) * 8, (2, 2, 2, 2, 0, 0, 0, 0)))
        assert len(enumerate_indices(spec)) == 19

    def test_zero_order(self):
        s = enumerate_indices(FullTruncation(p=0, k=4))
        assert rows(s) == [(0, 0, 0, 0)]

    def test_canonical_ordering(self):
        s = enumerate_indices(FullTruncation(p=2, k=2))
        got = rows(s)
        assert got == sorted(got, key=lambda d: (sum(d), d))
        assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_deterministic(self):
        # two equal specs each enumerate their own set
        first, second = (enumerate_indices(SparseFirstOrder((3, 2, 2, 1, 1))) for _ in range(2))
        assert first is not second
        assert first.dense.tobytes() == second.dense.tobytes()

    def test_no_duplicates_and_position_map(self):
        s = enumerate_indices(FullTruncation(p=4, k=4))
        assert len(set(rows(s))) == len(s)
        for n, row in enumerate(rows(s)):
            assert s.positions(np.array([row])) == n


class TestKeptWithTheSpec:
    @pytest.mark.parametrize("spec", [FullTruncation(p=2, k=3), SparseFirstOrder((2, 1, 1)),
                                      SparseSecondOrder(((1, 1, 1), (2, 2, 0)))], ids=str)
    def test_same_spec_object_same_set(self, spec):
        index_set = enumerate_indices(spec)
        assert enumerate_indices(spec) is index_set
        # an equal spec is its own object and enumerates its own set
        twin = dataclasses.replace(spec)
        assert twin == spec and hash(twin) == hash(spec)
        assert enumerate_indices(twin) is not index_set
        assert enumerate_indices(twin).dense.tobytes() == index_set.dense.tobytes()

    def test_refusal_is_raised_every_time_and_not_kept(self):
        spec = FullTruncation(p=10, k=64)
        for _ in range(2):
            with pytest.raises(IndexSetTooLarge):
                enumerate_indices(spec)
        assert "_index_set" not in vars(spec)

    def test_kept_arrays_are_read_only(self):
        index_set = enumerate_indices(FullTruncation(p=2, k=3))
        held = [index_set.dense, index_set.keys, *index_set.support]
        held += index_set.cached("twice", lambda s: (2 * s.dense, s.dense + 1))
        for array in held:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert enumerate_indices(FullTruncation(p=2, k=3)).labels() == index_set.labels()

    @pytest.mark.parametrize("build", [lambda s: 2 * s.dense, lambda s: [s.dense + 1],
                                       lambda s: (s.dense + 1, None)], ids=["array", "list", "None"])
    def test_cached_refuses_anything_but_a_tuple_of_arrays(self, build):
        # a bare array or a list would keep arrays that are not all frozen
        index_set = enumerate_indices(FullTruncation(p=2, k=3))
        for _ in range(2):  # a refused result is not kept
            with pytest.raises(TypeError, match="tuple of arrays"):
                index_set.cached("bad", build)


class TestCount:
    @pytest.mark.parametrize("p,k,expected", [(2, 8, 45), (5, 16, 20349),
                                              (1, 2, 3), (5, 8, 1287)])
    def test_full_counts(self, p, k, expected):
        assert count_indices(FullTruncation(p=p, k=k)) == expected

    def test_sparse_first_count(self):
        assert count_indices(SparseFirstOrder((2, 2, 2, 2, 1, 1, 1, 1))) == 41

    @pytest.mark.parametrize("p,k", [(0, 1), (1, 5), (2, 6), (3, 4), (4, 4),
                                     (5, 3), (6, 2), (8, 8), (20, 4), (2, 22)])
    def test_full_count_matches_enumeration(self, p, k):
        assert count_indices(FullTruncation(p=p, k=k)) == math.comb(k + p, p)
        assert len(enumerate_indices(FullTruncation(p=p, k=k))) == math.comb(k + p, p)


PRESET_COUNTS = {
    "sp1": 41, "sp2": 19, "sp3": 141, "sp4": 27, "sp5": 537, "sp6": 69,
    "sp7": 127, "sp8": 37, "sp9": 763, "sp10": 45, "sp11": 303, "sp12": 32,
    "sp13": 40, "sp14": 92, "sp15": 599, "sp16": 36, "sp17": 44, "sp18": 98,
}


@pytest.mark.parametrize("name,expected", sorted(PRESET_COUNTS.items()))
def test_preset_counts(name, expected):
    assert count_indices(SPARSE_PRESETS[name]) == expected


class TestSparseSubsetProperties:
    def test_sparse_first_subset_of_full(self):
        r = (3, 2, 2, 1, 1)
        sparse = set(rows(enumerate_indices(SparseFirstOrder(r))))
        full = set(rows(enumerate_indices(FullTruncation(p=r[0], k=len(r)))))
        assert sparse <= full

    def test_derived_second_order_subset_of_first(self):
        r = (3, 2, 2, 1, 1)
        caps = tuple(tuple(min(j, ri) for ri in r) for j in range(1, r[0] + 1))
        second = set(rows(enumerate_indices(SparseSecondOrder(caps))))
        first = set(rows(enumerate_indices(SparseFirstOrder(r))))
        assert second <= first


class TestValidation:
    def test_non_monotone_first_order_rejected(self):
        with pytest.raises(InvalidSparseIndex):
            SparseFirstOrder((2, 3, 1))

    def test_second_order_row_head_must_equal_order(self):
        with pytest.raises(InvalidSparseIndex):
            SparseSecondOrder(((1, 1), (3, 0)))

    def test_second_order_ragged_rows_rejected(self):
        with pytest.raises(InvalidSparseIndex):
            SparseSecondOrder(((1, 1), (2, 2, 0)))

    def test_caps_convert_like_int(self):
        spec = SparseFirstOrder((np.int64(3), True, 1.9, "1"))
        assert spec.r == (3, 1, 1, 1) and all(type(v) is int for v in spec.r)
        assert SparseFirstOrder((2 ** 70, 5)).r == (2 ** 70, 5)
        with pytest.raises(InvalidSparseIndex, match="non-increasing"):
            SparseFirstOrder((2 ** 70, 2 ** 71))
        with pytest.raises(InvalidSparseIndex, match="negative cap in row 1"):
            SparseSecondOrder(((1, -1), (2, 0)))

    @pytest.mark.parametrize("make", [lambda: SparseFirstOrder(()),
                                      lambda: SparseSecondOrder(()),
                                      lambda: parse_sparse_text("  ")],
                             ids=["first-order", "second-order", "text"])
    def test_empty_sparse_index_rejected(self, make):
        with pytest.raises(InvalidSparseIndex):
            make()

    def test_full_validation(self):
        with pytest.raises(InvalidSparseIndex):
            FullTruncation(p=-1, k=2)
        with pytest.raises(InvalidSparseIndex):
            FullTruncation(p=2, k=0)


class TestTextForm:
    def test_first_order_round_trip(self):
        spec = parse_sparse_text("3,2,2,1,1")
        assert spec == SparseFirstOrder((3, 2, 2, 1, 1))
        assert spec.text == "3,2,2,1,1"

    def test_second_order_round_trip(self):
        text = "1,1,1,1,1;2,2,2,1,0;3,2,0,0,0"
        spec = parse_sparse_text(text)
        assert isinstance(spec, SparseSecondOrder)
        assert spec.text == text

    def test_garbage_rejected(self):
        with pytest.raises(InvalidSparseIndex):
            parse_sparse_text("3,two,1")
