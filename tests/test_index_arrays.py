"""Array-native index sets, ladder and Galerkin tensor against loop oracles.

The oracles are the loops the array code replaced: a recursive
composition enumerator, the per-row lowering ladder (compared in the
ladder's order, by coordinate then row), the ``product_expansion`` pair
loop and the per-index lowered-box builder for the Galerkin tensor, and
the triple loop for the third moment.  Arithmetic order is unchanged
for the first four, so they must agree bit for bit; the third moment
sums in another order and is held to a relative 1e-12.
"""
import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaossde import hermite, multiindex
from chaossde.analysis import third_moment
from chaossde.basis import make_basis
from chaossde.errors import IndexSetTooLarge, InvalidSparseIndex
from chaossde.hermite import galerkin_tensor, product_expansion, triple_scalar
from chaossde.multiindex import (INDEX_DTYPE, MAX_DENSE_CELLS, MAX_INDICES, MAX_STORED_ORDER,
                                 FullTruncation, IndexSet, SparseFirstOrder, SparseSecondOrder,
                                 checked_count, count_indices, enumerate_indices, row_keys)
from chaossde.presets import BENCHMARK_ROWS, SPARSE_PRESETS
from chaossde.propagator import ChaosSolution, SdeModel, build_rhs
from reference import specs

LOGISTIC = SdeModel((0.0, 1.0, -1.0), (0.0, 0.5, 0.0), 0.5)


def old_enumerate(spec):
    """Dense tuples of ``spec`` from the recursive capped-composition loop."""
    def compositions(total, caps):
        def rec(pos, remaining, head):
            if pos == len(caps):
                if remaining == 0:
                    yield head
                return
            if remaining > sum(caps[pos:]):
                return
            for v in range(min(caps[pos], remaining) + 1):
                yield from rec(pos + 1, remaining - v, head + (v,))
        yield from rec(0, total, ())

    dense = []
    if isinstance(spec, FullTruncation):
        for total in range(spec.p + 1):
            dense.extend(compositions(total, [spec.p] * spec.k))
    elif isinstance(spec, SparseFirstOrder):
        for total in range(spec.p + 1):
            dense.extend(compositions(total, spec.r))
    else:
        dense.append((0,) * spec.k)
        for j, row in enumerate(spec.rows, start=1):
            dense.extend(compositions(j, row))
    dense.sort(key=lambda a: (sum(a), a))
    return dense


def row_tuples(index_set):
    """The rows of an index set as tuples of ints."""
    return [tuple(row) for row in index_set.dense.tolist()]


def lowered(alpha, j):
    """``alpha`` with coordinate j lowered by one."""
    return alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]


def old_ladder(index_set):
    alphas = row_tuples(index_set)
    where = {a: n for n, a in enumerate(alphas)}
    rows, js, srcs, ws = [], [], [], []
    for a_ord, alpha in enumerate(alphas):
        for j, value in enumerate(alpha):
            if value:
                rows.append(a_ord)
                js.append(j)
                srcs.append(where[lowered(alpha, j)])
                ws.append(np.sqrt(float(value)))
    return (np.asarray(rows, dtype=np.intp), np.asarray(js, dtype=np.intp),
            np.asarray(srcs, dtype=np.intp), np.asarray(ws, dtype=float))


def by_coordinate(ladder):
    """``(rows, js, srcs, weights)`` in the order of ``propagator.ladder``:
    a stable sort on js keeps the rows ascending within each coordinate."""
    order = np.argsort(ladder[1], kind="stable")
    return tuple(column[order] for column in ladder)


def ladder_js(system):
    """The coordinate of each of ``system``'s ladder entries."""
    return np.repeat(np.arange(system.k), system.ladder_counts)


def old_tensor(index_set):
    alphas = row_tuples(index_set)
    where = {a: n for n, a in enumerate(alphas)}
    qa, qb, qc, qw = [], [], [], []
    n = len(index_set)
    for b_ord, beta in enumerate(alphas):
        for c_ord in range(b_ord, n):
            mult = 1.0 if b_ord == c_ord else 2.0
            for alpha, weight in product_expansion(beta, alphas[c_ord]):
                if weight and alpha in where:
                    qa.append(where[alpha])
                    qb.append(b_ord)
                    qc.append(c_ord)
                    qw.append(mult * weight)
    return (np.asarray(qa, dtype=np.intp), np.asarray(qb, dtype=np.intp),
            np.asarray(qc, dtype=np.intp), np.asarray(qw, dtype=float))


def loop_tensor(index_set):
    """The per-index builder: each b's lowered boxes against every later row.

    Fast enough for sets of a few thousand indices, where ``old_tensor``
    (one ``product_expansion`` per pair) is not.
    """
    dense = index_set.dense
    n, p = len(index_set), index_set.max_order
    table = np.array([[[triple_scalar(a, b, c) for c in range(p + 1)]
                       for b in range(p + 1)] for a in range(p + 1)])
    orders = dense.sum(axis=1)
    parts = []
    for b_ord in range(n):
        beta = dense[b_ord]
        support = np.flatnonzero(beta)
        lowered = list(itertools.product(*(range(v, -1, -1) for v in beta[support])))
        lowered = np.array(lowered, dtype=INDEX_DTYPE).reshape(len(lowered), len(support))
        gammas = dense[b_ord:, support]
        fits = (lowered[None, :, :] <= gammas[:, None, :]).all(axis=2)
        fits &= (orders[b_ord] + orders[b_ord:, None]
                 - 2 * lowered.sum(axis=1)[None, :]) <= p
        c_off, m_ord = np.nonzero(fits)
        alpha = dense[b_ord + c_off]
        alpha[:, support] += beta[support] - 2 * lowered[m_ord]
        targets = index_set.positions(alpha)
        found = targets >= 0
        c_off, alpha, targets = c_off[found], alpha[found], targets[found]
        weights = np.ones(len(targets))
        for i in support:
            weights = weights * table[beta[i], dense[b_ord + c_off, i], alpha[:, i]]
        keep = weights != 0.0
        c_off, targets, weights = c_off[keep], targets[keep], weights[keep]
        parts.append((targets, np.full(len(targets), b_ord, dtype=np.intp),
                      b_ord + c_off, np.where(c_off == 0, weights, 2.0 * weights)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def assert_same_bytes(got, want):
    for have, expected in zip(got, want, strict=True):
        assert have.dtype == expected.dtype
        assert have.tobytes() == expected.tobytes()


def assert_same_tensor(got, want, n):
    """A tensor against a reference ``(targets, left, right, weights)`` of a
    set of ``n`` indices: its entries come by left, counted in ``runs``."""
    targets, left, right, weights = want
    assert np.all(left[1:] >= left[:-1])
    assert_same_bytes(got, (targets, np.bincount(left, minlength=n), right, weights))


def old_third_moment(index_set, x):
    """The triple loop; also returns the sum of the terms' magnitudes."""
    alphas = row_tuples(index_set)
    where = {a: n for n, a in enumerate(alphas)}
    total = scale = 0.0
    for b_ord, beta in enumerate(alphas):
        for c_ord in range(b_ord, len(alphas)):
            mult = 1.0 if b_ord == c_ord else 2.0
            pair = mult * x[b_ord] * x[c_ord]
            for alpha, weight in product_expansion(beta, alphas[c_ord]):
                if weight and alpha in where:
                    term = pair * weight * x[where[alpha]]
                    total += term
                    scale += abs(term)
    return total, scale


class TestEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(specs())
    def test_matches_recursive_enumerator(self, spec):
        index_set = enumerate_indices(spec)
        got = [tuple(row) for row in index_set.dense.tolist()]
        assert got == old_enumerate(spec)
        assert len(index_set) == count_indices(spec)
        assert got == sorted(got, key=lambda a: (sum(a), a))
        assert index_set.dense.dtype == np.int16 and index_set.k == spec.k

    @settings(max_examples=100, deadline=None)
    @given(specs(closed=True))
    def test_downward_closed(self, spec):
        alphas = row_tuples(enumerate_indices(spec))
        assert not any(alphas[0])
        for alpha in alphas:
            for j, value in enumerate(alpha):
                if value:
                    assert lowered(alpha, j) in alphas

    @settings(max_examples=100, deadline=None)
    @given(specs())
    def test_positions_round_trip(self, spec):
        index_set = enumerate_indices(spec)
        n = len(index_set)
        assert np.array_equal(index_set.positions(index_set.dense), np.arange(n))
        # one unit above the largest entry of a column is never in the set
        raised = index_set.dense.copy()
        raised[:, 0] = index_set.dense[:, 0].max() + 1
        assert np.all(index_set.positions(raised) == -1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.lists(
        st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 32767 // k))] * k),
        min_size=1, max_size=40, unique=True)))
    def test_row_keys_sort_like_lexsort(self, rows):
        # canonical order: total order first, then the entries left to right
        dense = np.array(rows, dtype=np.int16)
        want = np.lexsort(np.vstack([dense[:, ::-1].T, dense.sum(axis=1)]))
        assert np.array_equal(np.argsort(row_keys(dense)), want)

    @settings(max_examples=100, deadline=None)
    @given(specs())
    def test_levels_descend(self, spec):
        # every level of every order's caps, nested or not, is strictly
        # descending, so enumeration only reverses them
        for m in range(spec.p + 1):
            for level in multiindex._capped_levels(spec.caps(m), m):
                keys = row_keys(level)
                assert np.all(keys[1:] < keys[:-1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.lists(
        st.tuples(*[st.sampled_from((0, 0, 1, 2, 256))] * k), min_size=2, max_size=12,
        unique=True)), st.data())
    def test_refuses_duplicate_and_unordered_rows(self, rows, data):
        # zeros are drawn often, so many keys end in NUL bytes, which numpy
        # ignores when it compares byte strings; 256 has a NUL low byte
        rows = sorted(rows, key=lambda a: (sum(a), a))
        dense = np.array(rows, dtype=INDEX_DTYPE)
        assert np.array_equal(IndexSet(dense).dense, dense)
        i = data.draw(st.integers(0, len(rows) - 2))
        swapped = dense.copy()
        swapped[[i, i + 1]] = dense[[i + 1, i]]
        with pytest.raises(ValueError, match="distinct and in canonical order"):
            IndexSet(swapped)
        with pytest.raises(ValueError, match="distinct and in canonical order"):
            IndexSet(np.insert(dense, i, dense[i], axis=0))

    @settings(max_examples=100, deadline=None)
    @given(specs(), st.data())
    def test_positions_of_rows_sharing_a_prefix(self, spec, data):
        # each present row with its coordinates from j on raised or cleared:
        # the key shares the row's prefix before j, and -1 marks an absent one
        index_set = enumerate_indices(spec)
        where = {row: n for n, row in enumerate(row_tuples(index_set))}
        row = data.draw(st.sampled_from(sorted(where)))
        wanted = []
        for j in range(index_set.k):
            wanted.append(row[:j] + (row[j] + 1,) + row[j + 1:])
            wanted.append(row[:j] + (0,) * (index_set.k - j))
            wanted.append(row[:j] + (row[j] + 1,) + (0,) * (index_set.k - j - 1))
        # above the largest entry of the last column: absent whatever the caps
        wanted.append(row[:-1] + (int(index_set.dense[:, -1].max()) + 1,))
        got = index_set.positions(np.array(wanted, dtype=INDEX_DTYPE))
        assert got.tolist() == [where.get(a, -1) for a in wanted]

    def test_multiindex_constructor_keeps_given_order(self):
        dense = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int16)
        index_set = IndexSet(dense)
        assert np.array_equal(index_set.dense, dense) and index_set.k == 2
        assert np.array_equal(index_set.positions(np.array([[1, 0], [1, 1]])), [2, -1])
        # the zero row's key is all NUL bytes, and the others' keys end in them
        for rows in (dense[::-1], dense[[0, 1, 1]], dense[[0, 0]], [[1, 0, 0], [0, 0, 1]],
                     [[0, 0, 1], [0, 0, 0]], [[0, 1, 0], [0, 0, 2], [1, 0, 0]]):
            with pytest.raises(ValueError, match="distinct and in canonical order"):
                IndexSet(np.array(rows))

    def test_constructor_leaves_a_callers_array_writeable(self):
        dense = np.array([[0, 0], [0, 1], [1, 0]], dtype=INDEX_DTYPE)
        index_set = IndexSet(dense)
        assert dense.flags.writeable and not index_set.dense.flags.writeable
        dense[1, 1] = 5
        assert index_set.dense.tolist() == [[0, 0], [0, 1], [1, 0]]
        # a frozen array, as enumeration hands over, is kept uncopied
        assert IndexSet(index_set.dense).dense is index_set.dense

    def test_high_order_on_many_coordinates(self):
        # 91 indices; the full set of order 12 on 300 coordinates has
        # binomial(312, 12) > 2^63 members, and lookups must not depend on it
        index_set = enumerate_indices(SparseFirstOrder((12, 12) + (0,) * 298))
        assert len(index_set) == 91
        system = build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), index_set, make_basis("trig"))
        assert np.array_equal(system.ladder_srcs, by_coordinate(old_ladder(index_set))[2])

    def test_oversized_sets_fail_before_enumerating(self):
        with pytest.raises(IndexSetTooLarge):
            enumerate_indices(FullTruncation(p=10, k=64))
        with pytest.raises(IndexSetTooLarge):
            enumerate_indices(FullTruncation(p=20_000, k=1))
        assert count_indices(FullTruncation(p=6, k=16)) == 74_613 <= MAX_INDICES

    def test_full_p6_k16_within_dense_cap(self):
        assert count_indices(FullTruncation(p=6, k=16)) * 16 <= MAX_DENSE_CELLS

    def test_zero_caps_grow_no_children(self):
        # two indices on 3,000 coordinates: no k-by-k intermediate array
        spec = SparseFirstOrder((1,) + (0,) * 2999)
        tracemalloc.start()
        try:
            index_set = enumerate_indices(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(index_set) == 2
        assert peak < 2_000_000

    def test_million_zero_caps_enumerate_quickly(self):
        # counting and enumerating skip the zero caps
        started = time.perf_counter()
        index_set = enumerate_indices(SparseFirstOrder((1,) + (0,) * 999_999))
        assert time.perf_counter() - started < 2.0
        assert len(index_set) == 2

    def test_million_caps_validate_quickly(self):
        # one numpy pass per check, not a Python loop over the coordinates
        caps = (1,) + (0,) * 999_999

        def best_of_three(build):
            times = []
            for _ in range(3):
                started = time.perf_counter()
                build()
                times.append(time.perf_counter() - started)
            return min(times)

        assert best_of_three(lambda: SparseFirstOrder(caps)) < 0.1
        assert best_of_three(lambda: SparseSecondOrder((caps, (2,) + caps[1:]))) < 0.2


def assert_spelled_by_order_alike(spec):
    """The second order sparse set of ``spec``'s caps at orders 1..p is the
    same dense array and count as ``spec``."""
    spelled = SparseSecondOrder(tuple(spec.caps(m) for m in range(1, spec.p + 1)))
    assert_same_bytes((enumerate_indices(spelled).dense,), (enumerate_indices(spec).dense,))
    assert count_indices(spelled) == count_indices(spec)


def refuse_count(spec):
    with pytest.raises(IndexSetTooLarge):
        checked_count(spec)


class TestPerOrderCaps:
    """Every truncation is its caps at each order: spelled row by row as a
    second order sparse set it is the same set, counted the same."""

    @settings(max_examples=150, deadline=None)
    @given(specs().filter(lambda spec: spec.p >= 1))
    def test_second_order_spelling(self, spec):
        assert_spelled_by_order_alike(spec)

    @pytest.mark.parametrize("spec", sorted(
        {spec for spec in [row.spec for row in BENCHMARK_ROWS] + list(SPARSE_PRESETS.values())
         if spec.p >= 1}, key=count_indices), ids=str)
    def test_second_order_spelling_of_presets_and_benchmark_rows(self, spec):
        assert_spelled_by_order_alike(spec)

    @pytest.mark.parametrize("spec,count,want", [
        (FullTruncation(p=1, k=1_000_000), refuse_count, None),
        (FullTruncation(p=MAX_STORED_ORDER, k=2), count_indices,
         math.comb(MAX_STORED_ORDER + 2, 2)),
        (SparseFirstOrder((MAX_STORED_ORDER, 5, 3)), count_indices, 393_120)],
        ids=["full_p1_k1e6_refused", "full_pmax_k2", "first_order_pmax_5_3"])
    def test_counts_quickly(self, spec, count, want):
        # a run of equal caps is one factor, and caps that never bind are
        # one stars-and-bars binomial, whatever the order or the run length
        times = []
        for _ in range(3):
            started = time.perf_counter()
            got = count(spec)
            times.append(time.perf_counter() - started)
        assert got == want
        assert min(times) < 0.1


class TestLabels:
    @settings(max_examples=150, deadline=None)
    @given(specs())
    def test_matches_per_cell_formatting(self, spec):
        index_set = enumerate_indices(spec)
        want = ["|".join(f"a{i}:{v}" for i, v in enumerate(row, start=1) if v) or "0"
                for row in index_set.dense.tolist()]
        assert index_set.labels() == want

    def test_many_coordinates_format_quickly(self):
        # 4,097 labels over 16.8M dense cells, 8,192 of them non-zero
        index_set = enumerate_indices(FullTruncation(p=1, k=4096))
        started = time.perf_counter()
        labels = index_set.labels()
        assert time.perf_counter() - started < 0.3
        assert labels[:3] == ["0", "a4096:1", "a4095:1"] and len(labels) == 4097


class TestLadder:
    @settings(max_examples=100, deadline=None)
    @given(specs(closed=True))
    def test_matches_decremented_lookup(self, spec):
        index_set = enumerate_indices(spec)
        system = build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), index_set, make_basis("trig"))
        got = (system.ladder_rows, ladder_js(system), system.ladder_srcs,
               system.ladder_weights)
        for have, want in zip(got, by_coordinate(old_ladder(index_set))):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want)

    @settings(max_examples=100, deadline=None)
    @given(specs(closed=True))
    def test_entries_come_by_coordinate_then_row(self, spec):
        index_set = enumerate_indices(spec)
        system = build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), index_set, make_basis("trig"))
        rows, counts, srcs = system.ladder_rows, system.ladder_counts, system.ladder_srcs
        assert counts.sum() == len(rows) == len(srcs) == len(system.ladder_weights)
        assert np.array_equal(counts, np.count_nonzero(index_set.dense, axis=0))
        js = ladder_js(system)
        same_j = js[1:] == js[:-1]
        assert np.all(js[1:] >= js[:-1])
        # within a coordinate the rows ascend, and so do their lowered sources
        assert np.all(rows[1:][same_j] > rows[:-1][same_j])
        assert np.all(srcs[1:][same_j] > srcs[:-1][same_j])
        for array in (rows, counts, srcs, system.ladder_weights):
            assert not array.flags.writeable
        # np.bincount copies a strided index array on every call
        assert rows.flags.c_contiguous and srcs.flags.c_contiguous
        assert "support" not in vars(index_set)  # a GBM system never builds it

    @pytest.mark.parametrize("name", sorted(SPARSE_PRESETS))
    def test_presets(self, name):
        index_set = enumerate_indices(SPARSE_PRESETS[name])
        system = build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), index_set, make_basis("haar"))
        assert np.array_equal(system.ladder_srcs, by_coordinate(old_ladder(index_set))[2])

    def test_set_not_closed_under_lowering_is_rejected(self):
        # (0, 2) has order 2 and fits row 2, but (0, 1) breaks row 1
        spec = SparseSecondOrder(((1, 0), (2, 2)))
        for _ in range(2):  # a refused ladder is not kept
            with pytest.raises(InvalidSparseIndex):
                build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), enumerate_indices(spec),
                          make_basis("trig"))

    def test_shared_by_the_systems_of_one_spec(self):
        spec = FullTruncation(p=3, k=4)
        klcos, haar = (build_rhs(model, enumerate_indices(spec), make_basis(token))
                       for model, token in ((SdeModel.gbm(1.0, 1.0, 1.0), "klcos"),
                                            (LOGISTIC, "haar")))
        for name in ("ladder_rows", "ladder_counts", "ladder_srcs", "ladder_weights"):
            assert getattr(klcos, name) is getattr(haar, name)
            with pytest.raises(ValueError, match="read-only"):
                getattr(klcos, name)[0] = 0


class TestGalerkinTensor:
    @settings(max_examples=60, deadline=None)
    @given(specs(max_p=3, max_k=5, closed=True))
    def test_matches_pair_loop_bit_for_bit(self, spec):
        index_set = enumerate_indices(spec)
        assert_same_tensor(galerkin_tensor(index_set), old_tensor(index_set), len(index_set))

    @settings(max_examples=60, deadline=None)
    @given(specs(max_p=3, max_k=5, closed=True))
    def test_symmetric(self, spec):
        # undo the pair doubling and mirror (b, c): the result must be the
        # fully symmetric E[Psi^a Psi^b Psi^c] restricted to the set
        index_set = enumerate_indices(spec)
        q = galerkin_tensor(index_set)
        n = len(index_set)
        full = np.zeros((n, n, n))
        left = np.repeat(np.arange(n), q.runs)
        weights = np.where(left == q.right, q.weights, q.weights / 2.0)
        full[q.targets, left, q.right] = weights
        full[q.targets, q.right, left] = weights
        for axes in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
            assert np.array_equal(full, full.transpose(axes))

    @settings(max_examples=200, deadline=None)
    @given(specs(max_p=4, max_k=6, closed=False))
    def test_matches_per_index_builder_bytes(self, spec):
        # includes second-order sets that are not closed under lowering
        index_set = enumerate_indices(spec)
        assert_same_tensor(galerkin_tensor(index_set), loop_tensor(index_set), len(index_set))

    @pytest.mark.parametrize("spec", sorted(
        {spec for spec in [row.spec for row in BENCHMARK_ROWS] + list(SPARSE_PRESETS.values())
         if count_indices(spec) <= 1287}, key=count_indices), ids=str)
    def test_benchmark_rows_and_presets_match_per_index_builder(self, spec):
        index_set = enumerate_indices(spec)
        assert_same_tensor(galerkin_tensor(index_set), loop_tensor(index_set), len(index_set))

    @pytest.mark.parametrize("spec", [FullTruncation(p=3, k=4), SPARSE_PRESETS["sp8"],
                                      SparseSecondOrder(((1, 1, 0), (2, 2, 2), (3, 1, 1)))],
                             ids=str)
    def test_blocks_do_not_change_the_bytes(self, spec, monkeypatch):
        # one candidate per block: every b with candidates is its own block;
        # a set of its own, since the spec's may hold its tensor already
        index_set = IndexSet(enumerate_indices(spec).dense)
        want = loop_tensor(index_set)
        monkeypatch.setattr(hermite, "BLOCK_CELLS", 1)
        assert_same_tensor(galerkin_tensor(index_set), want, len(index_set))

    def test_peak_memory_at_p4_k16(self):
        # 2,170,917 entries, 52.1 MB of output; the per-index builder peaked
        # at 142 MB here, the join at 88 MB with a stored left column (69.5
        # MB of output) and at 70.7 MB with the runs
        index_set = enumerate_indices(FullTruncation(p=4, k=16))
        tracemalloc.start()
        try:
            q = galerkin_tensor(index_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(q.targets) == 2_170_917
        assert peak < 80_000_000

    def test_quadratic_model_on_p6_k16_is_refused_quickly(self):
        # 598,753,821 entries (about 14 GB); p=5, k=16 has 32,261,733 (0.77 GB)
        started = time.perf_counter()
        index_set = enumerate_indices(FullTruncation(p=6, k=16))
        with pytest.raises(IndexSetTooLarge, match="598753821 .* cap of 33554432"):
            build_rhs(LOGISTIC, index_set, make_basis("klcos"))
        assert time.perf_counter() - started < 10.0

    @pytest.mark.parametrize("p,k", [*itertools.product(range(5), range(1, 7)), (6, 3)])
    def test_full_set_count_in_closed_form(self, p, k):
        index_set = enumerate_indices(FullTruncation(p=p, k=k))
        assert hermite.full_candidates(p, k) == len(galerkin_tensor(index_set).targets)

    def test_oversized_full_set_is_refused_before_the_relation(self):
        index_set = enumerate_indices(FullTruncation(p=6, k=16))  # outside the measure
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(IndexSetTooLarge) as exc:
                galerkin_tensor(index_set)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == ("the Galerkin tensor of 74613 indices needs 598753821 "
                                  "candidate entries, above the cap of 33554432")
        assert elapsed <= 0.05
        assert peak <= 20_000_000

    def test_small_cap_refuses_a_small_set(self, monkeypatch):
        index_set = enumerate_indices(FullTruncation(p=2, k=3))
        monkeypatch.setattr(hermite, "MAX_TENSOR_ENTRIES", 20)
        with pytest.raises(IndexSetTooLarge, match="cap of 20"):
            galerkin_tensor(index_set)
        monkeypatch.setattr(hermite, "MAX_TENSOR_ENTRIES", len(old_tensor(index_set)[0]))
        assert_same_tensor(galerkin_tensor(index_set), old_tensor(index_set), len(index_set))

    def test_cached_per_set_and_shared_with_the_system(self):
        index_set = enumerate_indices(FullTruncation(p=2, k=3))
        system = build_rhs(LOGISTIC, index_set, make_basis("klcos"))
        q = galerkin_tensor(index_set)
        assert system.quad_targets is q.targets and system.quad_weights is q.weights
        assert galerkin_tensor(index_set) is q
        for array in q:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("spec", sorted(
        {*(FullTruncation(p, k) for p in range(5) for k in range(1, 7)), *SPARSE_PRESETS.values(),
         *(row.spec for row in BENCHMARK_ROWS
           if count_indices(row.spec) <= count_indices(FullTruncation(4, 16)))},
        key=lambda spec: (count_indices(spec), str(spec))), ids=str)
    def test_entries_come_by_left(self, spec):
        # the entries of row b are runs[b] in a row; a spec of its own, so
        # the largest tensor (p=4, k=16) is freed after the test
        index_set = enumerate_indices(dataclasses.replace(spec))
        system = build_rhs(LOGISTIC, index_set, make_basis("klcos"))
        q = galerkin_tensor(index_set)
        assert q.runs.sum() == len(q.targets)
        assert system.quad_runs is q.runs
        assert build_rhs(LOGISTIC, index_set, make_basis("haar")).quad_runs is q.runs
        with pytest.raises(ValueError, match="read-only"):
            q.runs[0] = 0
        # 24 bytes per entry and 8 per index: no left column is kept
        assert sum(a.nbytes for a in q) == 24 * len(q.targets) + 8 * len(index_set)


class TestThirdMoment:
    @settings(max_examples=60, deadline=None)
    @given(specs(max_p=3, max_k=5, closed=True), st.integers(0, 2 ** 32 - 1))
    def test_matches_triple_loop(self, spec, seed):
        index_set = enumerate_indices(spec)
        x = np.random.default_rng(seed).standard_normal(len(index_set))
        sol = ChaosSolution(index_set=index_set, grid=np.array([0.0]), rows=x[None, :])
        want, scale = old_third_moment(index_set, x)
        assert math.isclose(third_moment(sol, 0.0), want, rel_tol=0.0,
                            abs_tol=1e-12 * scale)
