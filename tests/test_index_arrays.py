"""Array-native index sets, ladder and Galerkin tensor against loop oracles.

The oracles are the tuple-of-pairs loops the array code replaced: a
recursive composition enumerator, the ``MultiIndex.decremented`` ladder,
the ``product_expansion`` pair loop for the Galerkin tensor and the triple
loop for the third moment.  Arithmetic order is unchanged for the first
three, so they must agree bit for bit; the third moment sums in another
order and is held to a relative 1e-12.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaossde.analysis import third_moment
from chaossde.basis import make_basis
from chaossde.errors import IndexSetTooLarge, InvalidSparseIndex
from chaossde.hermite import galerkin_tensor, product_expansion
from chaossde.multiindex import (MAX_INDICES, FullTruncation, IndexSet, MultiIndex,
                                 SparseFirstOrder, SparseSecondOrder,
                                 count_indices, enumerate_indices)
from chaossde.presets import SPARSE_PRESETS
from chaossde.propagator import ChaosSolution, SdeModel, build_rhs

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


def old_ladder(index_set):
    where = {a: n for n, a in enumerate(index_set)}
    rows, js, srcs, ws = [], [], [], []
    for a_ord, alpha in enumerate(index_set):
        for coord, value in alpha:
            rows.append(a_ord)
            js.append(coord - 1)
            srcs.append(where[alpha.decremented(coord)])
            ws.append(np.sqrt(float(value)))
    return (np.asarray(rows, dtype=np.intp), np.asarray(js, dtype=np.intp),
            np.asarray(srcs, dtype=np.intp), np.asarray(ws, dtype=float))


def old_tensor(index_set):
    where = {a: n for n, a in enumerate(index_set)}
    qa, qb, qc, qw = [], [], [], []
    n = len(index_set)
    for b_ord, beta in enumerate(index_set):
        for c_ord in range(b_ord, n):
            mult = 1.0 if b_ord == c_ord else 2.0
            for alpha, weight in product_expansion(beta, index_set[c_ord]):
                if weight and alpha in where:
                    qa.append(where[alpha])
                    qb.append(b_ord)
                    qc.append(c_ord)
                    qw.append(mult * weight)
    return (np.asarray(qa, dtype=np.intp), np.asarray(qb, dtype=np.intp),
            np.asarray(qc, dtype=np.intp), np.asarray(qw, dtype=float))


def old_third_moment(index_set, x):
    """The triple loop; also returns the sum of the terms' magnitudes."""
    where = {a: n for n, a in enumerate(index_set)}
    total = scale = 0.0
    for b_ord, beta in enumerate(index_set):
        for c_ord in range(b_ord, len(index_set)):
            mult = 1.0 if b_ord == c_ord else 2.0
            pair = mult * x[b_ord] * x[c_ord]
            for alpha, weight in product_expansion(beta, index_set[c_ord]):
                if weight and alpha in where:
                    term = pair * weight * x[where[alpha]]
                    total += term
                    scale += abs(term)
    return total, scale


@st.composite
def specs(draw, max_p=4, max_k=6, closed=False):
    """Random full, first-order and second-order sparse truncations.

    With ``closed``, second-order rows never raise a cap beyond the first
    coordinate from one order to the next, which keeps the set closed under
    lowering any coordinate by one (other second-order sets need not be).
    """
    kind = draw(st.sampled_from(("full", "sp1", "sp2")))
    k = draw(st.integers(1, max_k))
    p = draw(st.integers(0 if kind != "sp2" else 1, max_p))
    if kind == "full":
        return FullTruncation(p=p, k=k)
    if kind == "sp1":
        caps = [p]
        while len(caps) < k:
            caps.append(draw(st.integers(0, caps[-1])))
        return SparseFirstOrder(tuple(caps))
    rows = []
    for j in range(1, p + 1):
        row = [j]
        while len(row) < k:
            top = row[-1] if not (closed and rows) else min(row[-1], rows[-1][len(row)])
            row.append(draw(st.integers(0, top)))
        rows.append(tuple(row))
    return SparseSecondOrder(tuple(rows))


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
        index_set = enumerate_indices(spec)
        assert index_set[0].is_zero
        for alpha in index_set:
            for coord, _ in alpha:
                assert alpha.decremented(coord) in index_set

    @settings(max_examples=100, deadline=None)
    @given(specs())
    def test_positions_round_trip(self, spec):
        index_set = enumerate_indices(spec)
        n = len(index_set)
        assert np.array_equal(index_set.positions(index_set.dense), np.arange(n))
        for ordinal, alpha in enumerate(index_set):
            assert index_set.position_of(alpha) == ordinal
        # one unit above the largest entry of a column is never in the set
        raised = index_set.dense.copy()
        raised[:, 0] = index_set.dense[:, 0].max() + 1
        assert np.all(index_set.positions(raised) == -1)

    def test_full_set_ranks_are_ordinals(self):
        index_set = enumerate_indices(FullTruncation(p=5, k=16))
        assert np.array_equal(index_set.keys, np.arange(len(index_set)))

    def test_multiindex_constructor_keeps_given_order(self):
        alphas = (MultiIndex.zero(), MultiIndex.unit(2), MultiIndex.unit(1))
        index_set = IndexSet(alphas, k=2)
        assert index_set.indices == alphas
        assert index_set.position_of(MultiIndex.unit(1)) == 2
        assert MultiIndex.from_dense((1, 1)) not in index_set
        with pytest.raises(ValueError):
            IndexSet(alphas[::-1], k=2)

    def test_oversized_sets_fail_before_enumerating(self):
        with pytest.raises(IndexSetTooLarge):
            enumerate_indices(FullTruncation(p=10, k=64))
        with pytest.raises(IndexSetTooLarge):
            enumerate_indices(FullTruncation(p=20_000, k=1))
        assert count_indices(FullTruncation(p=6, k=16)) == 74_613 <= MAX_INDICES


class TestLadder:
    @settings(max_examples=100, deadline=None)
    @given(specs(closed=True))
    def test_matches_decremented_lookup(self, spec):
        index_set = enumerate_indices(spec)
        system = build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), index_set, make_basis("trig"))
        got = (system.ladder_rows, system.ladder_js, system.ladder_srcs,
               system.ladder_weights)
        for have, want in zip(got, old_ladder(index_set)):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want)

    @pytest.mark.parametrize("name", sorted(SPARSE_PRESETS))
    def test_presets(self, name):
        index_set = enumerate_indices(SPARSE_PRESETS[name])
        system = build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), index_set, make_basis("haar"))
        assert np.array_equal(system.ladder_srcs, old_ladder(index_set)[2])

    def test_set_not_closed_under_lowering_is_rejected(self):
        # (0, 2) has order 2 and fits row 2, but (0, 1) breaks row 1
        spec = SparseSecondOrder(((1, 0), (2, 2)))
        with pytest.raises(InvalidSparseIndex):
            build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), enumerate_indices(spec),
                      make_basis("trig"))


class TestGalerkinTensor:
    @settings(max_examples=60, deadline=None)
    @given(specs(max_p=3, max_k=5, closed=True))
    def test_matches_pair_loop_bit_for_bit(self, spec):
        index_set = enumerate_indices(spec)
        got = galerkin_tensor(index_set)
        for have, want in zip(got, old_tensor(index_set)):
            assert have.dtype == want.dtype
            assert np.array_equal(have, want)

    @settings(max_examples=60, deadline=None)
    @given(specs(max_p=3, max_k=5, closed=True))
    def test_symmetric(self, spec):
        # undo the pair doubling and mirror (b, c): the result must be the
        # fully symmetric E[Psi^a Psi^b Psi^c] restricted to the set
        index_set = enumerate_indices(spec)
        q = galerkin_tensor(index_set)
        n = len(index_set)
        full = np.zeros((n, n, n))
        weights = np.where(q.left == q.right, q.weights, q.weights / 2.0)
        full[q.targets, q.left, q.right] = weights
        full[q.targets, q.right, q.left] = weights
        for axes in ((1, 0, 2), (2, 1, 0), (0, 2, 1)):
            assert np.array_equal(full, full.transpose(axes))

    def test_cached_per_set_and_shared_with_the_system(self):
        index_set = enumerate_indices(FullTruncation(p=2, k=3))
        system = build_rhs(LOGISTIC, index_set, make_basis("klcos"))
        q = galerkin_tensor(index_set)
        assert system.quad_targets is q.targets and system.quad_weights is q.weights
        assert galerkin_tensor(index_set) is q


class TestThirdMoment:
    @settings(max_examples=60, deadline=None)
    @given(specs(max_p=3, max_k=5, closed=True), st.integers(0, 2 ** 32 - 1))
    def test_matches_triple_loop(self, spec, seed):
        index_set = enumerate_indices(spec)
        x = np.random.default_rng(seed).standard_normal(len(index_set))
        sol = ChaosSolution(index_set=index_set, grid=np.array([0.0]),
                            coeffs=x[None, :], basis=make_basis("trig"))
        want, scale = old_third_moment(index_set, x)
        assert math.isclose(third_moment(sol, 0.0), want, rel_tol=0.0,
                            abs_tol=1e-12 * scale)
