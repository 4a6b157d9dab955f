"""Blocked, contiguous expansion sampling against the per-index loop it replaced.

The oracle below is the old sampler: a Hermite table of a whole chunk laid
out ``(p+1, size, k)``, and per index a fresh ``np.full(size, coeff)``
multiplied by one strided factor column per coordinate.  The new sampler
draws and tabulates each chunk in path blocks and performs the same
floating-point operations in the same order, so every statistic must agree
bit for bit whatever the block size.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_index_arrays import row_tuples, specs

from chaossde import oracle
from chaossde.basis import make_basis
from chaossde.errors import IndexSetTooLarge
from chaossde.hermite import hermite_table
from chaossde.integrator import ToleranceSpec
from chaossde.multiindex import (INDEX_DTYPE, FullTruncation, IndexSet, SparseFirstOrder,
                                 enumerate_indices)
from chaossde.oracle import (RngSpec, _chunk_generator, _power_sums,
                             _stats_from_power_sums, normal_draws, sample_expansion)
from chaossde.propagator import ChaosSolution, SdeModel, solve

GRID = np.array([0.0, 1.0])


def old_sample_expansion(sol, t, n_paths, rng):
    """The per-index ``np.full`` loop, run serially over the chunks."""
    row = sol.coeffs_at(t)
    indices = sol.index_set
    k, p_max = indices.k, indices.max_order
    # coordinates past the last one an index uses never enter a term
    used = int(np.flatnonzero(indices.dense.any(axis=0)).max(initial=-1)) + 1
    chunk = oracle.CHUNK
    total = np.zeros(6)
    for chunk_index in range(-(-n_paths // chunk)):
        size = min(chunk, n_paths - chunk_index * chunk)
        xi = normal_draws(_chunk_generator(rng, chunk_index), (size, k))
        table = hermite_table(p_max, xi[:, :used])  # (p+1, size, used)
        values = np.zeros(size)
        for n_ord, alpha in enumerate(row_tuples(indices)):
            coeff = row[n_ord]
            if coeff == 0.0:
                continue
            term = np.full(size, coeff)
            for coord, a in enumerate(alpha):
                if a:
                    term = term * table[a, :, coord]
            values += term
        total += _power_sums(values)
    return _stats_from_power_sums(n_paths, total, t)


def stats_hex(stats):
    return {key: float(value).hex() for key, value in vars(stats).items()}


@st.composite
def solutions(draw):
    """A random truncation with a coefficient row that has zeros, or is all zero."""
    spec = draw(specs())
    index_set = enumerate_indices(spec)
    n = len(index_set)
    if draw(st.booleans()):
        row = [0.0] * n
    else:
        entry = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False))
        row = draw(st.lists(entry, min_size=n, max_size=n))
    coeffs = np.stack([np.zeros(n), np.asarray(row, dtype=float)])
    return ChaosSolution(index_set, GRID, coeffs)


def record_block_sizes(monkeypatch) -> list:
    """Path counts of the Hermite tables ``sample_expansion`` builds."""
    sizes = []

    def recording(n_max, x, out=None):
        sizes.append(x.shape[-1])
        return hermite_table(n_max, x, out)

    monkeypatch.setattr(oracle, "hermite_table", recording)
    return sizes


class TestBitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(solutions(), st.integers(1, 5 * 64 + 7), st.sampled_from(("1", "2")),
           st.integers(0, 2 ** 32), st.sampled_from((1, 7, 24, 63, 64)))
    def test_matches_old_loop(self, sol, n_paths, threads, seed, block_paths):
        # a 64-path chunk makes most path counts span several ragged chunks,
        # and a budget of block_paths paths splits each chunk into equal
        # blocks, the last one ragged
        rng = RngSpec(seed=seed, stream=3)
        per_path = 8 * sol.index_set.k * (sol.index_set.max_order + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CHUNK", 64)
            mp.setattr(oracle, "SAMPLE_BLOCK_BYTES", per_path * block_paths)
            mp.setenv("CHAOS_THREADS", threads)
            got = sample_expansion(sol, 1.0, n_paths, rng)
            want = old_sample_expansion(sol, 1.0, n_paths, rng)
        assert stats_hex(got) == stats_hex(want)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("p, k, blocks", [
        (3, 4, [oracle.CHUNK]),  # the chunk fits in one block
        (5, 8, [oracle.CHUNK // 2] * 2),  # 8 k CHUNK (p+1) = 25 MB splits in two
    ], ids=["p3k4", "p5k8"])
    def test_matches_old_loop_at_full_chunk(self, monkeypatch, threads, p, k, blocks):
        # two chunks, the second ragged, on a solved GBM expansion
        sol = solve(SdeModel.gbm(1.0, 1.0, 1.0), FullTruncation(p=p, k=k),
                    make_basis("trig"), GRID, ToleranceSpec(rtol=1e-8, atol=1e-11))
        rng = RngSpec(seed=99)
        n_paths = oracle.CHUNK + 4097
        monkeypatch.setenv("CHAOS_THREADS", threads)
        want = old_sample_expansion(sol, 1.0, n_paths, rng)
        sizes = record_block_sizes(monkeypatch)
        got = sample_expansion(sol, 1.0, n_paths, rng)
        assert stats_hex(got) == stats_hex(want)
        assert sorted(sizes) == sorted(blocks + [4097])

    def test_matches_old_loop_above_the_old_chunk_cap(self, monkeypatch):
        # orders 0..64 on the first of 32 coordinates, on two workers: whole-chunk
        # tables would take 8 k CHUNK (p+1) 2 = 2.2e9 bytes, but one path takes
        # 16,640, so each chunk runs in 65 blocks of 993 paths and one of 991
        index_set = enumerate_indices(SparseFirstOrder((64,) + (0,) * 31))
        row = np.cos(np.arange(len(index_set)))
        sol = ChaosSolution(index_set, GRID, np.stack([np.zeros_like(row), row]))
        rng = RngSpec(seed=7)
        n_paths = 2 * oracle.CHUNK
        monkeypatch.setenv("CHAOS_THREADS", "2")
        want = old_sample_expansion(sol, 1.0, n_paths, rng)
        sizes = record_block_sizes(monkeypatch)
        got = sample_expansion(sol, 1.0, n_paths, rng)
        assert stats_hex(got) == stats_hex(want)
        assert sorted(set(sizes)) == [991, 993] and sum(sizes) == n_paths


class TestWorkingSet:
    def test_sampling_peak_stays_below_14_mib(self, monkeypatch):
        # one 65,536-path chunk of p=5, k=8 on one worker: the whole-chunk
        # draws and Hermite table peaked at 36.3 MiB, two blocks each with its
        # own draws, H_0 row and recurrence temporary at 17.1 MiB, and one
        # 12 MiB table buffer for both blocks, filled by slabs of draws, at 13.6
        sol = solve(SdeModel.gbm(1.0, 1.0, 1.0), FullTruncation(p=5, k=8),
                    make_basis("trig"), GRID, ToleranceSpec(rtol=1e-6, atol=1e-9))
        monkeypatch.setenv("CHAOS_THREADS", "1")
        sample_expansion(sol, 1.0, 10, RngSpec(seed=1))  # imports scipy.special
        tracemalloc.start()
        try:
            sample_expansion(sol, 1.0, oracle.CHUNK, RngSpec(seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestMemoryBound:
    def test_oversized_table_raises_before_drawing(self, monkeypatch):
        # the zero and first unit index on k coordinates, one more than a
        # block holds with one path: 8 k (p+1) bytes of Hermite table
        k = oracle.SAMPLE_BLOCK_BYTES // (8 * 2) + 1
        assert oracle.block_paths(1, k - 1) == 1
        dense = np.zeros((2, k), dtype=INDEX_DTYPE)
        dense[1, 0] = 1
        sol = ChaosSolution(IndexSet(dense), GRID, np.zeros((2, 2)))

        def refuse(*args, **kwargs):
            raise AssertionError("drew or tabulated before the size check")

        for name in ("_chunk_generator", "normal_draws", "hermite_table"):
            monkeypatch.setattr(oracle, name, refuse)
        monkeypatch.setenv("CHAOS_THREADS", "1")
        needed = 8 * k * 2
        with pytest.raises(IndexSetTooLarge, match=f"p=1, k={k} needs {needed} bytes"):
            sample_expansion(sol, 1.0, oracle.CHUNK, RngSpec(seed=0))
