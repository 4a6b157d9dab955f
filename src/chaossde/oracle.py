"""Independent stochastic verification of coefficient-based moments.

Two routes: sampling the truncated expansion directly from Gaussian draws,
and simulating the SDE with the Euler scheme on a uniform grid.  Both rely
on counter-based substreams (Philox keyed by seed/stream, one counter block
per fixed-size path chunk), so identical ``RngSpec`` inputs reproduce
bit-identical statistics no matter how many worker threads run the chunks.
Normal variates come from the inverse CDF applied to open-interval
uniforms, keeping the draw sequence platform-independent; rejection-based
samplers are avoided on purpose.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexSetTooLarge, NonFiniteValue
from .hermite import _check_order, hermite_table
from .propagator import ChaosSolution, SdeModel

CHUNK = 1 << 16  # paths per substream; fixed so results never depend on threading
# Largest chunk pool.  Chunks are numpy work, so threads beyond the cores
# gain nothing; the cap keeps a mistyped CHAOS_THREADS from starting
# thousands of threads.
MAX_THREADS = 64
# Working set of a sampling worker: it tabulates a chunk in the fewest equal
# path blocks whose Hermite table fits in this many bytes (p=5, k=8 makes two).
# Smaller blocks make more per-term numpy calls, which contend for the GIL: at
# p=5, k=8, 262,144 paths (2-core host, median of 5) 16 MiB took 0.54 s on 1
# thread and 0.37 s on 2, where 2 MiB took 0.70 s and 1.13 s.
SAMPLE_BLOCK_BYTES = 1 << 24


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream id selecting a reproducible family of substreams."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not 0 <= self.stream < 2 ** 64:
            raise ValueError("stream must fit in 64 bits")


def _chunk_generator(rng: RngSpec, chunk_index: int) -> np.random.Generator:
    key = rng.seed + (rng.stream << 64)
    counter = chunk_index << 128
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def normal_draws(gen: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via inverse CDF of 53-bit open-interval uniforms.

    ``random()`` is i 2^-53 for the top 53 bits i of an output, the i that
    ``integers(0, 2**53)`` draws; adding 2^-54 rounds as i + 1/2 would.
    """
    from scipy.special import ndtri  # here: most of the package's import time

    u = gen.random(shape)
    u += 2.0 ** -54
    return ndtri(u, out=u)


def _thread_count() -> int:
    """``CHAOS_THREADS`` if set, else the usable cores, at most MAX_THREADS."""
    env = os.environ.get("CHAOS_THREADS")
    if not env:
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity interface on this platform
            cores = os.cpu_count() or 1
        return min(cores, MAX_THREADS)
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(
            f"CHAOS_THREADS must be an integer from 1 to {MAX_THREADS}, got {env!r}")
    return threads


def pool_size(n_paths: int, n_steps: int = 1) -> int:
    """Validate the run sizes and CHAOS_THREADS; return the chunk-pool size.

    The pool never holds more workers than there are chunks.
    """
    for name, value in (("n_paths", n_paths), ("n_steps", n_steps)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    return min(_thread_count(), -(-n_paths // CHUNK))


def _chunk_sums(worker, rng: RngSpec, n_paths: int, threads: int):
    """Sum ``worker(generator, size)`` over all path chunks on ``threads``.

    Chunk i draws from its own Philox substream; results are added in chunk
    order regardless of completion order, so the sum is bit-identical under
    any thread count.  The pool of each thread count is made once and kept
    (see ``_pool``).
    """
    def quiet(gen: np.random.Generator, size: int):  # the statistics report overflows
        with np.errstate(over="ignore", invalid="ignore"):
            return worker(gen, size)

    sizes = [min(CHUNK, n_paths - i * CHUNK) for i in range(-(-n_paths // CHUNK))]
    generators = [_chunk_generator(rng, i) for i in range(len(sizes))]
    return sum(_pool(threads).map(quiet, generators, sizes), 0.0)


@lru_cache(maxsize=None)
def _pool(threads: int) -> ThreadPoolExecutor:
    """The chunk pool of ``threads`` workers, kept for the life of the process.

    Its threads keep their malloc arenas, so the memory a worker frees at the
    end of one call serves its next.  A pool made per call could start a
    thread before the last call's threads had given their arenas back, and a
    sampling table then landed in fresh memory: peak RSS jumped by about 12 MB
    in 6 of 30 processes of ``mc`` at p=5, k=8 on 2 threads.  Callers on
    several threads may share it, since chunks share no state; its idle
    threads are joined at interpreter exit by ``concurrent.futures``.
    """
    return ThreadPoolExecutor(max_workers=threads)


@dataclass(frozen=True)
class SampleStats:
    """Monte Carlo summary with standard errors.

    ``third`` is the raw third moment E[X^3]; the variance standard error
    uses the fourth-moment formula  se = sqrt((m4 - m2^2) / n).
    """

    n: int
    mean: float
    mean_se: float
    variance: float
    variance_se: float
    third: float
    third_se: float


def _stats_from_power_sums(n: int, s: np.ndarray, t: float) -> SampleStats:
    with np.errstate(over="ignore", invalid="ignore"):  # the raise below reports it
        mean = s[0] / n
        raw = s / n
        m2 = max(raw[1] - mean ** 2, 0.0)
        # central fourth moment from raw moments
        m4 = raw[3] - 4 * mean * raw[2] + 6 * mean ** 2 * raw[1] - 3 * mean ** 4
        var_se = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
        third = raw[2]
        third_se = math.sqrt(max(raw[5] - third * third, 0.0) / n)
    stats = SampleStats(n=n, mean=mean, mean_se=math.sqrt(m2 / n),
                        variance=m2, variance_se=var_se,
                        third=third, third_se=third_se)
    if not all(map(math.isfinite, vars(stats).values())):
        raise NonFiniteValue("a sample statistic is not finite", time=t)
    return stats


def _power_sums(values: np.ndarray) -> np.ndarray:
    out = np.empty(6)
    out[0] = values.sum()
    acc = values * values
    for m in range(1, 6):
        out[m] = acc.sum()
        if m < 5:
            acc *= values
    return out


def block_paths(p: int, k: int) -> int:
    """Paths per block: each takes ``8 k (p+1)`` bytes of Hermite table.

    An order above ``hermite.MAX_ORDER`` raises ``OrderTooLarge``, and a set
    whose one path exceeds ``SAMPLE_BLOCK_BYTES`` raises ``IndexSetTooLarge``.
    """
    _check_order(p)
    path_bytes = 8 * k * (p + 1)
    if path_bytes > SAMPLE_BLOCK_BYTES:
        raise IndexSetTooLarge(
            f"sampling p={p}, k={k} needs {path_bytes} bytes of Hermite table per "
            f"path, above the block of {SAMPLE_BLOCK_BYTES}")
    return SAMPLE_BLOCK_BYTES // path_bytes


def _expansion_terms(indices, row: np.ndarray) -> list:
    """``(coeff, [(a, j), ...])`` per index with a non-zero coefficient.

    The factors H_a(xi_j) come in ascending coordinate order, with 0-based
    coordinates j.
    """
    _, cols, orders, starts = indices.support
    factors = list(zip(orders.tolist(), cols.tolist()))
    return [(coeff, factors[starts[n]:starts[n + 1]])
            for n, coeff in enumerate(row.tolist()) if coeff != 0.0]


def sample_expansion(sol: ChaosSolution, t: float, n_paths: int,
                     rng: RngSpec) -> SampleStats:
    """Sample the truncated expansion at a grid time.

    Each path draws k independent standard normals, evaluates every basis
    functional through a shared Hermite value table, and contracts with the
    coefficient vector at ``t``.  The table is laid out ``(p+1, k, block)``,
    so each factor H_a(xi_j) over a block is one contiguous row; a term is
    formed in a reused buffer as ``coeff * factor_1 * factor_2 * ...`` in
    ascending coordinate order and added to the path values in index order.
    A chunk is tabulated in the fewest equal path blocks whose table,
    ``8 k block (p+1)`` bytes, fits in ``SAMPLE_BLOCK_BYTES``; one table
    buffer serves all blocks of a chunk.  A block's draws come in slabs of
    paths, each as many values as one factor row, written transposed into
    row 1, which the recurrence then reads as x; the power sums span the
    whole chunk, so no statistic depends on the block or slab size.  A set
    whose one path does not fit (see ``block_paths``) raises
    ``IndexSetTooLarge`` before anything is drawn.
    """
    row = sol.coeffs_at(t)
    indices = sol.index_set
    k, p_max = indices.k, indices.max_order
    threads = pool_size(n_paths)
    max_block = block_paths(p_max, k)
    terms = _expansion_terms(indices, row)

    def worker(gen: np.random.Generator, size: int) -> np.ndarray:
        n_blocks = -(-size // max_block)
        block = -(-size // n_blocks)
        slab = -(-block // k)  # paths whose draws fill one factor row
        # each block's table in turn; allocated first and held to the chunk's
        # end, so the worker's next chunk finds its freed space whole
        tables = np.empty((p_max + 1) * k * block)
        values = np.zeros(size)
        buf = np.empty(block)  # one term at a time
        for start in range(0, size, block):
            part = values[start:start + block]
            n = len(part)
            table = tables[:(p_max + 1) * k * n].reshape(p_max + 1, k, n)
            if p_max:  # at order 0 no term has a factor, so nothing is drawn
                for s in range(0, n, slab):
                    m = min(slab, n - s)
                    table[1, :, s:s + m] = normal_draws(gen, (m, k)).T
                hermite_table(p_max, table[1], out=table)
            term = buf[:n]
            for coeff, factors in terms:
                if not factors:  # the zero index
                    part += coeff
                    continue
                (a, j), *rest = factors
                np.multiply(coeff, table[a, j], out=term)
                for a, j in rest:
                    term *= table[a, j]
                part += term
        return _power_sums(values)

    return _stats_from_power_sums(n_paths, _chunk_sums(worker, rng, n_paths, threads), t)


def euler_maruyama(model: SdeModel, n_steps: int, n_paths: int, rng: RngSpec,
                   t_end: float = 1.0) -> SampleStats:
    """Euler scheme on the uniform n-step grid, statistics at ``t_end``.

    Each step is X <- X + b(X) dt + sigma(X) sqrt(dt) Z.
    """
    threads = pool_size(n_paths, n_steps)
    if not 0 < t_end < math.inf:  # false for NaN; inf and NaN reach no error until every step ran
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")
    dt = t_end / n_steps
    sqrt_dt = math.sqrt(dt)
    (b0, b1, b2), (g0, g1, g2) = model.drift, model.diffusion

    def worker(gen: np.random.Generator, size: int) -> np.ndarray:
        x = np.full(size, model.x0)
        drift, diff, x_sq, tmp = (np.empty(size) for _ in range(4))
        for _ in range(n_steps):
            z = normal_draws(gen, size)
            # a zero constant is not added: that changes only the sign of a zero
            np.multiply(b1, x, out=drift)
            if b0 != 0.0:
                np.add(b0, drift, out=drift)
            np.multiply(g1, x, out=diff)
            if g0 != 0.0:
                np.add(g0, diff, out=diff)
            if b2 != 0.0 or g2 != 0.0:
                np.multiply(x, x, out=x_sq)
                drift += np.multiply(b2, x_sq, out=tmp)
                diff += np.multiply(g2, x_sq, out=tmp)
            x += np.multiply(drift, dt, out=drift)
            x += np.multiply(diff, np.multiply(sqrt_dt, z, out=z), out=diff)
        return _power_sums(x)

    return _stats_from_power_sums(n_paths, _chunk_sums(worker, rng, n_paths, threads),
                                  t_end)
