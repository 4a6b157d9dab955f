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

import numpy as np

from .errors import IndexSetTooLarge, NonFiniteValue
from .hermite import _check_order, hermite_table
from .propagator import ChaosSolution, SdeModel

CHUNK = 1 << 16  # paths per substream; fixed so results never depend on threading
# Largest chunk pool.  Chunks are numpy work, so threads beyond the cores
# gain nothing; the cap keeps a mistyped CHAOS_THREADS from starting
# thousands of threads.
MAX_THREADS = 64
# Working set of a sampling worker: it draws and tabulates a chunk in the fewest
# equal path blocks that fit in this many bytes (p=5, k=8 makes two blocks).
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
    """Standard normals via inverse CDF of 53-bit open-interval uniforms."""
    from scipy.special import ndtri  # here: most of the package's import time

    u = np.add(gen.integers(0, 1 << 53, size=shape, dtype=np.uint64), 0.5)
    u *= 2.0 ** -53
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
    any thread count.
    """
    def quiet(gen: np.random.Generator, size: int):  # the statistics report overflows
        with np.errstate(over="ignore", invalid="ignore"):
            return worker(gen, size)

    sizes = [min(CHUNK, n_paths - i * CHUNK) for i in range(-(-n_paths // CHUNK))]
    generators = [_chunk_generator(rng, i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(quiet, generators, sizes), 0.0)


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
    acc = values
    for m in range(6):
        out[m] = acc.sum()
        if m < 5:
            acc = acc * values
    return out


def block_paths(p: int, k: int) -> int:
    """Paths per block: each takes ``8 k (p+2)`` bytes of draws and Hermite table.

    An order above ``hermite.MAX_ORDER`` raises ``OrderTooLarge``, and a set
    whose one path exceeds ``SAMPLE_BLOCK_BYTES`` raises ``IndexSetTooLarge``.
    """
    _check_order(p)
    path_bytes = 8 * k * (p + 2)
    if path_bytes > SAMPLE_BLOCK_BYTES:
        raise IndexSetTooLarge(
            f"sampling p={p}, k={k} needs {path_bytes} bytes of draws and Hermite "
            f"table per path, above the block of {SAMPLE_BLOCK_BYTES}")
    return SAMPLE_BLOCK_BYTES // path_bytes


def _expansion_terms(indices, row: np.ndarray) -> list:
    """``(coeff, [(a, j), ...])`` per index with a non-zero coefficient.

    The factors H_a(xi_j) come in ascending coordinate order, with 0-based
    coordinates j.
    """
    nz_rows, nz_cols = np.nonzero(indices.dense)
    orders = indices.dense[nz_rows, nz_cols]
    starts = np.searchsorted(nz_rows, np.arange(len(indices) + 1))
    factors = list(zip(orders.tolist(), nz_cols.tolist()))
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
    A chunk is drawn and tabulated in the fewest equal path blocks whose
    ``8 k block (p+2)`` bytes fit in ``SAMPLE_BLOCK_BYTES``; the power sums
    span the whole chunk, so no statistic depends on the block size.  A set
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
        values = np.zeros(size)
        for start in range(0, size, block):
            part = values[start:start + block]
            buf = np.empty(len(part))  # one term at a time
            # (p+1, k, len(part)); the draws are freed once tabulated
            table = hermite_table(p_max, normal_draws(gen, (len(part), k)).T)
            for coeff, factors in terms:
                if not factors:  # the zero index
                    part += coeff
                    continue
                (a, j), *rest = factors
                np.multiply(coeff, table[a, j], out=buf)
                for a, j in rest:
                    buf *= table[a, j]
                part += buf
            del table  # before the next block is drawn
        return _power_sums(values)

    return _stats_from_power_sums(n_paths, _chunk_sums(worker, rng, n_paths, threads), t)


def euler_maruyama(model: SdeModel, n_steps: int, n_paths: int, rng: RngSpec,
                   t_end: float = 1.0) -> SampleStats:
    """Euler scheme on the uniform n-step grid, statistics at ``t_end``.

    Per step the coefficients are frozen at the left grid point:
    X <- X + b(t_i, X) dt + sigma(t_i, X) sqrt(dt) Z.
    """
    threads = pool_size(n_paths, n_steps)
    dt = t_end / n_steps
    sqrt_dt = math.sqrt(dt)
    drift_vals = [model.drift_at(i * dt) for i in range(n_steps)]
    diff_vals = [model.diffusion_at(i * dt) for i in range(n_steps)]

    def worker(gen: np.random.Generator, size: int) -> np.ndarray:
        x = np.full(size, float(model.x0))
        drift, diff, x_sq, tmp = (np.empty(size) for _ in range(4))
        for i in range(n_steps):
            b0, b1, b2 = drift_vals[i]
            g0, g1, g2 = diff_vals[i]
            z = normal_draws(gen, size)
            np.add(b0, np.multiply(b1, x, out=drift), out=drift)
            np.add(g0, np.multiply(g1, x, out=diff), out=diff)
            if b2 != 0.0 or g2 != 0.0:
                np.multiply(x, x, out=x_sq)
                drift += np.multiply(b2, x_sq, out=tmp)
                diff += np.multiply(g2, x_sq, out=tmp)
            x += np.multiply(drift, dt, out=drift)
            x += np.multiply(diff, np.multiply(sqrt_dt, z, out=z), out=diff)
        return _power_sums(x)

    return _stats_from_power_sums(n_paths, _chunk_sums(worker, rng, n_paths, threads),
                                  t_end)
