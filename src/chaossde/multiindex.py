"""Index sets for truncated Wiener chaos expansions.

An index is a dense row of non-negative integers, one per basis element:
entry i selects the Hermite order applied to the Gaussian coordinate
W(e_{i+1}).  Truncations restrict the admissible rows either by total
order and basis count alone (full truncation) or with additional
per-coordinate caps (first/second order sparse truncations).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import IndexSetTooLarge, InvalidSparseIndex


def _int_caps(values) -> tuple[tuple[int, ...], np.ndarray]:
    """``tuple(int(v) for v in values)``, and the same caps as an array."""
    caps = np.array(values)
    if caps.ndim != 1 or caps.dtype.kind not in "iu":
        # floats, bools, text and ints beyond 64 bits, one by one
        caps = np.array([int(v) for v in values])
    return tuple(caps.tolist()), caps


@dataclass(frozen=True)
class FullTruncation:
    """All indices with total order <= p supported on the first k coordinates."""

    p: int
    k: int

    def __post_init__(self):
        if self.p < 0 or self.k < 1:
            raise InvalidSparseIndex(f"need p >= 0 and k >= 1, got p={self.p} k={self.k}")


@dataclass(frozen=True)
class SparseFirstOrder:
    """Per-coordinate caps r with p = r_1 >= r_2 >= ... >= r_k >= 0."""

    r: tuple[int, ...]

    def __post_init__(self):
        r, caps = _int_caps(self.r)
        object.__setattr__(self, "r", r)
        if not r:
            raise InvalidSparseIndex("sparse index must have at least one entry")
        if np.any(caps < 0):
            raise InvalidSparseIndex(f"negative cap in {r}")
        if np.any(caps[:-1] < caps[1:]):
            raise InvalidSparseIndex(f"caps must be non-increasing, got {r}")

    @property
    def p(self) -> int:
        return self.r[0]

    @property
    def k(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class SparseSecondOrder:
    """Order-dependent caps: row j applies to indices of total order j.

    Row j must satisfy j = r^j_1 >= r^j_2 >= ... >= r^j_k and all rows share
    the same length k.  The number of rows is the maximal order p.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        parsed = [_int_caps(row) for row in self.rows]
        rows = tuple(row for row, _ in parsed)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise InvalidSparseIndex("second order sparse index needs at least one row")
        k = len(rows[0])
        for j, (row, caps) in enumerate(parsed, start=1):
            if len(row) != k:
                raise InvalidSparseIndex("all rows must have the same length")
            if row[0] != j:
                raise InvalidSparseIndex(f"row {j} must start with {j}, got {row}")
            if np.any(caps[:-1] < caps[1:]):
                raise InvalidSparseIndex(f"row {j} caps must be non-increasing, got {row}")
            if np.any(caps < 0):
                raise InvalidSparseIndex(f"negative cap in row {j}: {row}")

    @property
    def p(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0])


TruncationSpec = Union[FullTruncation, SparseFirstOrder, SparseSecondOrder]


INDEX_DTYPE = np.int16
# Largest truncation order stored: half the range of the int16 order column of
# ``row_keys``, which binds; Galerkin rows stop at ``hermite.MAX_ORDER``.
MAX_STORED_ORDER = np.iinfo(INDEX_DTYPE).max // 2
# Largest index set enumerated; a full p=6, k=16 set (74,613 indices) runs.
# Trajectories are capped by ``cli.MAX_TRAJECTORY_CELLS`` or streamed, so this
# bounds what grows with the set alone: its rows, system and solver state.
MAX_INDICES = 200_000
# Largest dense array enumerated, in cells (64 MiB of int16): every set
# within MAX_INDICES on up to 167 coordinates fits, p=1 on k=100,000 not.
MAX_DENSE_CELLS = 1 << 25


class IndexSet:
    """Deterministically ordered index set with ordinal lookup.

    Row n of ``dense``, an (n, k) int16 array, is the dense coordinate
    tuple of the n-th index.  Rows are distinct and sorted by
    ``row_keys``: ascending total order, then lexicographically, so
    coefficient vectors are reproducible across runs.  A non-empty set
    closed under lowering starts with the zero index.  Lookups
    ``searchsorted`` the rows' keys, so a row is its own lookup key.
    """

    def __init__(self, dense: np.ndarray):
        self.dense = np.asarray(dense, dtype=INDEX_DTYPE)
        self.dense.flags.writeable = False
        self.keys = row_keys(self.dense)
        # void keys have no ``<``: sorted means argsort is the identity
        if (np.any(self.keys[1:] == self.keys[:-1])
                or np.any(np.argsort(self.keys) != np.arange(len(self)))):
            raise ValueError("rows must be distinct and in canonical order")
        self._cache: dict = {}

    @property
    def k(self) -> int:
        return self.dense.shape[1]

    def __len__(self) -> int:
        return len(self.dense)

    def cached(self, name: str, build):
        """``build(self)``, computed once per set and kept with it."""
        if name not in self._cache:
            self._cache[name] = build(self)
        return self._cache[name]

    @cached_property
    def max_order(self) -> int:
        return int(self.dense[-1].sum()) if len(self) else 0

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Ordinal of each dense row in this set, -1 where it is absent."""
        wanted = row_keys(rows)
        pos = np.minimum(np.searchsorted(self.keys, wanted), len(self) - 1)
        return np.where(self.keys[pos] == wanted, pos, -1)

    def labels(self) -> list[str]:
        """``"0"`` for the zero index, else ``"a1:2|a3:1"`` (1-based coordinates).

        Only the non-zero entries are formatted, row by row in coordinate
        order, so the cost follows the non-zeros, not the dense cells.
        """
        rows, cols = np.nonzero(self.dense)
        terms = [f"a{i}:{v}" for i, v in zip((cols + 1).tolist(),
                                             self.dense[rows, cols].tolist())]
        bounds = np.searchsorted(rows, np.arange(len(self) + 1)).tolist()
        return ["|".join(terms[lo:hi]) or "0" for lo, hi in zip(bounds, bounds[1:])]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Sort key of each dense row: its total order, then its entries.

    The key is the row's big-endian int16 bytes with the order prepended,
    viewed as one ``np.void``.  Big-endian bytes of non-negative int16
    values compare like the values, so byte order is the canonical order.
    """
    keyed = np.empty((len(rows), rows.shape[1] + 1), dtype=">i2")
    keyed[:, 0] = rows.sum(axis=1)
    keyed[:, 1:] = rows
    return keyed.view(f"V{keyed.itemsize * keyed.shape[1]}").ravel()


def _capped_levels(caps: Sequence[int], p: int) -> list[np.ndarray]:
    """Dense rows of order 0..p with entries a_i <= caps[i], one array per order.

    Each row is reached once, from the row one unit lower at its last
    non-zero coordinate: children raise only coordinates at or after the
    one their parent raised last.  Entries only grow along that chain, so
    dropping a row above its cap loses no row within the caps.
    """
    caps = np.asarray(caps)
    # caps never increase, so only the leading non-zero ones can be raised
    raisable = np.count_nonzero(caps)
    level = np.zeros((1, len(caps)), dtype=INDEX_DTYPE)
    last = np.zeros(1, dtype=np.intp)
    levels = [level]
    for _ in range(p):
        counts = raisable - last
        parent = np.repeat(np.arange(len(level)), counts)
        child = np.arange(len(parent))
        coord = child - np.repeat(np.cumsum(counts) - counts - last, counts)
        level = level[parent]
        level[child, coord] += 1
        keep = level[child, coord] <= caps[coord]
        level, last = level[keep], coord[keep]
        levels.append(level)
    return levels


def enumerate_indices(spec: TruncationSpec) -> IndexSet:
    """Enumerate the index set described by ``spec`` in canonical order.

    The rows are grown level by level and sorted once by ``row_keys``.
    Full: all indices with |a| <= p supported on the first k coordinates.
    First order sparse: additionally a_i <= r_i for every coordinate.
    Second order sparse: an index of total order j obeys a_i <= r^j_i.
    Sets ``checked_count`` refuses raise before anything is allocated.
    """
    checked_count(spec)
    if isinstance(spec, FullTruncation):
        levels = _capped_levels([spec.p] * spec.k, spec.p)
    elif isinstance(spec, SparseFirstOrder):
        levels = _capped_levels(spec.r, spec.p)
    else:
        levels = [np.zeros((1, spec.k), dtype=INDEX_DTYPE)]
        levels += [_capped_levels(row, j)[-1] for j, row in enumerate(spec.rows, start=1)]
    dense = np.concatenate(levels)
    return IndexSet(dense[np.argsort(row_keys(dense))])


def _capped_counts(caps: Sequence[int], p: int) -> list[int]:
    """Number of dense tuples with a_i <= caps[i] of each total order 0..p."""
    counts = [1] + [0] * p
    for cap in filter(None, caps):  # a zero cap leaves the counts unchanged
        prefix = list(itertools.accumulate(counts, initial=0))
        counts = [prefix[j + 1] - prefix[max(j - cap, 0)] for j in range(p + 1)]
    return counts


def count_indices(spec: TruncationSpec) -> int:
    """Number of indices in ``enumerate_indices(spec)``, without enumerating.

    Full truncations use the closed form binomial(k+p, p); sparse sets sum
    per-order counts of capped compositions.
    """
    if isinstance(spec, FullTruncation):
        return math.comb(spec.k + spec.p, spec.p)
    if isinstance(spec, SparseFirstOrder):
        return sum(_capped_counts(spec.r, spec.p))
    if isinstance(spec, SparseSecondOrder):
        return 1 + sum(_capped_counts(row, j)[j] for j, row in enumerate(spec.rows, start=1))
    raise TypeError(f"not a truncation spec: {spec!r}")


def checked_count(spec: TruncationSpec) -> int:
    """``count_indices(spec)``, or ``IndexSetTooLarge`` for a set above
    ``MAX_INDICES`` indices, ``MAX_DENSE_CELLS`` dense cells or order
    ``MAX_STORED_ORDER``."""
    if spec.p > MAX_STORED_ORDER:
        raise IndexSetTooLarge(f"order {spec.p} exceeds the cap {MAX_STORED_ORDER}")
    n = count_indices(spec)
    if n > MAX_INDICES:
        raise IndexSetTooLarge(f"truncation p={spec.p}, k={spec.k} has {n} indices, "
                               f"above the cap of {MAX_INDICES}")
    if n * spec.k > MAX_DENSE_CELLS:
        raise IndexSetTooLarge(f"truncation p={spec.p}, k={spec.k} needs {n * spec.k} "
                               f"dense cells, above the cap of {MAX_DENSE_CELLS}")
    return n


def parse_sparse_text(text: str) -> TruncationSpec:
    """Parse the text form of a sparse index.

    First order: comma-separated caps, e.g. ``"3,2,2,1,1"``.
    Second order: semicolon-separated rows, e.g. ``"1,1,1;2,2,0"``.
    """
    text = text.strip()
    if not text:
        raise InvalidSparseIndex("empty sparse index text")
    rows = [row.strip() for row in text.split(";")]
    try:
        parsed = [tuple(int(v.strip()) for v in row.split(",")) for row in rows]
    except ValueError as exc:
        raise InvalidSparseIndex(f"cannot parse sparse index {text!r}") from exc
    if len(parsed) == 1:
        return SparseFirstOrder(parsed[0])
    return SparseSecondOrder(tuple(parsed))


def format_sparse_text(spec: TruncationSpec) -> str:
    """Inverse of :func:`parse_sparse_text`; empty string for full truncations."""
    if isinstance(spec, SparseFirstOrder):
        return ",".join(str(v) for v in spec.r)
    if isinstance(spec, SparseSecondOrder):
        return ";".join(",".join(str(v) for v in row) for row in spec.rows)
    return ""
