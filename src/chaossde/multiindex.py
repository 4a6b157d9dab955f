"""Multi-index sets for truncated Wiener chaos expansions.

A multi-index is a finitely supported sequence of non-negative integers;
coordinate i selects the Hermite order applied to the i-th Gaussian
coordinate W(e_i).  Truncations restrict the admissible indices either by
total order and basis count alone (full truncation) or with additional
per-coordinate caps (first/second order sparse truncations).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (CoordinateNotPositive, EmptyIndex, IndexSetTooLarge,
                     InvalidSparseIndex)


@dataclass(frozen=True)
class MultiIndex:
    """Finitely supported sequence of non-negative integers.

    Only strictly positive entries are stored, as sorted
    ``(coordinate, value)`` pairs with 1-based coordinates.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        coords = [i for i, _ in self.pairs]
        if any(i < 1 for i in coords) or any(v < 1 for _, v in self.pairs):
            raise ValueError("coordinates must be >= 1 and stored values >= 1")
        if coords != sorted(set(coords)):
            raise ValueError("pairs must be sorted by coordinate without duplicates")

    @classmethod
    def from_dense(cls, values: Sequence[int]) -> "MultiIndex":
        """Build from a dense tuple ``(a_1, a_2, ...)``; zeros are dropped."""
        return cls(tuple((i + 1, int(v)) for i, v in enumerate(values) if v))

    @classmethod
    def zero(cls) -> "MultiIndex":
        return cls(())

    @classmethod
    def unit(cls, coordinate: int) -> "MultiIndex":
        return cls(((coordinate, 1),))

    def __getitem__(self, coordinate: int) -> int:
        for i, v in self.pairs:
            if i == coordinate:
                return v
        return 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    @property
    def is_zero(self) -> bool:
        return not self.pairs

    @property
    def order(self) -> int:
        """Total order |a| = sum of all entries."""
        return sum(v for _, v in self.pairs)

    @property
    def degree(self) -> int:
        """Largest coordinate with a non-zero entry (0 for the zero index)."""
        return self.pairs[-1][0] if self.pairs else 0

    def factorial(self) -> int:
        """a! = prod_i a_i!, exact integer arithmetic."""
        out = 1
        for _, v in self.pairs:
            out *= math.factorial(v)
        return out

    def dense(self, k: int) -> tuple[int, ...]:
        """Dense tuple of the first ``k`` coordinates."""
        out = [0] * k
        for i, v in self.pairs:
            if i <= k:
                out[i - 1] = v
        return tuple(out)

    def decremented(self, coordinate: int) -> "MultiIndex":
        """Return the index with ``coordinate`` reduced by one.

        Raises ``CoordinateNotPositive`` when the entry is already zero.
        """
        if self[coordinate] < 1:
            raise CoordinateNotPositive(f"coordinate {coordinate} of {self} is zero")
        out = []
        for i, v in self.pairs:
            if i == coordinate:
                if v > 1:
                    out.append((i, v - 1))
            else:
                out.append((i, v))
        return MultiIndex(tuple(out))

    def characteristic_set(self) -> tuple[int, ...]:
        """Non-decreasing coordinate list with multiplicity a_i per coordinate.

        For a = (2,0,1,4) this is (1,1,3,4,4,4,4); the last entry equals the
        degree.  Raises ``EmptyIndex`` for the zero index.
        """
        if self.is_zero:
            raise EmptyIndex("characteristic set of the zero index is undefined")
        out: list[int] = []
        for i, v in self.pairs:
            out.extend([i] * v)
        return tuple(out)

    def label(self) -> str:
        """Compact text form: ``"0"`` for the zero index, else ``"a1:2|a3:1"``."""
        if self.is_zero:
            return "0"
        return "|".join(f"a{i}:{v}" for i, v in self.pairs)

    def __str__(self) -> str:
        return self.label()


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
        r = tuple(int(v) for v in self.r)
        object.__setattr__(self, "r", r)
        if not r:
            raise InvalidSparseIndex("sparse index must have at least one entry")
        if any(v < 0 for v in r):
            raise InvalidSparseIndex(f"negative cap in {r}")
        if any(a < b for a, b in zip(r, r[1:])):
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
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise InvalidSparseIndex("second order sparse index needs at least one row")
        k = len(rows[0])
        for j, row in enumerate(rows, start=1):
            if len(row) != k:
                raise InvalidSparseIndex("all rows must have the same length")
            if row[0] != j:
                raise InvalidSparseIndex(f"row {j} must start with {j}, got {row}")
            if any(a < b for a, b in zip(row, row[1:])):
                raise InvalidSparseIndex(f"row {j} caps must be non-increasing, got {row}")
            if any(v < 0 for v in row):
                raise InvalidSparseIndex(f"negative cap in row {j}: {row}")

    @property
    def p(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0])


TruncationSpec = Union[FullTruncation, SparseFirstOrder, SparseSecondOrder]


INDEX_DTYPE = np.int16
# Largest truncation order stored: Galerkin sums beta + gamma of two stored
# rows must still fit the int16 entries.
MAX_STORED_ORDER = np.iinfo(INDEX_DTYPE).max // 2
# Largest index set enumerated.  A full p=6, k=16 set (74,613 indices) still
# runs; far larger sets would exhaust memory in the coefficient trajectories
# (8 bytes per index per grid point) long before the solve finished.
MAX_INDICES = 200_000


class IndexSet:
    """Deterministically ordered multi-index set with ordinal lookup.

    Row n of ``dense``, an (n, k) small-int array, is the dense coordinate
    tuple of the n-th index.  Rows are sorted ascending by total order, then
    lexicographically, so coefficient vectors are reproducible across runs;
    the zero index, when present, is first.  The ``MultiIndex`` view
    (``indices``, iteration, ``[ordinal]``) is built on first use.

    Lookups use integer keys: the rank of a row in the canonical order of
    the full set of total order <= ``max_order`` on k coordinates.  Ranks
    increase along every canonical set and stay below binomial(k + p, p);
    a set whose binomial reaches 2^63 raises ``IndexSetTooLarge`` on its
    first lookup.
    """

    def __init__(self, indices, k: int):
        """``indices``: an (n, k) int16 array, or ``MultiIndex`` objects."""
        self.k = k
        self._cache: dict = {}
        if isinstance(indices, np.ndarray):
            self.dense = indices
        else:
            indices = tuple(indices)
            if any(a.degree > k for a in indices):
                raise ValueError(f"an index touches a coordinate above k={k}")
            self.dense = np.array([a.dense(k) for a in indices],
                                  dtype=INDEX_DTYPE).reshape(len(indices), k)
            self.__dict__["indices"] = indices
            if np.any(np.diff(self.keys) <= 0):
                raise ValueError("indices must be distinct and in canonical order")
        self.dense.flags.writeable = False

    def __len__(self) -> int:
        return len(self.dense)

    @cached_property
    def indices(self) -> tuple[MultiIndex, ...]:
        return tuple(MultiIndex.from_dense(row) for row in self.dense.tolist())

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.indices)

    def __getitem__(self, ordinal: int) -> MultiIndex:
        return self.indices[ordinal]

    def cached(self, name: str, build):
        """``build(self)``, computed once per set and kept with it."""
        if name not in self._cache:
            self._cache[name] = build(self)
        return self._cache[name]

    @cached_property
    def max_order(self) -> int:
        return int(self.dense.sum(axis=1).max()) if len(self) else 0

    @cached_property
    def _rank_columns(self) -> np.ndarray:
        # column m, entry s + 1: binomial(s + m, m), the number of
        # m-coordinate tuples of order <= s; entry 0 (s = -1) is zero
        p, k = self.max_order, self.k
        if math.comb(p + k, k) >= 2 ** 63:
            raise IndexSetTooLarge(f"ranks of order {p} on {k} coordinates overflow int64")
        return np.array([[0] + [math.comb(s + m, m) for s in range(p + 1)]
                         for m in range(k + 1)], dtype=np.int64)

    def ranks(self, rows: np.ndarray) -> np.ndarray:
        """Canonical rank of each dense row of total order <= ``max_order``.

        The rank counts the rows of lower order, then, coordinate by
        coordinate, the tuples that agree so far and hold a smaller value.
        """
        columns, k = self._rank_columns, self.k
        top = rows.sum(axis=1, dtype=np.intp)  # entry of s = order - 1
        rank = columns[k][top]
        top += 1  # entry of s = the order still to place
        for i in range(k):
            column = columns[k - 1 - i]
            rank += column[top]
            top -= rows[:, i]
            rank -= column[top]
        return rank

    @cached_property
    def keys(self) -> np.ndarray:
        return self.ranks(self.dense)

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Ordinal of each dense row in this set, -1 where it is absent."""
        out = np.full(len(rows), -1, dtype=np.intp)
        if not len(self):
            return out
        inside = np.flatnonzero(rows.sum(axis=1) <= self.max_order)
        wanted = self.ranks(rows[inside])
        pos = np.minimum(np.searchsorted(self.keys, wanted), len(self) - 1)
        hit = self.keys[pos] == wanted
        out[inside[hit]] = pos[hit]
        return out

    def _position(self, alpha: MultiIndex) -> int:
        if alpha.degree > self.k or alpha.order > self.max_order:
            return -1
        row = np.array([alpha.dense(self.k)], dtype=INDEX_DTYPE)
        return int(self.positions(row)[0])

    def position_of(self, alpha: MultiIndex) -> int:
        pos = self._position(alpha)
        if pos < 0:
            raise KeyError(alpha)
        return pos

    def __contains__(self, alpha: MultiIndex) -> bool:
        return self._position(alpha) >= 0

    def labels(self) -> list[str]:
        return [a.label() for a in self.indices]


def _capped_levels(caps: Sequence[int], p: int) -> list[np.ndarray]:
    """Dense rows of order 0..p with entries a_i <= caps[i], one array per order.

    Each row is reached once, from the row one unit lower at its last
    non-zero coordinate: children raise only coordinates at or after the
    one their parent raised last.  Entries only grow along that chain, so
    dropping a row above its cap loses no row within the caps.
    """
    caps = np.asarray(caps)
    k = len(caps)
    level = np.zeros((1, k), dtype=INDEX_DTYPE)
    last = np.zeros(1, dtype=np.intp)
    levels = [level]
    for _ in range(p):
        counts = k - last
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

    Full: all indices with |a| <= p supported on the first k coordinates.
    First order sparse: additionally a_i <= r_i for every coordinate.
    Second order sparse: an index of total order j obeys a_i <= r^j_i.
    Sets above ``MAX_INDICES`` indices or ``MAX_STORED_ORDER`` raise
    ``IndexSetTooLarge`` before anything is allocated.
    """
    if spec.p > MAX_STORED_ORDER:
        raise IndexSetTooLarge(f"order {spec.p} exceeds the cap {MAX_STORED_ORDER}")
    n = count_indices(spec)
    if n > MAX_INDICES:
        raise IndexSetTooLarge(f"truncation p={spec.p}, k={spec.k} has {n} indices, "
                               f"above the cap of {MAX_INDICES}")
    if isinstance(spec, FullTruncation):
        levels = _capped_levels([spec.p] * spec.k, spec.p)
    elif isinstance(spec, SparseFirstOrder):
        levels = _capped_levels(spec.r, spec.p)
    else:
        levels = [np.zeros((1, spec.k), dtype=INDEX_DTYPE)]
        levels += [_capped_levels(row, j)[-1] for j, row in enumerate(spec.rows, start=1)]
    dense = np.concatenate(levels)
    keys = [dense[:, i] for i in range(spec.k - 1, -1, -1)] + [dense.sum(axis=1)]
    return IndexSet(dense[np.lexsort(keys)], k=spec.k)


def _capped_counts(caps: Sequence[int], p: int) -> list[int]:
    """Number of dense tuples with a_i <= caps[i] of each total order 0..p."""
    counts = [1] + [0] * p
    for cap in caps:
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
