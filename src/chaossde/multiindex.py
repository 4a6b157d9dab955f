"""Index sets for truncated Wiener chaos expansions.

An index is a dense row of non-negative integers, one per basis element:
entry i selects the Hermite order applied to the Gaussian coordinate
W(e_{i+1}).  Every truncation caps the rows of each total order m <= p
coordinate by coordinate, ``caps(m)``: a full one at m, a first order
sparse one at min(r_i, m) and a second order sparse one by its row m.
"""
from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IndexSetTooLarge, InvalidSparseIndex


def _checked_caps(values, name: str, head: int | None = None) -> tuple[int, ...]:
    """``values`` as ints, refused unless non-negative, non-increasing and led by ``head``."""
    caps = np.array(values)
    if caps.ndim != 1 or caps.dtype.kind not in "iu":
        # floats, bools, text and ints beyond 64 bits, one by one
        caps = np.array([int(v) for v in values])
    values = tuple(caps.tolist())
    if np.any(caps < 0):
        raise InvalidSparseIndex(f"negative cap in {name}: {values}")
    if np.any(caps[:-1] < caps[1:]):
        raise InvalidSparseIndex(f"{name} caps must be non-increasing, got {values}")
    if head is not None and values[:1] != (head,):
        raise InvalidSparseIndex(f"{name} must start with {head}, got {values}")
    return values


@dataclass(frozen=True)
class FullTruncation:
    """All indices with total order <= p supported on the first k coordinates."""

    p: int
    k: int

    def __post_init__(self):
        if self.p < 0 or self.k < 1:
            raise InvalidSparseIndex(f"need p >= 0 and k >= 1, got p={self.p} k={self.k}")

    def caps(self, m: int) -> tuple[int, ...]:
        """The k caps of the rows of total order m <= p: m on every coordinate."""
        return (m,) * self.k

    text = ""  # the text form of a sparse index; a full set has none


@dataclass(frozen=True)
class SparseFirstOrder:
    """Per-coordinate caps r with p = r_1 >= r_2 >= ... >= r_k >= 0."""

    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", _checked_caps(self.r, "sparse index"))
        if not self.r:
            raise InvalidSparseIndex("sparse index must have at least one entry")

    p = property(lambda self: self.r[0])
    k = property(lambda self: len(self.r))
    text = property(lambda self: ",".join(map(str, self.r)))

    def caps(self, m: int) -> tuple[int, ...]:
        """The k caps of the rows of total order m <= p: min(r_i, m)."""
        return self.r if m >= self.p else tuple(min(c, m) for c in self.r)  # no cap exceeds p


@dataclass(frozen=True)
class SparseSecondOrder:
    """Order-dependent caps: row j applies to indices of total order j.

    Row j must satisfy j = r^j_1 >= r^j_2 >= ... >= r^j_k and all rows share
    the same length k.  The number of rows is the maximal order p.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(_checked_caps(row, f"row {j}", j) for j, row in enumerate(self.rows, start=1))
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise InvalidSparseIndex("second order sparse index needs at least one row")
        if any(len(row) != len(rows[0]) for row in rows):
            raise InvalidSparseIndex("all rows must have the same length")

    p = property(lambda self: len(self.rows))
    k = property(lambda self: len(self.rows[0]))
    text = property(lambda self: ";".join(",".join(map(str, row)) for row in self.rows))

    def caps(self, m: int) -> tuple[int, ...]:
        """The k caps of the rows of total order m <= p: row m (zeros at m = 0)."""
        return self.rows[m - 1] if m else (0,) * self.k


TruncationSpec = FullTruncation | SparseFirstOrder | SparseSecondOrder


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
        if self.dense is dense and dense.flags.writeable:  # freeze a copy, not the caller's
            self.dense = dense.copy()
        self.dense.flags.writeable = False
        self.keys = row_keys(self.dense)
        self.keys.flags.writeable = False
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise ValueError("rows must be distinct and in canonical order")
        self._cache: dict = {}

    @property
    def k(self) -> int:
        return self.dense.shape[1]

    def __len__(self) -> int:
        return len(self.dense)

    def cached(self, name: str, build):
        """``build(self)``, computed once per set and kept with it.

        Every system and solve of the set shares what is kept, so the
        arrays of the result, a tuple of arrays, are made read-only.
        """
        if name not in self._cache:
            self._cache[name] = _frozen(build(self))
        return self._cache[name]

    @cached_property
    def max_order(self) -> int:
        return int(self.dense[-1].sum()) if len(self) else 0

    @cached_property
    def support(self) -> tuple[np.ndarray, ...]:
        """``(rows, cols, orders)`` of the non-zero entries by row, then column,
        and the ``bounds``: row n holds entries ``bounds[n]:bounds[n + 1]``."""
        rows, cols = np.nonzero(self.dense)
        return _frozen((rows, cols, self.dense[rows, cols],
                        np.searchsorted(rows, np.arange(len(self) + 1))))

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Ordinal of each dense row in this set, -1 where it is absent."""
        wanted = row_keys(rows)
        pos = np.minimum(np.searchsorted(self.keys, wanted), len(self) - 1)
        return np.where(self.keys[pos] == wanted, pos, -1)

    def labels(self) -> list[str]:
        """``"0"`` for the zero index, else ``"a1:2|a3:1"`` (1-based coordinates).

        Only ``support`` is formatted, so the cost follows the non-zeros.
        """
        _, cols, orders, bounds = self.support
        terms = [f"a{i}:{v}" for i, v in zip((cols + 1).tolist(), orders.tolist())]
        return ["|".join(terms[lo:hi]) or "0" for lo, hi in itertools.pairwise(bounds.tolist())]


def _frozen(arrays: tuple) -> tuple:
    """``arrays``, a tuple of arrays, each made read-only; ``TypeError`` for
    anything else, whose arrays could not all be reached and frozen."""
    if not (isinstance(arrays, tuple) and all(isinstance(a, np.ndarray) for a in arrays)):
        raise TypeError(f"a kept result must be a tuple of arrays, got {type(arrays).__name__}")
    for array in arrays:
        array.flags.writeable = False
    return arrays


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Sort key of each dense row: its total order, then its entries.

    The key is the row's big-endian int16 bytes with the order prepended,
    viewed as one ``S`` string, which has ``<`` (the trailing NULs numpy
    ignores sort below any byte).  Big-endian bytes of non-negative int16
    values compare like the values, so byte order is the canonical order.
    """
    keyed = np.empty((len(rows), rows.shape[1] + 1), dtype=">i2")
    keyed[:, 0] = rows.sum(axis=1)
    keyed[:, 1:] = rows
    return keyed.view(f"S{keyed.itemsize * keyed.shape[1]}").ravel()


def _capped_levels(caps: tuple[int, ...], p: int) -> list[np.ndarray]:
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


def _nested_caps(spec: TruncationSpec) -> tuple[int, ...] | None:
    """``spec.caps(p)`` if every order m caps at ``min(caps(p), m)``, else None."""
    top = spec.caps(spec.p)
    nested = all(spec.caps(m) == tuple(min(c, m) for c in top) for m in range(1, spec.p))
    return top if nested else None


def enumerate_indices(spec: TruncationSpec) -> IndexSet:
    """Rows of order m <= p with a_i <= ``spec.caps(m)[i]``, in canonical order.

    The set is built once per spec object and kept in its ``__dict__`` (a
    frozen dataclass refuses ``setattr``), so it and what is ``cached`` on
    it live as long as the spec; an equal but distinct spec builds its own.
    A module-level spec, such as those of ``presets``, so keeps its set
    until the process exits; ``dataclasses.replace(spec)`` gives a spec
    without it, while ``copy.copy`` and pickling carry the kept set along.
    Sets ``checked_count`` refuses raise before anything is allocated, and
    nothing is kept for them.
    Nested caps grow every order at once, other caps each order alone.
    Each reversed level is in canonical order with no sort: one parent's
    children descend as the raised coordinate ascends, and a later parent
    of the same order raises none before its first difference from an
    earlier one, so all its children come below the earlier one's.
    """
    if "_index_set" in spec.__dict__:
        return spec.__dict__["_index_set"]
    checked_count(spec)
    top = _nested_caps(spec)
    # caps that do not nest rebuild each order's chain, so the cost grows like
    # p^2: a second-order set of 901 indices at p=600 took 3.1 s (2 cores)
    levels = (_capped_levels(top, spec.p) if top is not None else
              [_capped_levels(spec.caps(m), m)[-1] for m in range(spec.p + 1)])
    dense = np.concatenate([level[::-1] for level in levels])
    dense.flags.writeable = False  # no other holder: IndexSet keeps it uncopied
    spec.__dict__["_index_set"] = IndexSet(dense)
    return spec.__dict__["_index_set"]


def _order_count(caps: tuple[int, ...], m: int) -> int:
    """Number of dense rows of total order m with a_i <= caps[i].

    That is the x^m term of prod_i (1 - x^(c_i+1)) / (1 - x).  The L caps
    equal to each c > 0 expand (1 - x^(c+1))^L up to x^m, one term if c >= m;
    the K non-zero caps leave 1 / (1 - x)^K, with x^j term binomial(K-1+j, j).
    """
    free = len(caps) - caps.count(0)  # K
    poly = {0: 1}  # the expanded factors, up to x^m
    for cap in set(caps) - {0}:
        run, step, product = caps.count(cap), cap + 1, collections.Counter()
        for (d, a), i in itertools.product(poly.items(), range(min(run, m // step) + 1)):
            if d + i * step <= m:
                product[d + i * step] += a * (-1) ** i * math.comb(run, i)
        poly = product
    return sum(a * math.comb(free - 1 + m - d, m - d) for d, a in poly.items())


def count_indices(spec: TruncationSpec) -> int:
    """Number of indices in ``enumerate_indices(spec)``, without enumerating."""
    top = _nested_caps(spec)
    if top is not None:  # one count: a slack coordinate no cap binds turns order <= p into p
        return _order_count((spec.p + 1,) + top, spec.p)
    return 1 + sum(_order_count(spec.caps(m), m) for m in range(1, spec.p + 1))


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
