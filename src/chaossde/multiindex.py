"""Multi-index sets for truncated Wiener chaos expansions.

A multi-index is a finitely supported sequence of non-negative integers;
coordinate i selects the Hermite order applied to the i-th Gaussian
coordinate W(e_i).  Truncations restrict the admissible indices either by
total order and basis count alone (full truncation) or with additional
per-coordinate caps (first/second order sparse truncations).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import CoordinateNotPositive, EmptyIndex, InvalidSparseIndex


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


@dataclass(frozen=True)
class IndexSet:
    """Deterministically ordered multi-index set with ordinal lookup.

    Indices are sorted ascending by total order, then lexicographically on
    the dense coordinate tuple, so coefficient vectors are reproducible
    across runs.  The zero index is always first.
    """

    indices: tuple[MultiIndex, ...]
    k: int

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.indices)

    def __getitem__(self, ordinal: int) -> MultiIndex:
        return self.indices[ordinal]

    def _position_map(self) -> dict[MultiIndex, int]:
        cached = getattr(self, "_pos_cache", None)
        if cached is None:
            cached = {a: n for n, a in enumerate(self.indices)}
            object.__setattr__(self, "_pos_cache", cached)
        return cached

    def position_of(self, alpha: MultiIndex) -> int:
        return self._position_map()[alpha]

    def __contains__(self, alpha: MultiIndex) -> bool:
        return alpha in self._position_map()

    def labels(self) -> list[str]:
        return [a.label() for a in self.indices]

    @property
    def max_order(self) -> int:
        return self.indices[-1].order if self.indices else 0


def _compositions_capped(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All dense tuples with given length, entry caps, and exact sum."""
    k = len(caps)

    def rec(pos: int, remaining: int, head: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if pos == k:
            if remaining == 0:
                yield head
            return
        if remaining > sum(caps[pos:]):
            return
        for v in range(min(caps[pos], remaining) + 1):
            yield from rec(pos + 1, remaining - v, head + (v,))

    yield from rec(0, total, ())


def enumerate_indices(spec: TruncationSpec) -> IndexSet:
    """Enumerate the index set described by ``spec`` in canonical order.

    Full: all indices with |a| <= p supported on the first k coordinates.
    First order sparse: additionally a_i <= r_i for every coordinate.
    Second order sparse: an index of total order j obeys a_i <= r^j_i.
    """
    dense: list[tuple[int, ...]] = []
    if isinstance(spec, FullTruncation):
        caps = [spec.p] * spec.k
        for total in range(spec.p + 1):
            dense.extend(_compositions_capped(total, caps))
    elif isinstance(spec, SparseFirstOrder):
        for total in range(spec.p + 1):
            dense.extend(_compositions_capped(total, spec.r))
    elif isinstance(spec, SparseSecondOrder):
        dense.append((0,) * spec.k)
        for j, row in enumerate(spec.rows, start=1):
            dense.extend(_compositions_capped(j, row))
    else:
        raise TypeError(f"not a truncation spec: {spec!r}")
    dense.sort(key=lambda a: (sum(a), a))
    return IndexSet(tuple(MultiIndex.from_dense(a) for a in dense), k=spec.k)


def count_indices(spec: TruncationSpec) -> int:
    """Number of indices in ``enumerate_indices(spec)``.

    Full truncations use the closed form binomial(k+p, p); sparse sets are
    counted by enumeration (no closed form, and k*p stays small).
    """
    if isinstance(spec, FullTruncation):
        return math.comb(spec.k + spec.p, spec.p)
    return len(enumerate_indices(spec))


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
