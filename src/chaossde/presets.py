"""Named sparse truncations and the benchmark experiment grid.

The 18 sparse presets sp1..sp18 ship by name so the sparse experiment rows
are reproducible without retyping index vectors.  Each preset's k and p are
its own caps' length and order, written nowhere else: BENCHMARK_ROWS is the
full sets of the benchmark grid plus every preset, sorted by (p, k).

Presets sp12 and sp16 use the third-order cap row (3,3,2,0,...,0); with that
choice they enumerate to exactly 32 and 36 coefficients, which is what pins
the row down (the (3,3,2,2,...) alternative would give 41 and 45).
"""
from __future__ import annotations

from dataclasses import dataclass

from .multiindex import (FullTruncation, SparseFirstOrder, SparseSecondOrder,
                         TruncationSpec, count_indices)


def _ones(k: int) -> tuple[int, ...]:
    return (1,) * k


def _pad(values: tuple[int, ...], k: int) -> tuple[int, ...]:
    return values + (0,) * (k - len(values))


SPARSE_PRESETS: dict[str, TruncationSpec] = {
    "sp1": SparseFirstOrder((2, 2, 2, 2, 1, 1, 1, 1)),
    "sp2": SparseSecondOrder((_ones(8), _pad((2, 2, 2, 2), 8))),
    "sp3": SparseFirstOrder((2, 2, 2, 2) + _ones(12)),
    "sp4": SparseSecondOrder((_ones(16), _pad((2, 2, 2, 2), 16))),
    "sp5": SparseFirstOrder((2,) * 8 + _ones(24)),
    "sp6": SparseSecondOrder((_ones(32), _pad((2,) * 8, 32))),
    "sp7": SparseFirstOrder((3, 3, 2, 2, 1, 1, 1, 1)),
    "sp8": SparseSecondOrder((_ones(8), _pad((2, 2, 2, 2), 8),
                              _pad((3, 3, 2, 2), 8))),
    "sp9": SparseFirstOrder((3, 3, 2, 2) + _ones(12)),
    "sp10": SparseSecondOrder((_ones(16), _pad((2, 2, 2, 2), 16),
                               _pad((3, 3, 2, 2), 16))),
    "sp11": SparseFirstOrder((4, 4, 2, 2, 1, 1, 1, 1)),
    "sp12": SparseSecondOrder((_ones(8), _pad((2, 2, 2, 2), 8),
                               _pad((3, 3, 2), 8), _pad((4, 3), 8))),
    "sp13": SparseSecondOrder((_ones(16), _pad((2, 2, 2, 2), 16),
                               _pad((3, 3, 2), 16), _pad((4, 3), 16))),
    "sp14": SparseSecondOrder((_ones(32), _pad((2,) * 8, 32),
                               _pad((3, 3, 2, 2), 32), _pad((4, 4), 32))),
    "sp15": SparseFirstOrder((5, 5, 2, 2, 1, 1, 1, 1)),
    "sp16": SparseSecondOrder((_ones(8), _pad((2, 2, 2, 2), 8),
                               _pad((3, 3, 2), 8), _pad((4, 3), 8),
                               _pad((5, 3), 8))),
    "sp17": SparseSecondOrder((_ones(16), _pad((2, 2, 2, 2), 16),
                               _pad((3, 3, 2), 16), _pad((4, 3), 16),
                               _pad((5, 3), 16))),
    "sp18": SparseSecondOrder((_ones(32), _pad((2,) * 8, 32),
                               _pad((3, 3, 2, 2), 32), _pad((4, 4), 32),
                               _pad((5, 5), 32))),
}


@dataclass(frozen=True)
class BenchmarkRow:
    """One truncation of the benchmark suite; its k and p are the spec's."""

    trunc_label: str  # "full" or a preset name
    spec: TruncationSpec

    k = property(lambda self: self.spec.k)
    p = property(lambda self: self.spec.p)

    @property
    def n_coeff(self) -> int:
        return count_indices(self.spec)


# The full sets at k = 2..64 for p = 1, 2 and k = 2..16 for p = 3..5, and every
# preset, sorted by (p, k); the stable sort puts each full set before the
# presets of its (k, p), and those in SPARSE_PRESETS order.
BENCHMARK_ROWS: tuple[BenchmarkRow, ...] = tuple(sorted(
    [BenchmarkRow("full", FullTruncation(p=p, k=2 ** e))
     for p in range(1, 6) for e in range(1, 7 if p <= 2 else 5)]
    + [BenchmarkRow(name, spec) for name, spec in SPARSE_PRESETS.items()],
    key=lambda row: (row.p, row.k)))
