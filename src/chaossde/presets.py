"""Named sparse truncations and the benchmark experiment grid.

The 18 sparse presets sp1..sp18 pair with specific (k, p) choices in the
benchmark suite; they ship by name so the sparse experiment rows are
reproducible without retyping index vectors.  Presets sp12 and sp16 use
the third-order cap row (3,3,2,0,...,0); with that choice they enumerate
to exactly 32 and 36 coefficients, which is what pins the row down (the
(3,3,2,2,...) alternative would give 41 and 45).
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
    """One (k, p, truncation) configuration of the benchmark suite."""

    k: int
    p: int
    trunc_label: str  # "full" or a preset name

    @property
    def spec(self) -> TruncationSpec:
        if self.trunc_label == "full":
            return FullTruncation(p=self.p, k=self.k)
        return SPARSE_PRESETS[self.trunc_label]

    @property
    def n_coeff(self) -> int:
        return count_indices(self.spec)


BENCHMARK_ROWS: tuple[BenchmarkRow, ...] = (
    BenchmarkRow(2, 1, "full"),
    BenchmarkRow(4, 1, "full"),
    BenchmarkRow(8, 1, "full"),
    BenchmarkRow(16, 1, "full"),
    BenchmarkRow(32, 1, "full"),
    BenchmarkRow(64, 1, "full"),
    BenchmarkRow(2, 2, "full"),
    BenchmarkRow(4, 2, "full"),
    BenchmarkRow(8, 2, "full"),
    BenchmarkRow(8, 2, "sp1"),
    BenchmarkRow(8, 2, "sp2"),
    BenchmarkRow(16, 2, "full"),
    BenchmarkRow(16, 2, "sp3"),
    BenchmarkRow(16, 2, "sp4"),
    BenchmarkRow(32, 2, "full"),
    BenchmarkRow(32, 2, "sp5"),
    BenchmarkRow(32, 2, "sp6"),
    BenchmarkRow(64, 2, "full"),
    BenchmarkRow(2, 3, "full"),
    BenchmarkRow(4, 3, "full"),
    BenchmarkRow(8, 3, "full"),
    BenchmarkRow(8, 3, "sp7"),
    BenchmarkRow(8, 3, "sp8"),
    BenchmarkRow(16, 3, "full"),
    BenchmarkRow(16, 3, "sp9"),
    BenchmarkRow(16, 3, "sp10"),
    BenchmarkRow(2, 4, "full"),
    BenchmarkRow(4, 4, "full"),
    BenchmarkRow(8, 4, "full"),
    BenchmarkRow(8, 4, "sp11"),
    BenchmarkRow(8, 4, "sp12"),
    BenchmarkRow(16, 4, "full"),
    BenchmarkRow(16, 4, "sp13"),
    BenchmarkRow(32, 4, "sp14"),
    BenchmarkRow(2, 5, "full"),
    BenchmarkRow(4, 5, "full"),
    BenchmarkRow(8, 5, "full"),
    BenchmarkRow(8, 5, "sp15"),
    BenchmarkRow(8, 5, "sp16"),
    BenchmarkRow(16, 5, "full"),
    BenchmarkRow(16, 5, "sp17"),
    BenchmarkRow(32, 5, "sp18"),
)
