"""The Haar right-hand side's per-cell ladder against the full ladder.

On a Haar basis the right-hand side sums the ladder over only the entries
whose element is non-zero in the finest dyadic cell of ``t``, built when the
cell changes.  For finite states the skipped contributions are exact zeros,
so every derivative must equal the full ladder's (``old_rhs``) bit for bit:
in every cell, at each breakpoint and one ulp to the left of it, whatever
order the cells are visited in.  A diffusion without a finite sum takes
the full ladder itself.  The cell index itself must agree with the
breakpoints at any horizon.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_index_arrays import ladder_js, specs
from test_solver_bytes import MODELS, old_rhs

from chaossde.basis import BasisSpec, breakpoints, element_values, haar_cell
from chaossde.integrator import ToleranceSpec, integrate
from chaossde.multiindex import FullTruncation, enumerate_indices
from chaossde.propagator import SdeModel, build_rhs, initial_state

HAAR = [BasisSpec("haar", horizon) for horizon in (1.0, 2.0)]
# sizes that keep the quadratic models' Galerkin tensors small
SETS = (specs(max_p=3, max_k=9, closed=True) | specs(max_p=2, max_k=24, closed=True)
        | specs(max_p=1, max_k=64, closed=True))


def cell_times(basis, k):
    """0, T, one ulp left of T, and each breakpoint and one ulp left of it."""
    T = basis.horizon
    bps = breakpoints(basis, k).tolist()
    return [0.0, T, math.nextafter(T, 0.0), *bps, *(math.nextafter(b, 0.0) for b in bps)]


def active_entries(system, t):
    """Positions of the ladder entries whose element is non-zero at ``t``."""
    return np.flatnonzero(element_values(system.basis, system.k, t)[ladder_js(system)])


def held_bytes(system):
    values = [*vars(system).values(), *system._cell_ladder]
    return sum(value.nbytes for value in values if isinstance(value, np.ndarray))


class TestCellPath:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(MODELS)), st.sampled_from(HAAR), SETS, st.data())
    def test_matches_the_full_ladder(self, model, basis, spec, data):
        index_set = enumerate_indices(spec)
        system = build_rhs(MODELS[model], index_set, basis)
        free = data.draw(st.lists(st.floats(0.0, basis.horizon), max_size=10))
        ts = data.draw(st.permutations(cell_times(basis, index_set.k) + free))
        values = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0])
        y = np.array(data.draw(st.lists(values, min_size=len(index_set),
                                        max_size=len(index_set))))
        for t in ts:
            assert system(t, y).tobytes() == old_rhs(system)(t, y).tobytes()
        # k = 1 has no breakpoints: e_1 is constant and the full ladder is used
        bps = breakpoints(basis, index_set.k).tolist()
        assert system._cell_ladder[0] == (haar_cell(basis, bps, ts[-1]) if bps else -1)

    def test_touches_the_entries_with_a_nonzero_element(self):
        index_set = enumerate_indices(FullTruncation(p=2, k=16))
        for basis in HAAR:
            system = build_rhs(MODELS["gbm"], index_set, basis)
            y = np.ones(len(index_set))
            cells = len(breakpoints(basis, index_set.k)) + 1
            for cell in range(cells):
                t = basis.horizon * cell / cells
                system(t, y)
                keep = active_entries(system, t)
                held, rows, srcs, products = system._cell_ladder
                assert held == cell
                assert rows.tolist() == system.ladder_rows[keep].tolist()
                assert srcs.tolist() == system.ladder_srcs[keep].tolist()
                assert products.tobytes() == (
                    system.ladder_weights[keep]
                    * element_values(basis, 16, t)[ladder_js(system)[keep]]).tobytes()
                # e_1 and one element on each of the 4 levels
                assert len(np.unique(ladder_js(system)[keep])) == 1 + 4

    def test_a_solve_leaves_one_cell(self):
        index_set = enumerate_indices(FullTruncation(p=2, k=8))
        basis = HAAR[1]
        fresh = build_rhs(MODELS["gbm"], index_set, basis)
        system = build_rhs(MODELS["gbm"], index_set, basis)
        integrate(system, initial_state(MODELS["gbm"], index_set),
                  np.linspace(0.0, basis.horizon, 33), ToleranceSpec(),
                  breakpoints(basis, index_set.k))
        cell, *arrays = system._cell_ladder
        assert cell == len(breakpoints(basis, index_set.k))
        last = len(active_entries(system, basis.horizon))
        assert [len(array) for array in arrays] == [last] * 3
        # beyond the assembly, the solve left only the last cell's arrays
        assert vars(system).keys() == vars(fresh).keys()
        assert held_bytes(system) - held_bytes(fresh) == sum(a.nbytes for a in arrays)


class TestFullLadder:
    @pytest.mark.parametrize("value", ["overflow", math.inf, -math.inf, math.nan])
    def test_runs_unless_sigma_has_a_finite_sum(self, value):
        # sigma = y: 45 finite terms of 1e308 overflow their sum, the others are not finite
        index_set = enumerate_indices(FullTruncation(p=2, k=8))
        system = build_rhs(SdeModel.gbm(1.0, 1.0, 1.0), index_set, HAAR[0])
        y = np.full(len(index_set), 1e308) if value == "overflow" else np.ones(len(index_set))
        if value != "overflow":
            y[4] = value
        for t in cell_times(HAAR[0], index_set.k):
            with np.errstate(over="ignore", invalid="ignore"):  # as integrate calls it
                assert system(t, y).tobytes() == old_rhs(system)(t, y).tobytes()
        assert system._cell_ladder[0] == -1  # no cell ladder was built


class TestCellIndex:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
           st.integers(2, 1024))
    def test_each_breakpoint_opens_the_cell_on_its_right(self, horizon, k):
        # breakpoints() rounds T i / cells, and t / T can round across i / cells
        # when T is not a power of two
        basis = BasisSpec("haar", horizon)
        bps = breakpoints(basis, k).tolist()
        cells = len(bps) + 1
        assert cells == 2 ** math.ceil(math.log2(k))
        for i, b in enumerate(bps, start=1):
            assert haar_cell(basis, bps, b) == i
            assert haar_cell(basis, bps, math.nextafter(b, 0.0)) == i - 1
        assert haar_cell(basis, bps, 0.0) == 0
        assert haar_cell(basis, bps, horizon) == cells - 1
