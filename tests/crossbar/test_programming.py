"""Tests for the write-pulse programming model."""

import numpy as np
import pytest

from repro.crossbar import CrossbarArray, WriteReport, plan_write
from repro.crossbar.programming import HALF_SELECT_ENERGY_FRACTION
from repro.devices import HP_TIO2


class TestPlanWrite:
    def test_blank_array_write(self):
        targets = np.full((4, 4), HP_TIO2.g_on)
        report = plan_write(None, targets, HP_TIO2)
        assert report.cells_written == 16
        assert report.pulses == 16 * HP_TIO2.write_pulses_full_swing
        assert report.latency_s == pytest.approx(
            report.pulses * HP_TIO2.write_pulse_width
        )

    def test_no_change_no_cost(self, rng):
        state = rng.uniform(HP_TIO2.g_off, HP_TIO2.g_on, size=(5, 5))
        report = plan_write(state, state.copy(), HP_TIO2)
        assert report.cells_written == 0
        assert report.pulses == 0
        assert report.latency_s == 0.0
        assert report.energy_j == 0.0

    def test_partial_update_only_charges_changed_cells(self, rng):
        old = np.full((4, 4), HP_TIO2.g_off)
        new = old.copy()
        new[1, 2] = HP_TIO2.g_on
        report = plan_write(old, new, HP_TIO2)
        assert report.cells_written == 1

    def test_tolerance_deadband_skips_small_changes(self):
        old = np.full((2, 2), HP_TIO2.g_on * 0.5)
        new = old * 1.0001
        strict = plan_write(old, new, HP_TIO2, tolerance=0.0)
        lenient = plan_write(old, new, HP_TIO2, tolerance=0.01)
        assert lenient.cells_written == 0
        assert lenient.cells_written <= strict.cells_written

    def test_energy_includes_half_select_overhead(self):
        small = plan_write(
            None, np.full((2, 2), HP_TIO2.g_on), HP_TIO2
        )
        large = plan_write(
            None, np.full((16, 16), HP_TIO2.g_on), HP_TIO2
        )
        # Per-pulse energy grows with the number of half-selected lines.
        per_pulse_small = small.energy_j / small.pulses
        per_pulse_large = large.energy_j / large.pulses
        assert per_pulse_large > per_pulse_small

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            plan_write(np.zeros((2, 2)), np.zeros((3, 3)), HP_TIO2)


class TestWriteReport:
    def test_addition(self):
        a = WriteReport(1, 10, 1e-6, 2e-12)
        b = WriteReport(2, 20, 3e-6, 4e-12)
        total = a + b
        assert total.cells_written == 3
        assert total.pulses == 30
        assert total.latency_s == pytest.approx(4e-6)
        assert total.energy_j == pytest.approx(6e-12)


class TestHalfSelectGeometry:
    """Half-select energy of a cell write, as the array's geometry sets it.

    A write pulse disturbs the other devices on the selected word- and
    bit-line: ``(n_rows - 1) + (n_cols - 1)`` of them on an
    ``n_rows x n_cols`` array, whatever the batch.  Cell writes plan
    their changed subset as a ``(1, k)`` batch, so the priced count is
    ``k - 1`` instead — 1·E per pulse for one cell, 16.75·E for 64,
    64·E only for a full-grid ``program()``.  Correcting it moves the
    modeled write energy of every benchmark workload, so it is pinned
    here as a known defect for a change of its own.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="cell writes price half-select from the batch shape",
    )
    def test_cell_write_prices_geometric_half_select(self):
        n = 127
        array = CrossbarArray(n, n, params=HP_TIO2)
        report = array.program_cells(
            np.array([3]), np.array([5]), np.array([HP_TIO2.g_on])
        )
        assert report.pulses > 0
        per_pulse = report.energy_j / report.pulses
        expected = HP_TIO2.write_energy_per_pulse * (
            1.0 + HALF_SELECT_ENERGY_FRACTION * ((n - 1) + (n - 1))
        )
        assert per_pulse == pytest.approx(expected, rel=1e-12)
