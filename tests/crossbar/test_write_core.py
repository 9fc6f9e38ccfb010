"""Range validation through every writer of the one cell-write core.

``CrossbarArray.program_cells`` validates its inputs and hands them to
the write core; the operator's internal writers call the core
directly.  Whichever way a bad conductance target arrives, it must
raise :class:`MappingError` with the same message, before any cell
changes.
"""

import numpy as np
import pytest

from repro.crossbar import AnalogMatrixOperator, CrossbarArray
from repro.crossbar.opstack import AnalogOperatorStack
from repro.devices import HP_TIO2
from repro.exceptions import MappingError

G_ON = HP_TIO2.g_on

#: (bad target, the message it must raise with)
BAD_TARGETS = [
    (2.0 * G_ON, f"target {2.0 * G_ON:.3e} above device g_on {G_ON:.3e}"),
    (-1e-6, f"target {-1e-6:.3e} is negative; memristance cannot be "
            "negative"),
    (np.nan, "conductance targets must be finite"),
    (np.inf, "conductance targets must be finite"),
]


def programmed(n=4):
    array = CrossbarArray(n, n, params=HP_TIO2,
                          rng=np.random.default_rng(0))
    array.program(np.full((n, n), 0.5 * G_ON))
    return array


@pytest.mark.parametrize("target,message", BAD_TARGETS)
class TestArrayWriters:
    def test_program(self, target, message):
        array = programmed()
        grid = np.full((4, 4), 0.25 * G_ON)
        grid[1, 2] = target
        with pytest.raises(MappingError) as info:
            array.program(grid)
        assert str(info.value) == message
        assert np.all(array.nominal_conductances == 0.5 * G_ON)

    @pytest.mark.parametrize("skip", [False, True])
    def test_program_cells(self, target, message, skip):
        array = programmed()
        before = array.total_write_report
        with pytest.raises(MappingError) as info:
            array.program_cells(
                np.array([0, 1, 2]),
                np.array([0, 1, 2]),
                np.array([0.25 * G_ON, target, 0.5 * G_ON]),
                skip_unchanged=skip,
            )
        assert str(info.value) == message
        assert np.all(array.nominal_conductances == 0.5 * G_ON)
        assert array.total_write_report == before


class TestOperatorWriters:
    """Non-finite coefficients reach the core as non-finite targets."""

    @pytest.mark.parametrize("row_scaling", [False, True])
    def test_update_coefficients(self, row_scaling):
        operator = AnalogMatrixOperator(
            np.eye(4) + 0.5,
            rng=np.random.default_rng(1),
            row_scaling=row_scaling,
            scale_headroom=2.0,
        )
        nominal = operator.array.nominal_conductances
        with pytest.raises(MappingError) as info:
            operator.update_coefficients(
                np.array([0, 1]), np.array([0, 1]), np.array([1.0, np.nan])
            )
        assert str(info.value) == "conductance targets must be finite"
        assert np.array_equal(operator.array.nominal_conductances, nominal)

    def test_row_reprogram(self):
        operator = AnalogMatrixOperator(
            np.eye(4) + 0.5, rng=np.random.default_rng(1)
        )
        operator._coefficients[2, 3] = np.nan
        with pytest.raises(MappingError) as info:
            operator._program_rows(np.array([2]))
        assert str(info.value) == "conductance targets must be finite"

    def test_negative_coefficient_rejected_before_the_core(self):
        operator = AnalogMatrixOperator(
            np.eye(4) + 0.5, rng=np.random.default_rng(1)
        )
        with pytest.raises(MappingError, match="non-negative"):
            operator.update_coefficients(
                np.array([0]), np.array([0]), np.array([-1.0])
            )


class TestIndexValidation:
    """Serial and stacked operators reject the same bad coordinates.

    A negative index is a caller bug, not a numpy wrap-around onto the
    last row or column; neither operator may change a coefficient or a
    cell before raising.
    """

    BAD = [
        ([-1], [-1], "row index out of range"),
        ([-1], [0], "row index out of range"),
        ([4], [0], "row index out of range"),
        ([0], [-1], "column index out of range"),
        ([0], [4], "column index out of range"),
        ([0, 1, 2], [1, 4, 0], "column index out of range"),
    ]

    @staticmethod
    def operators(row_scaling):
        matrix = np.eye(4) + 0.5
        serial = AnalogMatrixOperator(
            matrix, rng=np.random.default_rng(1), row_scaling=row_scaling
        )
        stack = AnalogOperatorStack(
            np.stack([matrix, matrix]),
            rngs=[np.random.default_rng(1), np.random.default_rng(2)],
        )
        return serial, stack

    @pytest.mark.parametrize("rows,cols,message", BAD)
    @pytest.mark.parametrize("row_scaling", [False, True])
    def test_serial_operator(self, rows, cols, message, row_scaling):
        serial, _ = self.operators(row_scaling)
        coefficients = serial.coefficients
        nominal = serial.array.nominal_conductances
        with pytest.raises(IndexError, match=message):
            serial.update_coefficients(
                np.array(rows), np.array(cols), np.full(len(rows), 3.0)
            )
        assert np.array_equal(serial.coefficients, coefficients)
        assert np.array_equal(serial.array.nominal_conductances, nominal)

    @pytest.mark.parametrize("rows,cols,message", BAD)
    def test_stacked_operator(self, rows, cols, message):
        _, stack = self.operators(False)
        coefficients = stack.coefficients
        nominal = stack.stack.nominal_stack
        with pytest.raises(IndexError, match=message):
            stack.update_coefficients(
                np.array(rows), np.array(cols), np.full(len(rows), 3.0)
            )
        assert np.array_equal(stack.coefficients, coefficients)
        assert np.array_equal(stack.stack.nominal_stack, nominal)

    def test_in_range_updates_agree(self):
        serial, stack = self.operators(False)
        rows, cols = np.array([3, 0]), np.array([3, 2])
        serial.update_coefficients(rows, cols, np.array([2.0, 0.25]))
        stack.update_coefficients(
            rows, cols, np.array([2.0, 0.25]), members=[0]
        )
        assert np.array_equal(serial.coefficients, stack.coefficients[0])
        assert (
            serial.array.nominal_conductances.tobytes()
            == stack.stack.nominal_stack[0].tobytes()
        )
