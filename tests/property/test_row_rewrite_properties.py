"""Row rewrites and stacked writes touch only the cells that can move.

A row rewrite (a Solver-2 row rescale, a global remap, a
``renormalize``) maps and diffs only the cells whose coefficient is
nonzero or whose programmed value is not the off-state value; every
other cell would be a skipped write.  These properties hold the sparse
rewrite to the full-row ``meshgrid`` rewrite it replaced, bitwise:
programmed and perturbed conductances, floored masks, scales, returned
and accumulated write reports, and the variation generator's state.

For the stack, every member's write report must equal
:func:`~repro.crossbar.programming.plan_write` over exactly that
member's changed cells, and a remap-heavy update sequence must keep
the fleet bitwise equal to serial operators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar.mapping import map_cells
from repro.crossbar.ops import AnalogMatrixOperator
from repro.crossbar.opstack import AnalogOperatorStack
from repro.crossbar.programming import WriteReport, plan_write
from repro.devices.variation import UniformVariation


class FullRowOperator(AnalogMatrixOperator):
    """The oracle: every cell of every rewritten row is mapped and diffed."""

    def _program_rows(self, rows):
        rows = np.asarray(rows, dtype=int)
        block, floored = map_cells(
            self._coefficients[rows, :],
            self._scales[rows, None],
            self.params,
            off_state=self.off_state,
        )
        self._floored[:, rows] = floored.T
        targets = block.T  # (n_in, len(rows))
        grid_in, grid_rows = np.meshgrid(
            np.arange(self.n_in), rows, indexing="ij"
        )
        return self.array._write_cells(
            grid_in.ravel(),
            grid_rows.ravel(),
            targets.ravel(),
            skip_unchanged=True,
        )


#: Coefficient magnitudes spanning zero, floored (below g_off / scale),
#: routine and window-outgrowing values, so sequences cross every
#: floored/unfloored, rescale and remap boundary.
MAGNITUDES = [0.0, 1e-9, 1e-4, 0.05, 0.3, 1.0, 4.0, 60.0, 2e3]


@st.composite
def sparse_matrices(draw, min_side=2, max_side=6):
    n_out = draw(st.integers(min_side, max_side))
    n_in = draw(st.integers(min_side, max_side))
    entries = draw(
        st.lists(
            st.sampled_from(MAGNITUDES[:6]),
            min_size=n_out * n_in,
            max_size=n_out * n_in,
        )
    )
    matrix = np.array(entries).reshape(n_out, n_in)
    if draw(st.booleans()):
        matrix[draw(st.integers(0, n_out - 1))] = 0.0  # a zero row
    return matrix


@st.composite
def update_sequences(draw, n_out, n_in, max_steps=8):
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        if draw(st.integers(0, 4)) == 0:
            steps.append(("renormalize",))
            continue
        count = draw(st.integers(1, n_out * n_in))
        flat = draw(
            st.lists(
                st.integers(0, n_out * n_in - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        values = draw(
            st.lists(
                st.sampled_from(MAGNITUDES), min_size=count, max_size=count
            )
        )
        steps.append(
            (
                "update",
                np.array(flat) // n_in,
                np.array(flat) % n_in,
                np.array(values),
                draw(st.booleans()),
            )
        )
    return steps


def operator_pair(matrix, seed, **kwargs):
    def build(cls):
        return cls(
            matrix,
            variation=UniformVariation(0.05),
            rng=np.random.default_rng(seed),
            **kwargs,
        )

    return build(AnalogMatrixOperator), build(FullRowOperator)


def assert_same_state(sparse, oracle):
    assert sparse.array._nominal.tobytes() == oracle.array._nominal.tobytes()
    assert sparse.array._actual.tobytes() == oracle.array._actual.tobytes()
    assert np.array_equal(sparse._floored, oracle._floored)
    assert sparse._scales.tobytes() == oracle._scales.tobytes()
    assert sparse.full_reprograms == oracle.full_reprograms
    assert sparse.write_report == oracle.write_report
    assert (
        sparse.rng.bit_generator.state == oracle.rng.bit_generator.state
    )


class TestSparseRowRewrite:
    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        matrix=sparse_matrices(),
        seed=st.integers(0, 2**16),
        off_state=st.sampled_from(["zero", "leak"]),
        row_scaling=st.booleans(),
        headroom=st.sampled_from([1.0, 2.0]),
    )
    def test_matches_full_row_rewrite(
        self, data, matrix, seed, off_state, row_scaling, headroom
    ):
        sparse, oracle = operator_pair(
            matrix,
            seed,
            off_state=off_state,
            row_scaling=row_scaling,
            scale_headroom=headroom,
        )
        assert_same_state(sparse, oracle)
        steps = data.draw(update_sequences(*matrix.shape))
        for step in steps:
            if step[0] == "renormalize":
                got, want = sparse.renormalize(), oracle.renormalize()
            else:
                _, rows, cols, values, floor = step
                got = sparse.update_coefficients(
                    rows, cols, values, floor_to_representable=floor
                )
                want = oracle.update_coefficients(
                    rows, cols, values, floor_to_representable=floor
                )
            assert got == want
            assert_same_state(sparse, oracle)

    @pytest.mark.parametrize("off_state", ["zero", "leak"])
    def test_all_zero_matrix(self, off_state):
        sparse, oracle = operator_pair(
            np.zeros((4, 5)), 3, off_state=off_state, row_scaling=True
        )
        assert_same_state(sparse, oracle)
        for op in (sparse, oracle):
            op.update_coefficients(
                np.array([0, 3]), np.array([4, 1]), np.array([2.0, 0.5])
            )
            op.update_coefficients(
                np.array([0, 3]), np.array([4, 1]), np.array([0.0, 0.0])
            )
            op.renormalize()
        assert_same_state(sparse, oracle)


def stack_members(matrices, seed, **kwargs):
    k = len(matrices)
    stack = AnalogOperatorStack(
        matrices,
        variation=UniformVariation(0.05),
        rngs=[np.random.default_rng(seed + member) for member in range(k)],
        **kwargs,
    )
    serial = [
        AnalogMatrixOperator(
            matrices[member],
            variation=UniformVariation(0.05),
            rng=np.random.default_rng(seed + member),
            **kwargs,
        )
        for member in range(k)
    ]
    return stack, serial


def assert_reports_plan_changed_cells(before, after, reports, params):
    for member, report in enumerate(reports):
        if report is None:
            continue
        changed = before[member] != after[member]
        if not changed.any():
            assert report == WriteReport(0, 0, 0.0, 0.0), member
            continue
        assert report == plan_write(
            before[member][changed].reshape(1, -1),
            after[member][changed].reshape(1, -1),
            params,
        ), member


class TestStackedWrites:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        side=st.integers(2, 5),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        off_state=st.sampled_from(["zero", "leak"]),
    )
    def test_reports_plan_each_members_changed_subset(
        self, data, side, k, seed, off_state
    ):
        gen = np.random.default_rng(seed)
        matrices = gen.choice(MAGNITUDES[:6], size=(k, side, side))
        stack, serial = stack_members(matrices, seed, off_state=off_state)
        for _ in range(data.draw(st.integers(1, 6))):
            before = stack.stack.nominal_stack
            if data.draw(st.integers(0, 4)) == 0:
                reports = stack.renormalize()
                for op in serial:
                    op.renormalize()
            else:
                count = data.draw(st.integers(1, side * side))
                flat = gen.choice(side * side, size=count, replace=False)
                values = gen.choice(MAGNITUDES, size=(k, count))
                floor = data.draw(st.booleans())
                reports = stack.update_coefficients(
                    flat // side, flat % side, values,
                    floor_to_representable=floor,
                )
                for member, op in enumerate(serial):
                    op.update_coefficients(
                        flat // side, flat % side, values[member],
                        floor_to_representable=floor,
                    )
            assert_reports_plan_changed_cells(
                before, stack.stack.nominal_stack, reports, stack.params
            )
            for member, op in enumerate(serial):
                assert (
                    stack.stack._nominal[member].tobytes()
                    == op.array._nominal.tobytes()
                )
                assert (
                    stack.stack._actual[member].tobytes()
                    == op.array._actual.tobytes()
                )
                assert np.array_equal(stack._floored[member], op._floored)
                assert stack.scales[member] == op.scale
                assert stack.write_reports[member] == op.write_report
                assert (
                    stack.stack.rngs[member].bit_generator.state
                    == op.rng.bit_generator.state
                )

    def test_remap_heavy_parity(self):
        """Snug headroom: nearly every update remaps some member."""
        k, side = 4, 7
        gen = np.random.default_rng(11)
        matrices = gen.uniform(0.0, 1.0, size=(k, side, side))
        matrices[matrices < 0.6] = 0.0  # sparse, like the Newton system
        matrices += np.eye(side)
        stack, serial = stack_members(matrices, 40, scale_headroom=1.0)
        diag = np.arange(side)
        remaps = 0
        for step in range(12):
            values = gen.uniform(0.5, 1.0, size=(k, side)) * 1.6 ** step
            members = np.flatnonzero(gen.random(k) < 0.75)
            before = stack.full_reprograms.sum()
            stack.update_coefficients(
                diag, diag, values[members],
                floor_to_representable=True, members=members,
            )
            remaps += stack.full_reprograms.sum() - before
            for member in members:
                serial[member].update_coefficients(
                    diag, diag, values[member], floor_to_representable=True
                )
            x = gen.uniform(-1.0, 1.0, size=(members.size, side))
            got = stack.multiply(x, members=members)
            solved, errors = stack.try_solve(x, members=members)
            for pos, member in enumerate(members):
                op = serial[member]
                assert got[pos].tobytes() == op.multiply(x[pos]).tobytes()
                assert errors[pos] is None
                assert solved[pos].tobytes() == op.solve(x[pos]).tobytes()
        assert remaps >= 10
        for member, op in enumerate(serial):
            assert stack.write_reports[member] == op.write_report
            assert stack.full_reprograms[member] == op.full_reprograms
            assert (
                stack.stack.rngs[member].bit_generator.state
                == op.rng.bit_generator.state
            )
