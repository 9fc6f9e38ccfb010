"""The vectorized proportional-row rule against its scalar-loop oracle.

``_collapse_proportional_rows`` tests every live later row against a
representative in one numpy pass.  The arithmetic is the scalar loop's
— the same elementwise factor, budget and deviation, and a max
reduction is exact in any order — so the two must agree exactly: the
same surviving rows, the same reduction counts and the same
certificate text, on random matrices with planted proportional
families and ``u`` / ``-u`` contradictions.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import LinearProgram
from repro.presolve import pipeline, presolve


def scalar_collapse(A, b, row_alive, col_alive, counts):
    """The pair-loop form of the rule, kept as the oracle."""
    rows = np.flatnonzero(row_alive)
    cols = np.flatnonzero(col_alive)
    if rows.size < 2 or cols.size == 0:
        return False, None
    sub = A[np.ix_(rows, cols)]
    changed = False
    used = np.zeros(rows.size, dtype=bool)
    for p in range(rows.size):
        if used[p]:
            continue
        rep = sub[p]
        pivot = int(np.argmax(np.abs(rep)))
        peak = abs(rep[pivot])
        if peak == 0.0:
            continue
        members = [p]
        factors = [1.0]
        for q in range(p + 1, rows.size):
            if used[q]:
                continue
            factor = sub[q, pivot] / rep[pivot]
            if factor == 0.0:
                continue
            budget = pipeline._PROPORTIONAL_RTOL * peak * max(
                1.0, abs(factor)
            )
            if np.max(np.abs(sub[q] - factor * rep)) <= budget:
                members.append(q)
                factors.append(factor)
        if len(members) == 1:
            continue
        used[members] = True
        uppers = [
            (b[rows[g]] / t, g) for g, t in zip(members, factors) if t > 0.0
        ]
        lowers = [
            (b[rows[g]] / t, g) for g, t in zip(members, factors) if t < 0.0
        ]
        keep = set()
        upper = lower = None
        if uppers:
            upper = min(uppers, key=lambda v: (v[0], rows[v[1]]))
            keep.add(upper[1])
        if lowers:
            lower = max(lowers, key=lambda v: (v[0], -rows[v[1]]))
            keep.add(lower[1])
        if upper is not None and lower is not None and lower[0] > upper[0]:
            return changed, (
                f"rows {rows[lower[1]]} and {rows[upper[1]]} are "
                f"proportional with an empty bound interval "
                f"({lower[0]:.6g} > {upper[0]:.6g})"
            )
        for g in members:
            if g not in keep:
                row_alive[rows[g]] = False
                counts.duplicate_rows += 1
                changed = True
    return changed, None


FACTORS = (-4.0, -2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 3.0, 1.0 + 1e-13)


@st.composite
def planted_systems(draw):
    """A random ``(A, b, row_alive, col_alive)`` with planted families."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 6))
    # Small integer entries make exact multiples and zero pivots common.
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    A[rng.random((m, n)) < 0.3] = 0.0
    b = rng.integers(-4, 5, size=m).astype(float)
    for i in range(1, m):
        kind = rng.random()
        source = int(rng.integers(0, i))
        if kind < 0.35:
            # A proportional member of an earlier row's family.
            factor = FACTORS[int(rng.integers(len(FACTORS)))]
            A[i] = factor * A[source]
            b[i] = factor * b[source] + rng.integers(-2, 3)
        elif kind < 0.5:
            # The planted u / -u contradiction (or a consistent pair).
            A[i] = -A[source]
            b[i] = -b[source] - rng.integers(-1, 3)
        elif kind < 0.55:
            A[i] = 0.0
    row_alive = rng.random(m) < 0.9
    col_alive = rng.random(n) < 0.9
    return A, b, row_alive, col_alive


@settings(max_examples=300, deadline=None)
@given(planted_systems())
def test_vectorized_rule_matches_scalar_loop(system):
    A, b, row_alive, col_alive = system
    expected_alive = row_alive.copy()
    expected_counts = pipeline._Counts()
    expected = scalar_collapse(
        A, b, expected_alive, col_alive.copy(), expected_counts
    )
    alive = row_alive.copy()
    counts = pipeline._Counts()
    got = pipeline._collapse_proportional_rows(
        A, b, alive, col_alive.copy(), counts
    )
    assert got == expected
    np.testing.assert_array_equal(alive, expected_alive)
    assert vars(counts) == vars(expected_counts)


@settings(max_examples=150, deadline=None)
@given(planted_systems(), st.sampled_from(["none", "ruiz"]))
def test_presolve_report_matches_scalar_loop(system, scaling):
    A, b, _, _ = system
    c = np.linspace(-1.0, 1.0, A.shape[1])
    problem = LinearProgram(c=c, A=A, b=b)
    got = presolve(problem, scaling=scaling)
    with mock.patch.object(
        pipeline, "_collapse_proportional_rows", scalar_collapse
    ):
        expected = presolve(problem, scaling=scaling)
    assert got.report == expected.report
    assert got.report.detail == expected.report.detail
    np.testing.assert_array_equal(got.row_index, expected.row_index)
    np.testing.assert_array_equal(got.col_index, expected.col_index)


def test_planted_contradiction_certificate_text():
    A = np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, 4.0]])
    b = np.array([1.0, -3.0, 5.0])
    alive = np.ones(3, dtype=bool)
    counts = pipeline._Counts()
    changed, detail = pipeline._collapse_proportional_rows(
        A, b, alive, np.ones(2, dtype=bool), counts
    )
    assert not changed
    assert detail == (
        "rows 1 and 0 are proportional with an empty bound interval "
        "(3 > 1)"
    )
