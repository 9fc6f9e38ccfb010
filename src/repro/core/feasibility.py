"""Infeasibility and unboundedness detection.

Section 3.1: "It is proven that unbound dual indicates primal being
infeasible and vice versa, therefore, constraints are infeasible if the
element with the largest absolute value in x, y is greater than a
certain enough large number" — the classic big-M divergence test,
applied every iteration.

Section 3.2 adds the variation-tolerant final check: accept a solution
when ``A x <= alpha b`` with ``alpha`` slightly above 1 (implemented on
:class:`~repro.core.problem.LinearProgram`).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.problem import LinearProgram


class DivergenceKind(enum.Enum):
    """Which iterate diverged, and what that certifies."""

    NONE = "none"
    #: ``y`` diverged — the dual is unbounded, so the primal is infeasible.
    PRIMAL_INFEASIBLE = "primal_infeasible"
    #: ``x`` diverged — the primal is unbounded, so the dual is infeasible.
    DUAL_INFEASIBLE = "dual_infeasible"


def scaled_big_m(problem: LinearProgram, big_m: float) -> float:
    """The divergence bound scaled to the problem's data magnitude."""
    data_scale = max(
        1.0,
        float(np.abs(problem.b).max(initial=0.0)),
        float(np.abs(problem.c).max(initial=0.0)),
    )
    return big_m * data_scale

def collapse_threshold(
    problem: LinearProgram,
    resistance_ratio: float,
    scale_headroom: float,
) -> float:
    """Iterate magnitude at which the conductance mapping collapses.

    The fast mapping scales the largest coefficient to ``g_on``; once
    the diverging iterates dominate the coefficient range, the
    *structural* entries (the identity blocks, the rows of A) fall
    below ``g_off / scale`` and truncate to the off state, making the
    programmed system singular.  That happens when the iterate peak
    exceeds roughly ``(r_off / r_on) / headroom`` times the structural
    coefficient magnitude.  A solve failure with iterates beyond a
    quarter of this point is classified as the big-M divergence
    certificate reached through hardware (primal infeasible /
    unbounded), rather than a plain numerical failure.
    """
    structural = max(1.0, float(np.abs(problem.A).max(initial=0.0)))
    return 0.25 * (resistance_ratio / scale_headroom) * structural


def detect_divergence(
    x: np.ndarray,
    y: np.ndarray,
    bound: float,
) -> DivergenceKind:
    """Big-M test on the current iterates.

    Parameters
    ----------
    x, y:
        Current primal and dual iterates.
    bound:
        Pre-scaled divergence bound (see :func:`scaled_big_m`).
    """
    x_max = float(np.abs(x).max(initial=0.0))
    y_max = float(np.abs(y).max(initial=0.0))
    if not np.isfinite(x_max) or x_max > bound:
        return DivergenceKind.DUAL_INFEASIBLE
    if not np.isfinite(y_max) or y_max > bound:
        return DivergenceKind.PRIMAL_INFEASIBLE
    return DivergenceKind.NONE
