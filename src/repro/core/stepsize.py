"""Step-length policies.

Solver 1 uses the damped ratio test of Eqn. 11,

.. math::

   \\theta = r \\cdot \\min\\Bigl(\\max_{i,j}\\bigl(-\\tfrac{\\Delta x_j}{x_j},
   -\\tfrac{\\Delta y_i}{y_i}, -\\tfrac{\\Delta w_j}{w_j},
   -\\tfrac{\\Delta z_j}{z_j}\\bigr)^{-1}, 1\\Bigr)

which keeps every primal/dual variable strictly positive (``r`` is
"less than but close to 1").  Solver 2 uses a constant step length,
which the paper found necessary for convergence of the split iteration
(Section 3.4) at the price of occasionally letting variables stray
negative.
"""

from __future__ import annotations

import numpy as np


def ratio_test_theta(
    state: np.ndarray,
    step: np.ndarray,
    *,
    step_scale: float = 0.99,
    ignore_below: float = 0.0,
) -> float:
    """Eqn. 11: the largest safe step, damped by ``step_scale``.

    Parameters
    ----------
    state:
        Concatenated positive variables ``[x, y, w, z]``.
    step:
        Concatenated step directions, same shape.
    step_scale:
        The damping factor ``r`` in (0, 1).
    ignore_below:
        Exclude variables at or below this magnitude from the ratio
        test.  Analog solvers clamp their iterates at a tiny positivity
        floor; a variable *pinned* at that floor with a noise-induced
        negative step would otherwise drive the global step length to
        zero permanently.  The clamp protects pinned variables, so they
        are excluded here.

    Returns
    -------
    float
        Step length in ``(0, step_scale]``.  If no participating
        component of the step points toward the boundary, the full
        (damped) unit step is taken.
    """
    state = np.asarray(state, dtype=float)
    step = np.asarray(step, dtype=float)
    if state.shape != step.shape:
        raise ValueError("state and step must have identical shapes")
    if not 0.0 < step_scale < 1.0:
        raise ValueError(f"step_scale must lie in (0, 1), got {step_scale}")
    if ignore_below < 0:
        raise ValueError("ignore_below must be non-negative")
    interior = state > ignore_below
    if not (state > 0).all():
        raise ValueError("ratio test requires strictly positive state")
    if not interior.any():
        return step_scale
    ratios = -step[interior] / state[interior]
    max_ratio = float(ratios.max(initial=0.0))
    if max_ratio <= 0.0:
        return step_scale
    return step_scale * min(1.0 / max_ratio, 1.0)


def constant_theta(theta: float) -> float:
    """Solver 2's policy: a fixed step length, validated once."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    return theta
