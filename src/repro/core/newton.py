"""Newton-step system assembly for the PDIP method.

Two forms are built here:

1. The *signed* 2(n+m) system of Eqn. 12 — used by the software
   reference solver and as ground truth in tests:

   .. math::

      \\begin{bmatrix}
        A & 0 & I & 0 \\\\
        0 & A^T & 0 & -I \\\\
        Z & 0 & 0 & X \\\\
        0 & W & Y & 0
      \\end{bmatrix}
      \\begin{bmatrix}\\Delta x\\\\ \\Delta y\\\\ \\Delta w\\\\
        \\Delta z\\end{bmatrix}
      =
      \\begin{bmatrix}
        b - Ax - w \\\\ c - A^T y + z \\\\ \\mu - XZe \\\\ \\mu - YWe
      \\end{bmatrix}

2. The *augmented non-negative* system of Eqn. 14a — what Solver 1
   actually programs into the crossbar.  Besides the compensation
   variables ``Δp`` for negative entries of A and Aᵀ, the paper
   introduces ``Δv = -Δz`` (removing the ``-I`` block) and
   ``Δu = -Δw`` (keeping the construction symmetric), with linking rows
   ``Δw + Δu = 0``, ``Δz + Δv = 0``, and ``E_x Δx + E_y Δy + Δp = 0``.

:class:`AugmentedNewtonSystem` owns all index bookkeeping: which cells
change between iterations (the O(N) update set), how the current state
is packed into the multiply input of the Eqn. 15b residual trick, and
how step directions are unpacked from the crossbar solution.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.problem import LinearProgram


def newton_matrix(
    problem: LinearProgram,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    z: np.ndarray,
) -> np.ndarray:
    """The signed Eqn. 12 matrix, size ``2(n+m)``."""
    A = problem.A
    m, n = A.shape
    size = 2 * (n + m)
    M = np.zeros((size, size))
    # Column offsets: x:[0,n) y:[n,n+m) w:[n+m,n+2m) z:[n+2m,2n+2m).
    ox, oy, ow, oz = 0, n, n + m, n + 2 * m
    # Row offsets: primal m, dual n, xz n, yw m.
    rp, rd, rxz, ryw = 0, m, m + n, m + 2 * n
    M[rp:rp + m, ox:ox + n] = A
    M[rp:rp + m, ow:ow + m] = np.eye(m)
    M[rd:rd + n, oy:oy + m] = A.T
    M[rd:rd + n, oz:oz + n] = -np.eye(n)
    M[rxz:rxz + n, ox:ox + n] = np.diag(z)
    M[rxz:rxz + n, oz:oz + n] = np.diag(x)
    M[ryw:ryw + m, oy:oy + m] = np.diag(w)
    M[ryw:ryw + m, ow:ow + m] = np.diag(y)
    return M


def newton_rhs(
    problem: LinearProgram,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    z: np.ndarray,
    mu: float,
) -> np.ndarray:
    """The signed Eqn. 12 right-hand side."""
    A = problem.A
    m, n = A.shape
    return np.concatenate(
        [
            problem.b - A @ x - w,
            problem.c - A.T @ y + z,
            mu * np.ones(n) - x * z,
            mu * np.ones(m) - y * w,
        ]
    )


class NewtonSystem:
    """Reusable workspace for the signed Eqn. 12 system.

    :func:`newton_matrix` / :func:`newton_rhs` rebuild the full
    ``2(n+m)`` system from zeros every iteration — O(N²) fill for a
    matrix whose A / Aᵀ / ±I blocks never change.  This workspace
    allocates M and r once, writes the static blocks once, and per
    iteration touches only the four diagonal blocks (2(n+m) cells) and
    the right-hand side — the digital mirror of the crossbar's O(N)
    differential programming.

    The in-place update is *bitwise identical* to the from-scratch
    builders (asserted by ``tests/property``): callers get the same
    floats, just without the redundant refill.

    The returned arrays are views of the internal buffers: they are
    valid until the next :meth:`matrix` / :meth:`rhs` call.  Pass
    ``copy=True`` to detach.
    """

    def __init__(self, problem: LinearProgram) -> None:
        self.problem = problem
        A = problem.A
        m, n = A.shape
        self.m, self.n = m, n
        self.size = 2 * (n + m)
        ox, oy, ow, oz = 0, n, n + m, n + 2 * m
        rp, rd, rxz, ryw = 0, m, m + n, m + 2 * n
        M = np.zeros((self.size, self.size))
        M[rp:rp + m, ox:ox + n] = A
        M[rp:rp + m, ow:ow + m] = np.eye(m)
        M[rd:rd + n, oy:oy + m] = A.T
        M[rd:rd + n, oz:oz + n] = -np.eye(n)
        self._matrix = M
        self._rhs = np.empty(self.size)
        # Flat indices of the per-iteration cells: the Z, X, W, Y
        # diagonals inside the complementarity rows.
        idx_n = np.arange(n)
        idx_m = np.arange(m)
        rows = np.concatenate(
            [rxz + idx_n, rxz + idx_n, ryw + idx_m, ryw + idx_m]
        )
        cols = np.concatenate(
            [ox + idx_n, oz + idx_n, oy + idx_m, ow + idx_m]
        )
        self._diag_flat = rows * self.size + cols
        self._rhs_slices = (
            slice(0, m),
            slice(m, m + n),
            slice(m + n, m + 2 * n),
            slice(m + 2 * n, self.size),
        )

    def matrix(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
        *,
        copy: bool = False,
    ) -> np.ndarray:
        """Update the four diagonal blocks in place and return M."""
        flat = self._matrix.reshape(-1)
        flat[self._diag_flat[: self.n]] = z
        flat[self._diag_flat[self.n:2 * self.n]] = x
        flat[self._diag_flat[2 * self.n:2 * self.n + self.m]] = w
        flat[self._diag_flat[2 * self.n + self.m:]] = y
        return self._matrix.copy() if copy else self._matrix

    def rhs(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
        mu: float,
        *,
        copy: bool = False,
    ) -> np.ndarray:
        """Fill the preallocated right-hand side and return it."""
        problem = self.problem
        A = problem.A
        s_p, s_d, s_xz, s_yw = self._rhs_slices
        r = self._rhs
        r[s_p] = problem.b - A @ x - w
        r[s_d] = problem.c - A.T @ y + z
        r[s_xz] = mu * np.ones(self.n) - x * z
        r[s_yw] = mu * np.ones(self.m) - y * w
        return r.copy() if copy else r


@dataclasses.dataclass(frozen=True)
class _Layout:
    """Row/column index layout of the augmented system."""

    n: int
    m: int
    k_x: int
    k_y: int

    # Column slices -------------------------------------------------------
    @property
    def col_x(self) -> slice:
        return slice(0, self.n)

    @property
    def col_y(self) -> slice:
        return slice(self.n, self.n + self.m)

    @property
    def col_w(self) -> slice:
        return slice(self.n + self.m, self.n + 2 * self.m)

    @property
    def col_z(self) -> slice:
        return slice(self.n + 2 * self.m, 2 * self.n + 2 * self.m)

    @property
    def col_u(self) -> slice:
        return slice(2 * self.n + 2 * self.m, 2 * self.n + 3 * self.m)

    @property
    def col_v(self) -> slice:
        return slice(2 * self.n + 3 * self.m, 3 * self.n + 3 * self.m)

    @property
    def col_p(self) -> slice:
        base = 3 * self.n + 3 * self.m
        return slice(base, base + self.k_x + self.k_y)

    # Row slices ----------------------------------------------------------
    @property
    def row_primal(self) -> slice:
        return slice(0, self.m)

    @property
    def row_dual(self) -> slice:
        return slice(self.m, self.m + self.n)

    @property
    def row_xz(self) -> slice:
        return slice(self.m + self.n, self.m + 2 * self.n)

    @property
    def row_yw(self) -> slice:
        return slice(self.m + 2 * self.n, 2 * self.m + 2 * self.n)

    @property
    def row_ulink(self) -> slice:
        return slice(2 * self.m + 2 * self.n, 3 * self.m + 2 * self.n)

    @property
    def row_vlink(self) -> slice:
        return slice(3 * self.m + 2 * self.n, 3 * self.m + 3 * self.n)

    @property
    def row_plink(self) -> slice:
        base = 3 * self.m + 3 * self.n
        return slice(base, base + self.k_x + self.k_y)

    @property
    def size(self) -> int:
        return 3 * (self.n + self.m) + self.k_x + self.k_y


class AugmentedNewtonSystem:
    """Eqn. 14a: the non-negative Newton system Solver 1 programs.

    Built once per problem; per-iteration work touches only the
    diagonal X, Y, Z, W cells (:meth:`diagonal_update`), which is what
    makes the crossbar iteration O(N).

    Parameters
    ----------
    problem:
        The LP whose Newton systems will be assembled.  A and Aᵀ are
        scanned once for negative columns; those get compensation
        variables ``Δp`` (order: A's columns first, then Aᵀ's).
    """

    def __init__(self, problem: LinearProgram) -> None:
        self.problem = problem
        A = problem.A
        self.m, self.n = A.shape
        self._a_plus = np.maximum(A, 0.0)
        self._a_minus = np.maximum(-A, 0.0)
        self._at_plus = self._a_plus.T
        self._at_minus = self._a_minus.T
        self.neg_cols_a = tuple(
            int(j) for j in np.flatnonzero(np.any(A < 0, axis=0))
        )
        self.neg_cols_at = tuple(
            int(j) for j in np.flatnonzero(np.any(A.T < 0, axis=0))
        )
        self.k_x = len(self.neg_cols_a)
        self.k_y = len(self.neg_cols_at)
        self.layout = _Layout(n=self.n, m=self.m, k_x=self.k_x, k_y=self.k_y)
        # Iteration-invariant structure, cached once: the (rows, cols)
        # of the O(N) diagonal update set, the compensation-column
        # index arrays (depend only on sign(A)), and the rhs template
        # of Eqn. 15a with its mu-dependent rows marked.
        lay = self.layout
        idx_n = np.arange(self.n)
        idx_m = np.arange(self.m)
        self._diag_rows = np.concatenate(
            [
                lay.row_xz.start + idx_n,          # Z diagonal
                lay.row_xz.start + idx_n,          # X diagonal
                lay.row_yw.start + idx_m,          # W diagonal
                lay.row_yw.start + idx_m,          # Y diagonal
            ]
        )
        self._diag_cols = np.concatenate(
            [
                lay.col_x.start + idx_n,
                lay.col_z.start + idx_n,
                lay.col_y.start + idx_m,
                lay.col_w.start + idx_m,
            ]
        )
        self._neg_a_idx = np.array(self.neg_cols_a, dtype=int)
        self._neg_at_idx = np.array(self.neg_cols_at, dtype=int)
        self._rhs_template = np.concatenate(
            [
                self.problem.b,
                self.problem.c,
                np.ones(self.n),
                np.ones(self.m),
                np.zeros(self.m),
                np.zeros(self.n),
                np.zeros(self.k_x + self.k_y),
            ]
        )

    @property
    def size(self) -> int:
        """Dimension of the augmented square system."""
        return self.layout.size

    # -- matrix assembly ----------------------------------------------------

    def build_matrix(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
    ) -> np.ndarray:
        """Assemble the full non-negative matrix M of Eqn. 14a.

        The diagonal X, Y, Z, W blocks are clamped at zero: the
        crossbar cannot represent a negative conductance, so a solver
        whose state strayed negative (possible under Solver 2's
        constant step) programs zero instead.
        """
        lay = self.layout
        M = np.zeros((lay.size, lay.size))
        eye_m = np.eye(self.m)
        eye_n = np.eye(self.n)

        M[lay.row_primal, lay.col_x] = self._a_plus
        M[lay.row_primal, lay.col_w] = eye_m
        M[lay.row_dual, lay.col_y] = self._at_plus
        M[lay.row_dual, lay.col_v] = eye_n
        if self.k_x:
            p_x = slice(lay.col_p.start, lay.col_p.start + self.k_x)
            M[lay.row_primal, p_x] = self._a_minus[:, list(self.neg_cols_a)]
        if self.k_y:
            p_y = slice(lay.col_p.start + self.k_x, lay.col_p.stop)
            M[lay.row_dual, p_y] = self._at_minus[:, list(self.neg_cols_at)]

        xz = lay.row_xz.start
        M[xz:xz + self.n, lay.col_x] = np.diag(np.maximum(z, 0.0))
        M[xz:xz + self.n, lay.col_z] = np.diag(np.maximum(x, 0.0))
        yw = lay.row_yw.start
        M[yw:yw + self.m, lay.col_y] = np.diag(np.maximum(w, 0.0))
        M[yw:yw + self.m, lay.col_w] = np.diag(np.maximum(y, 0.0))

        M[lay.row_ulink, lay.col_w] = eye_m
        M[lay.row_ulink, lay.col_u] = eye_m
        M[lay.row_vlink, lay.col_z] = eye_n
        M[lay.row_vlink, lay.col_v] = eye_n

        plink = lay.row_plink.start
        for idx, j in enumerate(self.neg_cols_a):
            M[plink + idx, j] = 1.0
        for idx, j in enumerate(self.neg_cols_at):
            M[plink + self.k_x + idx, self.n + j] = 1.0
        M[lay.row_plink, lay.col_p] = np.eye(self.k_x + self.k_y)
        return M

    def diagonal_update(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The O(N) per-iteration cell updates: (rows, cols, values).

        Exactly ``2(n+m)`` cells — the Z, X, W, Y diagonals inside the
        complementarity rows.  With the paper's experiment shape
        ``n = m/3`` this is the "2.7 N" coefficient-update count of
        Section 4.4.  Values are clamped at zero (see
        :meth:`build_matrix`).
        """
        values = np.concatenate([z, x, w, y])
        return self._diag_rows, self._diag_cols, np.maximum(values, 0.0)

    # -- vectors -----------------------------------------------------------------

    def state_vector(
        self,
        x: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        z: np.ndarray,
    ) -> np.ndarray:
        """Pack ``[x, y, w, z, u=-w, v=-z, p]`` for the Eqn. 15b multiply.

        Multiplying M by this vector yields
        ``[Ax + w, Aᵀy - z, 2XZe, 2YWe, 0, 0, 0]``; the residual
        builder halves the complementarity rows (the "dividing-by-2
        procedure" of Section 3.2).
        """
        p = np.concatenate(
            [
                -x[self._neg_a_idx] if self.k_x else np.empty(0),
                -y[self._neg_at_idx] if self.k_y else np.empty(0),
            ]
        )
        return np.concatenate([x, y, w, z, -w, -z, p])

    def rhs_targets(self, mu: float) -> np.ndarray:
        """The constant part ``[b, c, mu, mu, 0, 0, 0]`` of Eqn. 15a."""
        lay = self.layout
        out = self._rhs_template.copy()
        out[lay.row_xz] *= mu
        out[lay.row_yw] *= mu
        return out

    def residual_from_product(
        self, product: np.ndarray, mu: float
    ) -> np.ndarray:
        """Assemble r (Eqn. 15a) from the crossbar product M @ state.

        The complementarity rows of the product carry ``2XZe`` and
        ``2YWe``; they are halved before subtraction.
        """
        lay = self.layout
        halved = np.array(product, dtype=float, copy=True)
        halved[lay.row_xz] /= 2.0
        halved[lay.row_yw] /= 2.0
        return self.rhs_targets(mu) - halved

    def extract_steps(
        self, delta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Unpack ``(Δx, Δy, Δw, Δz)`` from the augmented solution."""
        lay = self.layout
        if delta.shape != (lay.size,):
            raise ValueError(
                f"expected solution of shape ({lay.size},), got {delta.shape}"
            )
        return (
            delta[lay.col_x].copy(),
            delta[lay.col_y].copy(),
            delta[lay.col_w].copy(),
            delta[lay.col_z].copy(),
        )

    def infeasibility_norms(
        self, residual: np.ndarray
    ) -> tuple[float, float]:
        """(primal, dual) infinity norms read off the analog residual.

        The first m entries of r are ``b - Ax - w`` and the next n are
        ``c - Aᵀy + z``, so the convergence test needs no extra matrix
        work — it reuses the residual the crossbar already computed.
        """
        lay = self.layout
        primal = float(np.abs(residual[lay.row_primal]).max(initial=0.0))
        dual = float(np.abs(residual[lay.row_dual]).max(initial=0.0))
        return primal, dual
