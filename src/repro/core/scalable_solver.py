"""Solver 2: the crossbar LP solver for large-scale operations.

Implements Algorithm 2 of the paper.  Instead of one crossbar of size
~4(n+m) (Solver 1), the Newton step is split across four much smaller
arrays:

- **M1 solve array** (size n + 2m + k): ``[A RU; RL Aᵀ]`` with its
  negative entries eliminated by compensation variables; the coupling
  diagonals RU / RL are rewritten each iteration — O(N) cells;
- **M1 multiply array**: the same structure with the coupling blocks
  zeroed (Eqn. 17a) — programmed once, computes ``Ax`` and ``Aᵀy``
  for the residuals;
- **M2 array**: ``diag(X, Y)`` (Eqn. 16b) — O(N) rewrite per
  iteration; used to *solve* for the recovery steps and, in the exact
  rhs mode, to compute the analog divisions ``μ/x`` and ``μ/y``;
- **D array**: ``diag(Z, W)`` — O(N) rewrite; its multiply provides
  the recovery coupling products ``ZΔx`` / ``WΔy``.

The step length is a constant θ (Section 3.4); iterates are clamped at
a small positivity floor after each update — the hardware cannot
represent negative diagonal conductances regardless.  The mode
switches in :class:`~repro.core.settings.ScalableSolverSettings` select
the literal printed equations instead (used by the ablation benches to
demonstrate their divergence).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.feasibility import (
    DivergenceKind,
    collapse_threshold,
    detect_divergence,
    scaled_big_m,
)
from repro.core.problem import LinearProgram
from repro.core.residuals import centering_mu, converged, duality_gap
from repro.core.result import (
    CrossbarCounters,
    FailureReason,
    IterationRecord,
    SolverResult,
    SolveStatus,
)
from repro.core.scalable_system import ScalableNewtonSystem
from repro.core.settings import ScalableSolverSettings
from repro.core.stepsize import ratio_test_theta
from repro.core.warmstart import validated_state as _validated_state
from repro.crossbar.ops import AnalogMatrixOperator
from repro.exceptions import CrossbarSolveError
from repro.obs.clock import Deadline, Stopwatch
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.policy import RecoveryPolicy
from repro.reliability.probe import ProbeReport, probe_operators
from repro.reliability.recovery import solve_with_recovery
from repro.reliability.telemetry import RecoveryAction


class LargeScaleCrossbarPDIPSolver:
    """Memristor crossbar LP solver for large-scale operations.

    Parameters
    ----------
    problem:
        The LP to solve (max c'x, Ax <= b, x >= 0).
    settings:
        Algorithm and hardware configuration.
    rng:
        Random generator driving the process-variation draws.
    recovery:
        Escalation policy.  Defaults to
        :meth:`RecoveryPolicy.from_settings`, i.e. the paper's retry
        scheme (``settings.retries`` reprogram attempts, no probe, no
        remap, no fallback).
    tracer:
        Observability sink (:class:`repro.obs.Tracer`).  Defaults to
        the zero-overhead no-op tracer; pass a
        :class:`repro.obs.RecordingTracer` to capture per-phase spans
        and analog-op counters.
    deadline:
        Optional wall-clock budget (:class:`~repro.obs.clock.Deadline`)
        checked between recovery rungs and between PDIP iterations; an
        expired budget terminates the solve with a machine-readable
        DEADLINE_EXCEEDED after at most one more iteration's work.
    """

    def __init__(
        self,
        problem: LinearProgram,
        settings: ScalableSolverSettings | None = None,
        *,
        rng: np.random.Generator | None = None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        self.problem = problem
        self.settings = (
            settings if settings is not None else ScalableSolverSettings()
        )
        self.rng = rng if rng is not None else np.random.default_rng()
        self.recovery = (
            recovery
            if recovery is not None
            else RecoveryPolicy.from_settings(self.settings)
        )
        self.tracer = tracer if tracer is not None else NOOP
        self.deadline = deadline
        self.system = ScalableNewtonSystem(
            problem,
            coupling=self.settings.coupling,
            regularization=self.settings.regularization,
            ratio_floor=self.settings.ratio_floor,
            ratio_cap=self.settings.ratio_cap,
        )
        # The four arrays programmed by the most recent ladder attempt;
        # a REPROGRAM rung redraws their variation in place instead of
        # re-mapping and re-writing all four from scratch.
        self._last_arrays: (
            tuple[
                AnalogMatrixOperator,
                AnalogMatrixOperator,
                AnalogMatrixOperator,
                AnalogMatrixOperator,
            ]
            | None
        ) = None

    def solve(
        self,
        *,
        trace: bool = False,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> SolverResult:
        """Run Algorithm 2 under the recovery ladder.

        The ladder's first rung is the paper's Section 4.5 "double
        checking scheme" (reprogram all four arrays, drawing fresh
        process variation); the configured :class:`RecoveryPolicy` may
        escalate further to remapping and a digital fallback.  The
        returned result carries the full attempt history.

        ``initial_state`` optionally warm-starts the PDIP iterates
        (``(x, y, w, z)``, see :mod:`repro.core.warmstart`) on the
        first rung only; retries always fall back to the seeded cold
        start.
        """
        self._last_arrays = None
        first_rung = {"initial_state": initial_state}

        def attempt(
            rng: np.random.Generator, action: RecoveryAction
        ) -> tuple[SolverResult, ProbeReport | None]:
            # A REPROGRAM rung reuses the four programmed arrays:
            # redraw variation, reset the coupling and state diagonals
            # via the differential write path (O(N) cells), leave the
            # write-once structural blocks alone.  REMAP rebuilds all
            # four from scratch.
            warm = (
                self._last_arrays
                if action is RecoveryAction.REPROGRAM
                else None
            )
            return self._solve_once(
                rng=rng,
                trace=trace,
                arrays=warm,
                redraw=rng if warm is not None else None,
                initial_state=first_rung.pop("initial_state", None),
            )

        with Stopwatch() as clock, self.tracer.span(
            "solve",
            solver="large_scale",
            constraints=self.problem.A.shape[0],
        ):
            result = solve_with_recovery(
                attempt,
                self.recovery,
                self.problem,
                self.rng,
                tracer=self.tracer,
                deadline=self.deadline,
            )
        return dataclasses.replace(
            result, elapsed_seconds=clock.elapsed_seconds
        )

    def _probe_rejection(
        self,
        probe: ProbeReport,
        total_writes,
        multiplies: int,
    ) -> SolverResult:
        """Short-circuit result for arrays the health probe rejected."""
        problem = self.problem
        system = self.system
        m, n = problem.A.shape
        counters = CrossbarCounters(
            multiplies=multiplies,
            solves=0,
            cells_written=total_writes.cells_written,
            write_pulses=total_writes.pulses,
            write_latency_s=total_writes.latency_s,
            write_energy_j=total_writes.energy_j,
            array_size=max(system.size_m1, system.size_m2),
            verify_reads=total_writes.verify_reads,
            verify_repulsed=total_writes.repulsed_cells,
            verify_unverified=total_writes.unverified_cells,
        )
        x = np.zeros(n)
        return SolverResult(
            status=SolveStatus.NUMERICAL_FAILURE,
            x=x,
            y=np.zeros(m),
            w=np.zeros(m),
            z=np.zeros(n),
            objective=problem.objective(x),
            iterations=0,
            crossbar=counters,
            message=(
                f"health probe rejected array {probe.label!r}: relative "
                f"error {probe.max_rel_error:.3g} exceeds tolerance "
                f"{probe.tolerance:.3g}"
            ),
            failure_reason=FailureReason.PROBE_UNHEALTHY,
        )

    def _solve_once(
        self,
        *,
        rng: np.random.Generator | None = None,
        trace: bool = False,
        arrays: (
            tuple[
                AnalogMatrixOperator,
                AnalogMatrixOperator,
                AnalogMatrixOperator,
                AnalogMatrixOperator,
            ]
            | None
        ) = None,
        redraw: np.random.Generator | None = None,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> tuple[SolverResult, ProbeReport | None]:
        problem = self.problem
        settings = self.settings
        system = self.system
        m, n = problem.A.shape
        rng = rng if rng is not None else self.rng

        if initial_state is not None:
            x, y, w, z = _validated_state(initial_state, m, n, settings)
        else:
            x = np.full(n, settings.initial_value)
            z = np.full(n, settings.initial_value)
            y = np.full(m, settings.initial_value)
            w = np.full(m, settings.initial_value)

        tracer = self.tracer
        if arrays is None:
            hardware = dict(
                params=settings.device,
                variation=settings.variation,
                rng=rng,
                dac_bits=settings.dac_bits,
                adc_bits=settings.adc_bits,
                off_state=settings.off_state,
                row_scaling=settings.row_scaling,
                write_verify=settings.write_verify,
                tracer=tracer,
            )
            with tracer.span("reformulate"):
                m1_coupled = system.build_m1(x, y, w, z, with_coupling=True)
                m1_plain = system.build_m1(x, y, w, z, with_coupling=False)
                m2_matrix = system.build_m2(x, y)
                d_matrix = system.build_d(z, w)
            with tracer.span("program", array="m1_solve"):
                m1_solve = AnalogMatrixOperator(
                    m1_coupled,
                    scale_headroom=settings.scale_headroom,
                    **hardware,
                )
            with tracer.span("program", array="m1_mult"):
                m1_mult = AnalogMatrixOperator(
                    m1_plain,
                    scale_headroom=1.0,
                    **hardware,
                )
            with tracer.span("program", array="m2"):
                m2 = AnalogMatrixOperator(
                    m2_matrix,
                    scale_headroom=settings.scale_headroom,
                    **hardware,
                )
            with tracer.span("program", array="d"):
                d_array = AnalogMatrixOperator(
                    d_matrix,
                    scale_headroom=settings.scale_headroom,
                    **hardware,
                )
            self._last_arrays = (m1_solve, m1_mult, m2, d_array)
            base_writes = None
        else:
            # Recovery-ladder reprogram: keep the mapped structure,
            # redraw process variation on every programmed cell, and
            # reset the per-iteration diagonals to the initial state
            # through the differential write path.  m1_mult is
            # write-once (Eqn. 17a) — redraw only.
            m1_solve, m1_mult, m2, d_array = arrays
            base_writes = (
                m1_solve.write_report
                + m1_mult.write_report
                + m2.write_report
                + d_array.write_report
            )
            if redraw is not None:
                with tracer.span("program", redraw=True):
                    for warm_op in (m1_solve, m1_mult, m2, d_array):
                        warm_op.redraw_variation(redraw)
            with tracer.span("program", warm=True):
                rows, cols, values = system.m1_coupling_update(x, y, w, z)
                m1_solve.update_coefficients(
                    rows, cols, values, floor_to_representable=True
                )
                m1_solve.renormalize()
                for warm_op, diag in (
                    (m2, system.m2_diagonal(x, y)),
                    (d_array, system.d_diagonal(z, w)),
                ):
                    d_rows, d_cols, d_vals = system.diag_update(diag)
                    warm_op.update_coefficients(
                        d_rows, d_cols, d_vals, floor_to_representable=True
                    )
                    warm_op.renormalize()
        multiplies = 0
        solves = 0

        probe = None
        if self.recovery.probe is not None:
            with tracer.span("probe"):
                probe = probe_operators(
                    [
                        ("m1_solve", m1_solve),
                        ("m1_mult", m1_mult),
                        ("m2", m2),
                        ("d", d_array),
                    ],
                    self.recovery.probe,
                    rng,
                )
            multiplies += probe.vectors
            if not probe.healthy:
                total_writes = (
                    m1_solve.write_report
                    + m1_mult.write_report
                    + m2.write_report
                    + d_array.write_report
                )
                if base_writes is not None:
                    total_writes = total_writes - base_writes
                tracer.gauge("solver.iterations", 0)
                return (
                    self._probe_rejection(probe, total_writes, multiplies),
                    probe,
                )

        eps_primal = settings.eps_primal * (
            1.0 + float(np.abs(problem.b).max(initial=0.0))
        )
        eps_dual = settings.eps_dual * (
            1.0 + float(np.abs(problem.c).max(initial=0.0))
        )
        # Anchored at the nominal cold-start gap ((n+m)*initial_value^2,
        # identical to duality_gap at the flat start) so warm starts
        # are judged by the same absolute threshold as cold solves.
        gap0 = (n + m) * settings.initial_value**2
        eps_gap = settings.eps_gap * max(1.0, gap0)
        converter_bits = [
            bits
            for bits in (settings.dac_bits, settings.adc_bits)
            if bits is not None
        ]
        quant_rel = 3.0 * 2.0 ** -min(converter_bits) if converter_bits else 0.0
        divergence_bound = scaled_big_m(problem, settings.big_m)
        collapse_bound = collapse_threshold(
            problem,
            settings.device.resistance_ratio,
            settings.scale_headroom,
        )
        theta = settings.constant_theta
        floor = settings.positivity_floor

        best_score = np.inf
        best_state = (x, y, w, z)
        stall = 0
        records: list[IterationRecord] = []
        iterations = 0
        status = SolveStatus.ITERATION_LIMIT
        message = ""
        reason = FailureReason.NONE

        def clamped_update(operator, values):
            rows, cols, vals = system.diag_update(values)
            operator.update_coefficients(
                rows, cols, vals, floor_to_representable=True
            )

        deadline = self.deadline
        for iteration in range(settings.max_iterations):
          if deadline is not None and deadline.expired:
            status = SolveStatus.NUMERICAL_FAILURE
            message = (
                f"deadline of {deadline.budget_s:.3g}s exceeded after "
                f"{iterations} iterations"
            )
            reason = FailureReason.DEADLINE_EXCEEDED
            break
          with tracer.span("iteration", index=iteration):
            gap = duality_gap(x, y, w, z)
            mu = centering_mu(x, y, w, z, settings.delta)

            if iteration:
                with tracer.span("newton_assembly"):
                    rows, cols, values = system.m1_coupling_update(
                        x, y, w, z
                    )
                    m2_diag = system.m2_diagonal(x, y)
                    d_diag = system.d_diagonal(z, w)
                with tracer.span("program", array="m1_solve"):
                    m1_solve.update_coefficients(
                        rows, cols, values, floor_to_representable=True
                    )
                with tracer.span("program", array="m2"):
                    clamped_update(m2, m2_diag)
                with tracer.span("program", array="d"):
                    clamped_update(d_array, d_diag)

            # --- residuals via the constant multiply array ------------
            with tracer.span("residual"):
                product1 = m1_mult.multiply(system.state_vector_m1(x, y))
                multiplies += 1
                p_inf, d_inf = system.infeasibility_norms(product1, w, z)

            # Converter noise floor on the residual read-out (see the
            # matching comment in crossbar_solver).
            floor_p = quant_rel * float(
                np.abs(product1[:m]).max(initial=0.0)
            )
            floor_d = quant_rel * float(
                np.abs(product1[m:m + n]).max(initial=0.0)
            )
            if converged(
                p_inf,
                d_inf,
                gap,
                eps_primal=max(eps_primal, floor_p),
                eps_dual=max(eps_dual, floor_d),
                eps_gap=eps_gap,
            ):
                status = SolveStatus.OPTIMAL
                break

            score = max(p_inf / eps_primal, d_inf / eps_dual, gap / eps_gap)
            if score < best_score * (1.0 - 1e-3):
                best_score = score
                best_state = (x, y, w, z)
                stall = 0
            else:
                stall += 1
                if stall >= settings.stall_iterations:
                    iterate_peak = max(
                        float(np.abs(x).max(initial=0.0)),
                        float(np.abs(y).max(initial=0.0)),
                    )
                    x, y, w, z = best_state
                    if iterate_peak > collapse_bound:
                        status = SolveStatus.INFEASIBLE
                        message = "stalled while diverging"
                    elif problem.satisfies_relaxed_constraints(
                        x,
                        settings.alpha,
                        problem.variation_row_tolerance(
                            x, settings.variation.relative_magnitude
                        ),
                    ):
                        status = SolveStatus.OPTIMAL
                        message = (
                            "stalled at analog noise floor; relaxed "
                            "feasibility check passed"
                        )
                    else:
                        status = SolveStatus.ITERATION_LIMIT
                        message = "stalled without a feasible iterate"
                        reason = FailureReason.NO_FEASIBLE_ITERATE
                    break

            try:
                with tracer.span("analog_solve"):
                    # --- first half: Δx, Δy from M1 -------------------
                    if settings.rhs_mode == "exact":
                        # The controller holds x, y digitally (it
                        # programs the M2 diagonal from them every
                        # iteration), so the central-path targets mu/x,
                        # mu/y are O(N) digital scalar ops, like the
                        # summing-amplifier subtraction.
                        r1 = system.residual_m1(product1, mu / x, mu / y)
                    else:
                        r1 = system.paper_residual_m1(product1, w, z)
                    delta1 = m1_solve.solve(r1)
                    solves += 1
                    dx, dy = system.extract_steps_m1(delta1)

                    # --- second half: Δz, Δw from M2 (recovery) -------
                    product2 = m2.multiply(np.concatenate([z, w]))
                    multiplies += 1
                    if settings.recovery == "coupled":
                        coupling = d_array.multiply(
                            np.concatenate([dx, dy])
                        )
                        multiplies += 1
                    else:
                        coupling = None
                    r2 = system.residual_m2(mu, product2, coupling)
                    delta2 = m2.solve(r2)
                    solves += 1
                    dz, dw = system.extract_steps_m2(delta2)
            except CrossbarSolveError as exc:
                iterate_peak = max(
                    float(np.abs(x).max(initial=0.0)),
                    float(np.abs(y).max(initial=0.0)),
                )
                if iterate_peak > collapse_bound:
                    # Dynamic-range collapse while the iterates diverge:
                    # the big-M certificate, reached through hardware.
                    status = SolveStatus.INFEASIBLE
                    message = f"divergence collapsed the mapping: {exc}"
                else:
                    status = SolveStatus.NUMERICAL_FAILURE
                    message = str(exc)
                    reason = FailureReason.SINGULAR_SYSTEM
                break

            with tracer.span("step"):
                if settings.step_policy == "capped_ratio":
                    theta = min(
                        settings.constant_theta,
                        ratio_test_theta(
                            np.concatenate([x, y, w, z]),
                            np.concatenate([dx, dy, dw, dz]),
                            step_scale=settings.step_scale,
                            ignore_below=settings.positivity_floor * 1e4,
                        ),
                    )
                x = np.maximum(x + theta * dx, floor)
                y = np.maximum(y + theta * dy, floor)
                z = np.maximum(z + theta * dz, floor)
                w = np.maximum(w + theta * dw, floor)
            iterations = iteration + 1

            divergence = detect_divergence(x, y, divergence_bound)
            if divergence is not DivergenceKind.NONE:
                status = SolveStatus.INFEASIBLE
                message = divergence.value
                break

            if trace:
                records.append(
                    IterationRecord(
                        index=iteration,
                        mu=mu,
                        duality_gap=duality_gap(x, y, w, z),
                        primal_infeasibility=p_inf,
                        dual_infeasibility=d_inf,
                        theta=theta,
                        cells_written=m2.write_report.cells_written,
                    )
                )

        if status is SolveStatus.ITERATION_LIMIT and not message:
            x, y, w, z = best_state
            if problem.satisfies_relaxed_constraints(
                x,
                settings.alpha,
                problem.variation_row_tolerance(
                    x, settings.variation.relative_magnitude
                ),
            ):
                status = SolveStatus.OPTIMAL
                message = (
                    "iteration limit; accepted best feasible iterate"
                )
            else:
                message = "iteration limit without a feasible iterate"
                reason = FailureReason.NO_FEASIBLE_ITERATE

        if status is SolveStatus.OPTIMAL and not (
            problem.satisfies_relaxed_constraints(
                x,
                settings.alpha,
                problem.variation_row_tolerance(
                    x, settings.variation.relative_magnitude
                ),
            )
        ):
            status = SolveStatus.NUMERICAL_FAILURE
            message = "final constraint check A x <= alpha b failed"
            reason = FailureReason.FINAL_CHECK_FAILED

        if status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
            reason = FailureReason.NONE

        tracer.gauge("solver.iterations", iterations)
        total_writes = (
            m1_solve.write_report
            + m1_mult.write_report
            + m2.write_report
            + d_array.write_report
        )
        if base_writes is not None:
            total_writes = total_writes - base_writes
        counters = CrossbarCounters(
            multiplies=multiplies,
            solves=solves,
            cells_written=total_writes.cells_written,
            write_pulses=total_writes.pulses,
            write_latency_s=total_writes.latency_s,
            write_energy_j=total_writes.energy_j,
            array_size=max(system.size_m1, system.size_m2),
            verify_reads=total_writes.verify_reads,
            verify_repulsed=total_writes.repulsed_cells,
            verify_unverified=total_writes.unverified_cells,
        )
        result = SolverResult(
            status=status,
            x=x,
            y=y,
            w=w,
            z=z,
            objective=problem.objective(x),
            iterations=iterations,
            trace=tuple(records),
            crossbar=counters,
            message=message,
            failure_reason=reason,
        )
        return result, probe


def solve_crossbar_large_scale(
    problem: LinearProgram,
    settings: ScalableSolverSettings | None = None,
    *,
    rng: np.random.Generator | None = None,
    recovery: RecoveryPolicy | None = None,
    trace: bool = False,
    tracer: Tracer | None = None,
) -> SolverResult:
    """Functional wrapper around :class:`LargeScaleCrossbarPDIPSolver`."""
    solver = LargeScaleCrossbarPDIPSolver(
        problem, settings, rng=rng, recovery=recovery, tracer=tracer
    )
    return solver.solve(trace=trace)
