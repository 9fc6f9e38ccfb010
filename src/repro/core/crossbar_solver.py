"""Solver 1: the memristor crossbar-based PDIP linear program solver.

Implements Algorithm 1 of the paper.  One (logical) crossbar holds the
augmented non-negative Newton matrix M of Eqn. 14a; every iteration

1. rewrites only the X, Y, Z, W diagonal cells of M — O(N) writes
   (Section 3.5);
2. computes the right-hand side r analogously: the crossbar multiplies
   M by the packed state ``[x, y, w, z, -w, -z, p]`` (Eqn. 15b), the
   complementarity rows are halved, and the result is subtracted from
   the constant ``[b, c, mu, mu, 0, 0, 0]`` — the subtraction a summing
   amplifier performs in hardware;
3. solves ``M Δs = r`` on the same crossbar in O(1) analog time;
4. applies the damped ratio-test step (Eqn. 11) and checks the exit
   criteria using the residual the crossbar already produced.

Non-convergence under process variation (singular perturbed arrays,
stalls at the analog noise floor) is handled by the recovery ladder of
:mod:`repro.reliability`: the paper's "double checking scheme"
(Section 4.5) is its first rung (reprogram, fresh variation draw),
optionally followed by remapping onto a fresh array and a digital
fallback.
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
from repro.core.newton import AugmentedNewtonSystem
from repro.core.problem import LinearProgram
from repro.core.residuals import centering_mu, converged, duality_gap
from repro.core.result import (
    CrossbarCounters,
    FailureReason,
    IterationRecord,
    SolverResult,
    SolveStatus,
)
from repro.core.settings import CrossbarSolverSettings
from repro.core.stepsize import ratio_test_theta
from repro.core.warmstart import validated_state as _validated_state
from repro.crossbar.ops import AnalogMatrixOperator
from repro.exceptions import CrossbarSolveError, MappingError
from repro.obs.clock import Deadline, Stopwatch
from repro.obs.tracer import NOOP, Tracer
from repro.reliability.policy import RecoveryPolicy
from repro.reliability.probe import ProbeReport, probe_operator
from repro.reliability.recovery import solve_with_recovery
from repro.reliability.telemetry import RecoveryAction


class CrossbarPDIPSolver:
    """Memristor crossbar LP solver (Algorithm 1).

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
        Observability hook (:mod:`repro.obs`): per-iteration spans for
        the algorithm phases (reformulation, programming, residual
        read-out, analog solve, step selection) plus the analog-op
        counters of the crossbar layer.  Defaults to the zero-overhead
        no-op tracer.
    deadline:
        Optional wall-clock budget (:class:`~repro.obs.clock.Deadline`)
        checked between recovery rungs and between PDIP iterations; an
        expired budget terminates the solve with a machine-readable
        DEADLINE_EXCEEDED after at most one more iteration's work.
    """

    def __init__(
        self,
        problem: LinearProgram,
        settings: CrossbarSolverSettings | None = None,
        *,
        rng: np.random.Generator | None = None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        self.problem = problem
        self.settings = (
            settings if settings is not None else CrossbarSolverSettings()
        )
        self.rng = rng if rng is not None else np.random.default_rng()
        self.recovery = (
            recovery
            if recovery is not None
            else RecoveryPolicy.from_settings(self.settings)
        )
        self.tracer = tracer if tracer is not None else NOOP
        self.deadline = deadline
        self.system = AugmentedNewtonSystem(problem)
        # The operator programmed by the most recent ladder attempt;
        # lets a REPROGRAM rung redraw variation in place instead of
        # re-mapping and re-writing the full matrix.
        self._last_operator: AnalogMatrixOperator | None = None

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        *,
        trace: bool = False,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> SolverResult:
        """Run Algorithm 1 under the recovery ladder.

        The ladder's first rung is the paper's Section 4.5 "double
        checking scheme" (reprogram, drawing fresh process variation);
        the configured :class:`RecoveryPolicy` may escalate further to
        remapping and a digital fallback.  The returned result carries
        the full attempt history and its wall-clock duration.

        ``initial_state`` optionally warm-starts the PDIP iterates
        (``(x, y, w, z)``, see :mod:`repro.core.warmstart`) on the
        *first* rung only; if that rung fails, every retry falls back
        to the seeded cold start so a stalled warm trajectory cannot
        poison the ladder.
        """
        self._last_operator = None
        first_rung = {"initial_state": initial_state}

        def attempt(
            rng: np.random.Generator, action: RecoveryAction
        ) -> tuple[SolverResult, ProbeReport | None]:
            # Section 4.5's "double checking scheme" rewrites the same
            # array: reuse the operator the failed attempt programmed,
            # redraw its variation, and let the warm path reset only
            # the diagonals (O(N), via the differential write path).
            # A REMAP rung abandons the array and rebuilds from
            # scratch.
            warm = (
                self._last_operator
                if action is RecoveryAction.REPROGRAM
                else None
            )
            return self._solve_once(
                rng=rng,
                trace=trace,
                operator=warm,
                redraw=rng if warm is not None else None,
                initial_state=first_rung.pop("initial_state", None),
            )

        with Stopwatch() as clock, self.tracer.span(
            "solve", solver="crossbar", constraints=self.problem.A.shape[0]
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

    def solve_on(
        self,
        operator: AnalogMatrixOperator,
        *,
        trace: bool = False,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> SolverResult:
        """Run ONE attempt on a pre-programmed (warm) operator.

        The serving layer (:mod:`repro.service`) keeps arrays
        programmed between jobs: when a job's structural blocks
        (A/Aᵀ + compensation) match what ``operator`` already holds,
        this entry point skips the full-array programming and pays only
        the O(N) diagonal rewrite — the paper's per-iteration cost,
        amortized across *requests*.  No recovery ladder runs here;
        rescheduling is the caller's concern.  The returned counters
        cover only this attempt's writes (the operator's lifetime
        totals are baselined out).  ``initial_state`` optionally
        warm-starts the PDIP iterates from a previous optimum
        (:mod:`repro.core.warmstart`) — the re-solve tier's fast path.
        """
        with Stopwatch() as clock, self.tracer.span(
            "solve",
            solver="crossbar",
            constraints=self.problem.A.shape[0],
            warm=True,
        ):
            result, _ = self._solve_once(
                rng=self.rng,
                trace=trace,
                operator=operator,
                initial_state=initial_state,
            )
        return dataclasses.replace(
            result, elapsed_seconds=clock.elapsed_seconds
        )

    def build_operator(
        self, rng: np.random.Generator | None = None
    ) -> AnalogMatrixOperator:
        """Program a fresh operator with this problem's full matrix.

        The initial-state matrix (all four diagonals at
        ``settings.initial_value``) is what :meth:`solve_on` expects to
        find; the serving layer uses this as the cold-path programmer.
        """
        settings = self.settings
        x0 = np.full(self.problem.A.shape[1], settings.initial_value)
        y0 = np.full(self.problem.A.shape[0], settings.initial_value)
        matrix = self.system.build_matrix(x0, y0, y0.copy(), x0.copy())
        return AnalogMatrixOperator(
            matrix,
            params=settings.device,
            variation=settings.variation,
            rng=rng if rng is not None else self.rng,
            dac_bits=settings.dac_bits,
            adc_bits=settings.adc_bits,
            scale_headroom=settings.scale_headroom,
            row_scaling=settings.row_scaling,
            off_state=settings.off_state,
            write_verify=settings.write_verify,
            tracer=self.tracer,
        )

    # -- one attempt -----------------------------------------------------------

    def _probe_rejection(
        self,
        probe: ProbeReport,
        report,
        multiplies: int,
    ) -> SolverResult:
        """Short-circuit result for an array the health probe rejected."""
        problem = self.problem
        m, n = problem.A.shape
        counters = CrossbarCounters(
            multiplies=multiplies,
            solves=0,
            cells_written=report.cells_written,
            write_pulses=report.pulses,
            write_latency_s=report.latency_s,
            write_energy_j=report.energy_j,
            array_size=self.system.size,
            verify_reads=report.verify_reads,
            verify_repulsed=report.repulsed_cells,
            verify_unverified=report.unverified_cells,
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
                f"health probe rejected array: relative error "
                f"{probe.max_rel_error:.3g} exceeds tolerance "
                f"{probe.tolerance:.3g}"
            ),
            failure_reason=FailureReason.PROBE_UNHEALTHY,
        )

    def _solve_once(
        self,
        *,
        rng: np.random.Generator | None = None,
        trace: bool = False,
        operator: AnalogMatrixOperator | None = None,
        redraw: np.random.Generator | None = None,
        initial_state: tuple[np.ndarray, ...] | None = None,
    ) -> tuple[SolverResult, ProbeReport | None]:
        problem = self.problem
        settings = self.settings
        system = self.system
        tracer = self.tracer
        m, n = problem.A.shape
        rng = rng if rng is not None else self.rng

        if initial_state is not None:
            x, y, w, z = _validated_state(initial_state, m, n, settings)
        else:
            x = np.full(n, settings.initial_value)
            z = np.full(n, settings.initial_value)
            y = np.full(m, settings.initial_value)
            w = np.full(m, settings.initial_value)

        if operator is None:
            # Eqn. 13/14a: eliminate negatives via compensation
            # variables and assemble the augmented non-negative Newton
            # matrix.
            with tracer.span("reformulate"):
                matrix = system.build_matrix(x, y, w, z)
            with tracer.span("program", array="M"):
                operator = AnalogMatrixOperator(
                    matrix,
                    params=settings.device,
                    variation=settings.variation,
                    rng=rng,
                    dac_bits=settings.dac_bits,
                    adc_bits=settings.adc_bits,
                    scale_headroom=settings.scale_headroom,
                    row_scaling=settings.row_scaling,
                    off_state=settings.off_state,
                    write_verify=settings.write_verify,
                    tracer=tracer,
                )
            self._last_operator = operator
            base_report = None
        else:
            # Warm start: the structural A/Aᵀ + compensation blocks are
            # already programmed from an earlier solve sharing this
            # problem's structure; only the X, Y, Z, W diagonals carry
            # per-problem state, so the write cost is O(N), not O(N²).
            if (operator.n_out, operator.n_in) != (system.size, system.size):
                raise MappingError(
                    f"warm operator is {operator.n_out}x{operator.n_in}; "
                    f"this problem needs {system.size}x{system.size}"
                )
            base_report = operator.write_report
            if redraw is not None:
                # Recovery-ladder reprogram: fresh variation draw on
                # every already-programmed cell, zero target changes.
                with tracer.span("program", array="M", redraw=True):
                    operator.redraw_variation(redraw)
            with tracer.span("program", array="M", warm=True):
                rows, cols, values = system.diagonal_update(x, y, w, z)
                operator.update_coefficients(
                    rows, cols, values, floor_to_representable=True
                )
                # Undo scale drift left by the previous solve: sticky
                # remaps inflate the representable floor, which would
                # make warm starts converge slower than cold ones.
                operator.renormalize()
        multiplies = 0
        solves = 0

        probe = None
        if self.recovery.probe is not None:
            with tracer.span("probe", array="M"):
                probe = probe_operator(
                    operator, self.recovery.probe, rng, label="M"
                )
            multiplies += probe.vectors
            if not probe.healthy:
                tracer.gauge("solver.iterations", 0)
                report = operator.write_report
                if base_report is not None:
                    report = report - base_report
                return (
                    self._probe_rejection(probe, report, multiplies),
                    probe,
                )

        eps_primal = settings.eps_primal * (
            1.0 + float(np.abs(problem.b).max(initial=0.0))
        )
        eps_dual = settings.eps_dual * (
            1.0 + float(np.abs(problem.c).max(initial=0.0))
        )
        # Gap tolerance is anchored at the *nominal* cold-start gap
        # ((n+m) * initial_value^2) so a warm start near the optimum is
        # judged by the same absolute threshold as a cold solve — not
        # by its own (tiny) initial gap, which would demand a far
        # tighter answer from exactly the runs meant to finish fast.
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

        best_score = np.inf
        best_state = (x, y, w, z)
        stall = 0
        records: list[IterationRecord] = []
        iterations = 0
        status = SolveStatus.ITERATION_LIMIT
        message = ""
        reason = FailureReason.NONE

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
            mu = centering_mu(x, y, w, z, settings.delta)
            if iteration:
                with tracer.span("newton_assembly"):
                    rows, cols, values = system.diagonal_update(x, y, w, z)
                # The complementarity diagonals must stay nonzero or the
                # programmed system turns singular; clamp at the smallest
                # representable coefficient.
                with tracer.span("program", array="M"):
                    operator.update_coefficients(
                        rows, cols, values, floor_to_representable=True
                    )

            with tracer.span("residual"):
                state = system.state_vector(x, y, w, z)
                product = operator.multiply(state)
                multiplies += 1
                residual = system.residual_from_product(product, mu)
                p_inf, d_inf = system.infeasibility_norms(residual)
                gap = duality_gap(x, y, w, z)

            # The converters bound how small a residual the controller
            # can resolve: the analog product carries ~2^-bits relative
            # error of its block peak.  Demanding less than that noise
            # floor would spin forever, so the effective tolerances
            # track it (the controller knows its own ADC resolution).
            lay = system.layout
            floor_p = quant_rel * float(
                np.abs(product[lay.row_primal]).max(initial=0.0)
            )
            floor_d = quant_rel * float(
                np.abs(product[lay.row_dual]).max(initial=0.0)
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
                    delta = operator.solve(residual)
            except CrossbarSolveError as exc:
                iterate_peak = max(
                    float(np.abs(x).max(initial=0.0)),
                    float(np.abs(y).max(initial=0.0)),
                )
                if iterate_peak > collapse_bound:
                    # The iterates grew until the conductance mapping's
                    # dynamic range collapsed — a hardware manifestation
                    # of the big-M divergence certificate.
                    status = SolveStatus.INFEASIBLE
                    message = f"divergence collapsed the mapping: {exc}"
                else:
                    status = SolveStatus.NUMERICAL_FAILURE
                    message = str(exc)
                    reason = FailureReason.SINGULAR_SYSTEM
                break
            solves += 1

            with tracer.span("step"):
                dx, dy, dw, dz = system.extract_steps(delta)
                theta = ratio_test_theta(
                    np.concatenate([x, y, w, z]),
                    np.concatenate([dx, dy, dw, dz]),
                    step_scale=settings.step_scale,
                    ignore_below=settings.positivity_floor * 1e4,
                )
                floor = settings.positivity_floor
                x = np.maximum(x + theta * dx, floor)
                y = np.maximum(y + theta * dy, floor)
                w = np.maximum(w + theta * dw, floor)
                z = np.maximum(z + theta * dz, floor)
            iterations = iteration + 1

            divergence = detect_divergence(x, y, divergence_bound)
            if divergence is not DivergenceKind.NONE:
                status = SolveStatus.INFEASIBLE
                message = divergence.value
                break

            if trace:
                report = operator.write_report
                records.append(
                    IterationRecord(
                        index=iteration,
                        mu=mu,
                        duality_gap=duality_gap(x, y, w, z),
                        primal_infeasibility=p_inf,
                        dual_infeasibility=d_inf,
                        theta=theta,
                        cells_written=report.cells_written,
                    )
                )

        if status is SolveStatus.ITERATION_LIMIT and not message:
            # Ran out of iterations while still (slowly) improving:
            # classify the best iterate the same way the stall exit does.
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
            # Section 3.2's robust feasibility detection: variation can
            # warp the realized feasible region, so never report a point
            # violating A x <= alpha b as optimal.
            status = SolveStatus.NUMERICAL_FAILURE
            message = "final constraint check A x <= alpha b failed"
            reason = FailureReason.FINAL_CHECK_FAILED

        if status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
            reason = FailureReason.NONE

        tracer.gauge("solver.iterations", iterations)
        report = operator.write_report
        if base_report is not None:
            report = report - base_report
        counters = CrossbarCounters(
            multiplies=multiplies,
            solves=solves,
            cells_written=report.cells_written,
            write_pulses=report.pulses,
            write_latency_s=report.latency_s,
            write_energy_j=report.energy_j,
            array_size=system.size,
            verify_reads=report.verify_reads,
            verify_repulsed=report.repulsed_cells,
            verify_unverified=report.unverified_cells,
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


def solve_crossbar(
    problem: LinearProgram,
    settings: CrossbarSolverSettings | None = None,
    *,
    rng: np.random.Generator | None = None,
    recovery: RecoveryPolicy | None = None,
    trace: bool = False,
    tracer: Tracer | None = None,
) -> SolverResult:
    """Functional wrapper around :class:`CrossbarPDIPSolver`."""
    solver = CrossbarPDIPSolver(
        problem, settings, rng=rng, recovery=recovery, tracer=tracer
    )
    return solver.solve(trace=trace)
