"""Lockstep batched execution of Algorithm 1 across a fleet of LPs.

:func:`solve_crossbar_batch` evaluates many independent crossbar PDIP
solves together: problems whose augmented Newton systems share a
structural signature (size + diagonal-update cell positions) are
mapped onto one :class:`~repro.crossbar.opstack.AnalogOperatorStack`
and iterated in lockstep — per iteration, ONE batched diagonal
rewrite, ONE batched analog multiply and ONE batched analog solve
replace K python-level operator round-trips.  This is the sweep
engine's trial fan-out fast path.

Reproducibility is the design constraint, not a best effort:

- each member draws its attempt seed from its own generator exactly
  as the serial recovery ladder does, and all variation lands on
  per-member generators, so with the numpy backend **every member's
  result is bitwise what the serial solver returns** for the same
  problem/settings/generator — iterates, statuses, messages, write
  counters, attempt records;
- only the *first* ladder attempt runs in lockstep.  Members whose
  attempt concludes (OPTIMAL / INFEASIBLE — in practice almost all of
  them) take their result straight from the batch; a member that needs
  the recovery ladder has its generator rewound to the pre-attempt
  state and re-runs the full serial ladder, reproducing attempt 1
  bitwise before escalating;
- per-member control flow (convergence, stalls, divergence,
  relaxed-feasibility exits) is evaluated with the *serial* helper
  functions on that member's vectors — only the analog tensor ops are
  batched.

Workloads that need the serial path fall back transparently: row
scaling, health probes, per-iteration tracing, warm starts, and
structural singletons all run the plain solver per problem.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.backend import Backend
from repro.core.crossbar_solver import CrossbarPDIPSolver
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
    SolverResult,
    SolveStatus,
    with_attempts,
)
from repro.core.settings import CrossbarSolverSettings
from repro.core.stepsize import ratio_test_theta
from repro.crossbar.opstack import AnalogOperatorStack
from repro.obs.clock import Stopwatch
from repro.reliability.policy import RecoveryPolicy
from repro.reliability.recovery import _record_for
from repro.reliability.telemetry import RecoveryAction

_CONCLUSIVE = (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)


def _group_key(system: AugmentedNewtonSystem) -> tuple:
    """Structural signature two systems must share to iterate in lockstep.

    The batched diagonal rewrite needs identical cell positions across
    the stack; those positions are fixed by the layout (n, m and the
    sign-pattern compensation counts), so the signature is the system
    size plus the exact diagonal-update coordinates.
    """
    rows, cols, _ = system.diagonal_update(
        np.zeros(system.n), np.zeros(system.m),
        np.zeros(system.m), np.zeros(system.n),
    )
    return (system.size, rows.tobytes(), cols.tobytes())


@dataclasses.dataclass
class _Member:
    """Per-member lockstep state mirroring one serial ``_solve_once``."""

    problem: LinearProgram
    system: AugmentedNewtonSystem
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray
    eps_primal: float
    eps_dual: float
    eps_gap: float
    divergence_bound: float
    collapse_bound: float
    best_score: float = np.inf
    best_state: tuple = ()
    stall: int = 0
    multiplies: int = 0
    solves: int = 0
    iterations: int = 0
    status: SolveStatus = SolveStatus.ITERATION_LIMIT
    message: str = ""
    reason: FailureReason = FailureReason.NONE
    done: bool = False

    def finish(self, status, message="", reason=FailureReason.NONE):
        self.status = status
        self.message = message
        self.reason = reason
        self.done = True


def _relaxed_ok(member: _Member, settings: CrossbarSolverSettings) -> bool:
    return member.problem.satisfies_relaxed_constraints(
        member.x,
        settings.alpha,
        member.problem.variation_row_tolerance(
            member.x, settings.variation.relative_magnitude
        ),
    )


def _lockstep_attempt(
    members: list[_Member],
    settings: CrossbarSolverSettings,
    seeds: list[int],
    backend: Backend | str | None,
) -> list[SolverResult]:
    """One cold recovery-ladder attempt for the whole group, batched.

    Mirrors ``CrossbarPDIPSolver._solve_once`` member-by-member; the
    construction, diagonal rewrites, multiplies and solves run as
    single stacked tensor ops.
    """
    k_members = len(members)
    size = members[0].system.size
    matrices = np.empty((k_members, size, size))
    for k, member in enumerate(members):
        matrices[k] = member.system.build_matrix(
            member.x, member.y, member.w, member.z
        )
    opstack = AnalogOperatorStack(
        matrices,
        params=settings.device,
        variation=settings.variation,
        rngs=[np.random.default_rng(seed) for seed in seeds],
        dac_bits=settings.dac_bits,
        adc_bits=settings.adc_bits,
        scale_headroom=settings.scale_headroom,
        off_state=settings.off_state,
        write_verify=settings.write_verify,
        backend=backend,
    )

    converter_bits = [
        bits
        for bits in (settings.dac_bits, settings.adc_bits)
        if bits is not None
    ]
    quant_rel = 3.0 * 2.0 ** -min(converter_bits) if converter_bits else 0.0
    diag_rows, diag_cols, _ = members[0].system.diagonal_update(
        members[0].x, members[0].y, members[0].w, members[0].z
    )

    for iteration in range(settings.max_iterations):
        active = [k for k in range(k_members) if not members[k].done]
        if not active:
            break
        mus = {}
        for k in active:
            member = members[k]
            mus[k] = centering_mu(
                member.x, member.y, member.w, member.z, settings.delta
            )
        if iteration:
            values = np.stack(
                [
                    members[k].system.diagonal_update(
                        members[k].x, members[k].y, members[k].w, members[k].z
                    )[2]
                    for k in active
                ]
            )
            opstack.update_coefficients(
                diag_rows,
                diag_cols,
                values,
                floor_to_representable=True,
                members=np.array(active),
            )

        # Compact tensors over the still-active members only: stragglers
        # near the iteration cap no longer drag the whole stack through
        # the analog ops (each member's row is computed independently,
        # so the subset results stay bitwise identical).
        state = np.empty((len(active), size))
        for pos, k in enumerate(active):
            member = members[k]
            state[pos] = member.system.state_vector(
                member.x, member.y, member.w, member.z
            )
        products = opstack.multiply(state, members=np.array(active))

        solving = []
        residual_rows = []
        for pos, k in enumerate(active):
            member = members[k]
            member.multiplies += 1
            residual = member.system.residual_from_product(
                products[pos], mus[k]
            )
            p_inf, d_inf = member.system.infeasibility_norms(residual)
            gap = duality_gap(member.x, member.y, member.w, member.z)
            lay = member.system.layout
            floor_p = quant_rel * float(
                np.abs(products[pos][lay.row_primal]).max(initial=0.0)
            )
            floor_d = quant_rel * float(
                np.abs(products[pos][lay.row_dual]).max(initial=0.0)
            )
            if converged(
                p_inf,
                d_inf,
                gap,
                eps_primal=max(member.eps_primal, floor_p),
                eps_dual=max(member.eps_dual, floor_d),
                eps_gap=member.eps_gap,
            ):
                member.finish(SolveStatus.OPTIMAL)
                continue

            score = max(
                p_inf / member.eps_primal,
                d_inf / member.eps_dual,
                gap / member.eps_gap,
            )
            if score < member.best_score * (1.0 - 1e-3):
                member.best_score = score
                member.best_state = (member.x, member.y, member.w, member.z)
                member.stall = 0
            else:
                member.stall += 1
                if member.stall >= settings.stall_iterations:
                    iterate_peak = max(
                        float(np.abs(member.x).max(initial=0.0)),
                        float(np.abs(member.y).max(initial=0.0)),
                    )
                    member.x, member.y, member.w, member.z = member.best_state
                    if iterate_peak > member.collapse_bound:
                        member.finish(
                            SolveStatus.INFEASIBLE, "stalled while diverging"
                        )
                    elif _relaxed_ok(member, settings):
                        member.finish(
                            SolveStatus.OPTIMAL,
                            "stalled at analog noise floor; relaxed "
                            "feasibility check passed",
                        )
                    else:
                        member.finish(
                            SolveStatus.ITERATION_LIMIT,
                            "stalled without a feasible iterate",
                            FailureReason.NO_FEASIBLE_ITERATE,
                        )
                    continue
            residual_rows.append(residual)
            solving.append(k)

        if not solving:
            continue
        deltas, errors = opstack.try_solve(
            np.stack(residual_rows), members=np.array(solving)
        )
        for pos, k in enumerate(solving):
            member = members[k]
            if errors[pos] is not None:
                iterate_peak = max(
                    float(np.abs(member.x).max(initial=0.0)),
                    float(np.abs(member.y).max(initial=0.0)),
                )
                if iterate_peak > member.collapse_bound:
                    member.finish(
                        SolveStatus.INFEASIBLE,
                        f"divergence collapsed the mapping: {errors[pos]}",
                    )
                else:
                    member.finish(
                        SolveStatus.NUMERICAL_FAILURE,
                        str(errors[pos]),
                        FailureReason.SINGULAR_SYSTEM,
                    )
                continue
            member.solves += 1
            dx, dy, dw, dz = member.system.extract_steps(deltas[pos])
            theta = ratio_test_theta(
                np.concatenate([member.x, member.y, member.w, member.z]),
                np.concatenate([dx, dy, dw, dz]),
                step_scale=settings.step_scale,
                ignore_below=settings.positivity_floor * 1e4,
            )
            floor = settings.positivity_floor
            member.x = np.maximum(member.x + theta * dx, floor)
            member.y = np.maximum(member.y + theta * dy, floor)
            member.w = np.maximum(member.w + theta * dw, floor)
            member.z = np.maximum(member.z + theta * dz, floor)
            member.iterations = iteration + 1

            divergence = detect_divergence(
                member.x, member.y, member.divergence_bound
            )
            if divergence is not DivergenceKind.NONE:
                member.finish(SolveStatus.INFEASIBLE, divergence.value)

    results = []
    for k, member in enumerate(members):
        if (
            member.status is SolveStatus.ITERATION_LIMIT
            and not member.message
        ):
            member.x, member.y, member.w, member.z = member.best_state
            if _relaxed_ok(member, settings):
                member.status = SolveStatus.OPTIMAL
                member.message = (
                    "iteration limit; accepted best feasible iterate"
                )
            else:
                member.message = "iteration limit without a feasible iterate"
                member.reason = FailureReason.NO_FEASIBLE_ITERATE

        if member.status is SolveStatus.OPTIMAL and not _relaxed_ok(
            member, settings
        ):
            member.status = SolveStatus.NUMERICAL_FAILURE
            member.message = "final constraint check A x <= alpha b failed"
            member.reason = FailureReason.FINAL_CHECK_FAILED

        if member.status in _CONCLUSIVE:
            member.reason = FailureReason.NONE

        report = opstack.write_reports[k]
        counters = CrossbarCounters(
            multiplies=member.multiplies,
            solves=member.solves,
            cells_written=report.cells_written,
            write_pulses=report.pulses,
            write_latency_s=report.latency_s,
            write_energy_j=report.energy_j,
            array_size=member.system.size,
            verify_reads=report.verify_reads,
            verify_repulsed=report.repulsed_cells,
            verify_unverified=report.unverified_cells,
        )
        results.append(
            SolverResult(
                status=member.status,
                x=member.x,
                y=member.y,
                w=member.w,
                z=member.z,
                objective=member.problem.objective(member.x),
                iterations=member.iterations,
                crossbar=counters,
                message=member.message,
                failure_reason=member.reason,
            )
        )
    return results


def _make_member(
    problem: LinearProgram,
    system: AugmentedNewtonSystem,
    settings: CrossbarSolverSettings,
) -> _Member:
    m, n = problem.A.shape
    x = np.full(n, settings.initial_value)
    z = np.full(n, settings.initial_value)
    y = np.full(m, settings.initial_value)
    w = np.full(m, settings.initial_value)
    gap0 = (n + m) * settings.initial_value**2
    member = _Member(
        problem=problem,
        system=system,
        x=x,
        y=y,
        w=w,
        z=z,
        eps_primal=settings.eps_primal
        * (1.0 + float(np.abs(problem.b).max(initial=0.0))),
        eps_dual=settings.eps_dual
        * (1.0 + float(np.abs(problem.c).max(initial=0.0))),
        eps_gap=settings.eps_gap * max(1.0, gap0),
        divergence_bound=scaled_big_m(problem, settings.big_m),
        collapse_bound=collapse_threshold(
            problem,
            settings.device.resistance_ratio,
            settings.scale_headroom,
        ),
    )
    member.best_state = (x, y, w, z)
    return member


def solve_crossbar_batch(
    problems: list[LinearProgram],
    settings: CrossbarSolverSettings | None = None,
    *,
    rngs: list[np.random.Generator] | None = None,
    recovery: RecoveryPolicy | None = None,
    trace: bool = False,
    backend: Backend | str | None = None,
    min_group: int = 2,
) -> list[SolverResult]:
    """Solve many LPs on batched crossbar fleets, bitwise == serial.

    Parameters
    ----------
    problems:
        The LPs to solve; arbitrary shapes (grouped internally).
    settings:
        One configuration shared by every solve.
    rngs:
        One generator per problem (defaults to fresh independent
        generators).  Each is consumed exactly as a serial
        ``solve_crossbar(problem, settings, rng=rng)`` call would —
        callers can mix batched and serial execution freely without
        perturbing downstream draws.
    recovery:
        Recovery policy (default: the paper's retry scheme).  Policies
        with a health probe fall back to serial execution.
    trace:
        Per-iteration tracing forces the serial path (trace records
        are inherently per-member).
    backend:
        Tensor backend for the batched analog ops (name, instance, or
        ``None`` for the config/env default).
    min_group:
        Smallest structural group worth stacking; smaller groups run
        serially.

    Returns the per-problem :class:`SolverResult` list, index-aligned
    with ``problems``.
    """
    settings = settings if settings is not None else CrossbarSolverSettings()
    if rngs is None:
        rngs = [np.random.default_rng() for _ in problems]
    if len(rngs) != len(problems):
        raise ValueError(
            f"need one generator per problem: {len(problems)} problems, "
            f"{len(rngs)} generators"
        )
    recovery = (
        recovery
        if recovery is not None
        else RecoveryPolicy.from_settings(settings)
    )

    def serial(index: int) -> SolverResult:
        solver = CrossbarPDIPSolver(
            problems[index], settings, rng=rngs[index], recovery=recovery
        )
        return solver.solve(trace=trace)

    results: list[SolverResult | None] = [None] * len(problems)
    batchable = not (
        trace or settings.row_scaling or recovery.probe is not None
    )
    if not batchable:
        return [serial(index) for index in range(len(problems))]

    systems = [AugmentedNewtonSystem(problem) for problem in problems]
    groups: dict[tuple, list[int]] = {}
    for index, system in enumerate(systems):
        groups.setdefault(_group_key(system), []).append(index)

    for indices in groups.values():
        if len(indices) < max(2, min_group):
            for index in indices:
                results[index] = serial(index)
            continue
        # Mirror the serial ladder's attempt bookkeeping: snapshot each
        # generator, then draw the attempt seed from it exactly as
        # solve_with_recovery does.
        snapshots = [rngs[index].bit_generator.state for index in indices]
        seeds = [int(rngs[index].integers(0, 2**63)) for index in indices]
        members = [
            _make_member(problems[index], systems[index], settings)
            for index in indices
        ]
        with Stopwatch() as clock:
            attempt_results = _lockstep_attempt(
                members, settings, seeds, backend
            )
        for pos, index in enumerate(indices):
            result = attempt_results[pos]
            if result.status in _CONCLUSIVE:
                record = _record_for(
                    0, RecoveryAction.INITIAL, result, seeds[pos], None
                )
                results[index] = dataclasses.replace(
                    with_attempts(result, [record]),
                    elapsed_seconds=clock.elapsed_seconds,
                )
            else:
                # Inconclusive first attempt: rewind this member's
                # generator to before the seed draw and run the full
                # serial recovery ladder — it reproduces attempt 1
                # bitwise, then escalates.
                rngs[index].bit_generator.state = snapshots[pos]
                results[index] = serial(index)
    return results
