"""The benchmark's workloads, driven through the public API.

Each workload is a fixed amount of work derived from ``--seed`` and
``--seconds``: ``units`` independent units (one service batch or one
sweep grid), each with its own seed drawn from ``(seed, unit)``.  The
amount of work never depends on the clock, so every simulated
statistic repeats exactly at one seed, and many small independent
units average out how much one seed's instances differ from
another's.

A workload object is built during set-up (inputs generated, services
and sweep configs constructed), runs one unit per :meth:`run` call
(the only code inside the timed region, which calls ``meter.mark()``
at every request's conclusion), and turns a unit's raw
results into :class:`Outcome` rows with :meth:`conclude`, which also
computes the scipy HiGHS ground truth outside the timed region.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.metrics import relative_error
from repro.baselines.scipy_linprog import solve_scipy
from repro.core import batch_solver
from repro.core.result import SolveStatus
from repro.costmodel import estimate_energy, estimate_latency
from repro.experiments import accuracy, engine, runner
from repro.experiments.runner import SweepConfig, settings_for
from repro.service import (
    ResolveSpec,
    ServiceConfig,
    SolverService,
    build_problem,
    build_resolve_problem,
    synthesize_jobs,
)

CONCLUSIVE = (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One concluded request, judged against its ground truth.

    ``latency_s`` is host time from first dispatch to conclusion; every
    other field is simulated and repeats exactly at one seed.
    ``rel_error`` is the objective error against HiGHS on a solved
    feasible request (``None`` otherwise).  ``model_latency_s`` /
    ``model_energy_j`` are the cost model's pricing of the solve
    counters (0 when the request never reached the crossbar, e.g. a
    presolve-screened job).
    """

    request: str
    status: SolveStatus
    expected: SolveStatus
    rel_error: float | None
    iterations: int
    cells_written: int
    model_latency_s: float
    model_energy_j: float
    latency_s: float
    attempts: int = 1
    requeues: int = 0
    warm_placements: int = 0
    cold_placements: int = 0
    screened: bool = False

    @property
    def solved(self) -> bool:
        """The outcome is the conclusive label the ground truth has."""
        return self.status in CONCLUSIVE and self.status is self.expected

    @property
    def wrong(self) -> bool:
        """A conclusive label that contradicts the ground truth."""
        return self.status in CONCLUSIVE and self.status is not self.expected

    def simulated(self) -> tuple:
        """Every field that must repeat exactly at one seed."""
        return dataclasses.astuple(
            dataclasses.replace(self, latency_s=0.0)
        )


def unit_count(workload_cls, seconds: float) -> int:
    """Distinct units for a run: fixed by ``--seconds``, not the clock."""
    return max(1, round(seconds / workload_cls.unit_seconds))


def unit_seed(seed: int, unit: int) -> int:
    """The seed of one unit, derived from the benchmark seed."""
    state = np.random.SeedSequence([seed, unit]).generate_state(1)
    return int(state[0])


def _truth(problem):
    truth = solve_scipy(problem)
    if truth.status not in CONCLUSIVE:
        raise RuntimeError(
            f"HiGHS gave {truth.status.value} on {problem.name!r}; the "
            "generated input has no ground truth"
        )
    return truth


def _record_outcome(record, problem, settings, truth) -> Outcome:
    """Judge one service :class:`~repro.service.JobRecord`."""
    if record.spec.kind == "infeasible" and (
        truth.status is not SolveStatus.INFEASIBLE
    ):
        raise RuntimeError(
            f"planted-infeasible job {record.spec.job_id} is feasible "
            "per HiGHS"
        )
    result = record.result
    analog = [a for a in record.attempts if a.member is not None]
    solved_feasible = result.status is truth.status is SolveStatus.OPTIMAL
    return Outcome(
        request=record.spec.job_id,
        status=result.status,
        expected=truth.status,
        rel_error=(
            relative_error(result.objective, truth.objective)
            if solved_feasible
            else None
        ),
        iterations=sum(a.iterations for a in record.attempts),
        cells_written=sum(a.cells_written for a in record.attempts),
        # JobRecord keeps only the final attempt's analog counters, so
        # modeled latency prices that attempt; energy is the record's
        # own sum over every attempt.
        model_latency_s=(
            estimate_latency(result, settings.device).total_s
            if result.crossbar is not None
            else 0.0
        ),
        model_energy_j=record.energy_j,
        latency_s=record.elapsed_seconds,
        attempts=len(record.attempts),
        requeues=record.requeues,
        warm_placements=sum(1 for a in analog if a.warm),
        cold_placements=sum(1 for a in analog if not a.warm),
        screened=result.failure_reason.value == "infeasible_presolve",
    )


class ServeSmall:
    """Closed loop of small-LP batches through ``SolverService.batch``.

    One driver thread hands each unit's list to a fresh service (one
    worker, a pool of 2, default presolve, probe and breakers): 40
    ``synthesize_jobs`` jobs (24 constraints, 4 structure groups, 5%
    device variation, every 10th job planted infeasible), then a chain
    of ``resolves`` warm re-solves of the first job at 2% drift, the
    rolling-horizon pattern that routes by fingerprint and warm-starts
    from the previous optimum.
    """

    name = "serve-small"
    unit_seconds = 2.3

    def __init__(
        self,
        seed: int,
        units: int,
        *,
        jobs: int = 40,
        resolves: int = 4,
        passes: int = 1,
    ) -> None:
        self.specs = synthesize_jobs(
            jobs,
            groups=4,
            constraints=24,
            variation=5.0,
            infeasible_every=10,
        )
        base = self.specs[0].job_id
        for step in range(resolves):
            job_id = f"{self.specs[0].job_id}-r{step:02d}"
            self.specs.append(
                ResolveSpec(job_id=job_id, base_job_id=base, perturb=0.02)
            )
            base = job_id
        self.services = [
            [
                SolverService(
                    ServiceConfig(
                        pool_size=2,
                        workers=1,
                        base_seed=unit_seed(seed, unit),
                    ),
                    clock=self._clock,
                )
                for _ in range(passes)
            ]
            for unit in range(units)
        ]
        # HiGHS ground truth per (unit, job), shared by the passes.
        self._truths: dict = {}
        # The meter of the run in progress; the services time their
        # requests with its clock.
        self._meter = None

    def run(self, unit: int, pass_no: int, meter):
        self._meter = meter
        records, _summary = self.services[unit][pass_no].batch(
            self.specs, on_record=lambda _record: meter.mark()
        )
        return records

    def _clock(self) -> float:
        return self._meter.clock()

    def conclude(self, unit: int, records) -> list[Outcome]:
        config = self.services[unit][0].config
        problems = {}
        outcomes = []
        for record in records:
            spec = record.spec
            if isinstance(spec, ResolveSpec):
                problem = build_resolve_problem(
                    spec, problems[spec.base_job_id], config.base_seed
                )
            else:
                problem = build_problem(spec, config.base_seed)
            problems[spec.job_id] = problem
            key = (unit, spec.job_id)
            if key not in self._truths:
                self._truths[key] = _truth(problem)
            outcomes.append(
                _record_outcome(
                    record, problem, config.settings, self._truths[key]
                )
            )
        return outcomes


class _ResultTap:
    """Keeps every :class:`SolverResult` the accuracy trials produce.

    The sweep's payloads carry no analog counters, so the benchmark
    routes the two solver entry points the accuracy experiment looks
    up through this tap: one list append per solve, no timing.  The
    tap calls the real functions through their home modules, so a
    traced run's wrappers there still see every call.
    """

    def __init__(self) -> None:
        self.results: list = []

    def install(self) -> None:
        accuracy.solve_crossbar_batch = self._batch
        accuracy.solver_for = self._solver_for

    def _batch(self, *args, **kwargs):
        results = batch_solver.solve_crossbar_batch(*args, **kwargs)
        self.results.extend(results)
        return results

    def _solver_for(self, *args, **kwargs):
        solve = runner.solver_for(*args, **kwargs)

        def tapped(problem, rng):
            result = solve(problem, rng)
            self.results.append(result)
            return result

        return tapped


class SweepFig5:
    """The Fig. 5 accuracy sweep through ``run_sweep``, inline.

    Each unit is the grid sizes 16/32/64 at 10% device variation, two
    trials per cell, run twice: Solver 1 with ``batch_trials=True``
    (the batched engine) and Solver 2 per trial.  Ground truth is the
    scipy HiGHS solve each trial makes itself.  There is one variation
    so that each of the six (solver, size) populations holds a sixth
    of the requests, and p75 falls inside one of them instead of on the
    edge between two (see README).
    """

    name = "sweep-fig5"
    unit_seconds = 1.6
    solvers = (("crossbar", True), ("large_scale", False))

    def __init__(
        self,
        seed: int,
        units: int,
        *,
        sizes: tuple[int, ...] = (16, 32, 64),
        trials: int = 2,
        passes: int = 1,  # the sweep keeps no state between passes
    ) -> None:
        self.configs = [
            SweepConfig(
                sizes=sizes,
                variations=(10,),
                trials=trials,
                seed=unit_seed(seed, unit),
            )
            for unit in range(units)
        ]
        self.tap = _ResultTap()

    def run(self, unit: int, pass_no: int, meter):
        self.tap.install()
        runs = []
        for solver, batch in self.solvers:
            del self.tap.results[:]
            sweep = engine.run_sweep(
                "accuracy",
                solver,
                self.configs[unit],
                batch_trials=batch,
                progress=lambda _outcome: meter.mark(),
            )
            runs.append((solver, sweep, list(self.tap.results)))
        return runs

    def conclude(self, unit: int, runs) -> list[Outcome]:
        outcomes = []
        for solver, sweep, results in runs:
            if sweep.failures:
                raise RuntimeError(
                    f"{solver} sweep: {len(sweep.failures)} cells crashed"
                )
            # Trials whose HiGHS truth is not optimal never reach the
            # solver; the rest pair with the tapped results in order.
            counted = [o for o in sweep.outcomes if o.payload["counted"]]
            if len(counted) != len(results):
                raise RuntimeError(
                    f"{solver} sweep: {len(results)} solves for "
                    f"{len(counted)} counted trials"
                )
            for cell, result in zip(counted, results):
                key = cell.key
                device = settings_for(solver, key.variation).device
                outcomes.append(
                    Outcome(
                        request=(
                            f"{solver}/{key.size}/{key.variation}/"
                            f"{key.trial}"
                        ),
                        status=result.status,
                        expected=SolveStatus.OPTIMAL,
                        # The error the trial computed against its own
                        # HiGHS solve; present only when solved.
                        rel_error=cell.payload.get("error"),
                        iterations=result.iterations,
                        cells_written=result.crossbar.cells_written,
                        model_latency_s=estimate_latency(
                            result, device
                        ).total_s,
                        model_energy_j=estimate_energy(
                            result, device
                        ).total_j,
                        latency_s=result.elapsed_seconds,
                    )
                )
        return outcomes


WORKLOADS = {cls.name: cls for cls in (ServeSmall, SweepFig5)}
