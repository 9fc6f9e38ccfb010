"""Throughput of the batched analog engine vs. the serial loop.

The batched engine's reason to exist: evaluating a fleet of K
same-shape operators as one ``(K, n, m)`` tensor op instead of K
python-level round-trips.  This bench stands up a 16-member fleet of
64x64 operators twice — once as serial
:class:`~repro.crossbar.ops.AnalogMatrixOperator` instances, once as
one :class:`~repro.crossbar.opstack.AnalogOperatorStack` — and times
the composite PDIP fleet iteration (diagonal update + analog multiply
+ analog solve) plus each primitive on its own.

The recorded headline is the composite-iteration speedup; the
assertion gates at 2x (CI machines are noisy), while the local target
the engine was built against is 3x.

The end-to-end bench solves the accuracy sweep's LPs both ways —
``solve_crossbar_batch`` against a serial ``solve_crossbar`` loop —
asserts bitwise-equal results and records the batched/serial wall
ratio per size.  It has no speed gate yet: it is the first whole-solve
measurement of the batched engine.
"""

import time

import numpy as np
import pytest

from repro.core.batch_solver import solve_crossbar_batch
from repro.core.crossbar_solver import solve_crossbar
from repro.crossbar.ops import AnalogMatrixOperator
from repro.crossbar.opstack import AnalogOperatorStack
from repro.devices.variation import UniformVariation
from repro.experiments.runner import SweepConfig, cell_seed, settings_for
from repro.workloads.random_lp import random_feasible_lp

K = 16
N = 64
ROUNDS = 30


def make_fleet():
    """K serial operators and one stack holding identical matrices."""
    gen = np.random.default_rng(7)
    matrices = gen.uniform(0.1, 1.0, size=(K, N, N)) + 2.0 * np.eye(N)
    serial = [
        AnalogMatrixOperator(
            matrices[k],
            variation=UniformVariation(0.05),
            rng=np.random.default_rng(100 + k),
        )
        for k in range(K)
    ]
    stack = AnalogOperatorStack(
        matrices,
        variation=UniformVariation(0.05),
        rngs=[np.random.default_rng(100 + k) for k in range(K)],
    )
    return serial, stack, gen


def timed(fn, rounds=ROUNDS):
    """Best-of-rounds wall-clock of ``fn`` (after one warmup call)."""
    fn()
    best = np.inf
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="batched-engine")
def test_fleet_iteration_speedup(perf_record):
    serial, stack, gen = make_fleet()
    rows = np.arange(N)
    cols = np.arange(N)
    # Diagonal values below the initial coefficient peak, so neither
    # arm ever remaps mid-bench and both do identical work.
    values = gen.uniform(0.2, 0.9, size=(K, N))
    state = gen.uniform(-1.0, 1.0, size=(K, N))
    rhs = gen.uniform(-1.0, 1.0, size=(K, N))

    def serial_iteration():
        for k, op in enumerate(serial):
            op.update_coefficients(
                rows, cols, values[k], floor_to_representable=True
            )
            op.multiply(state[k])
            op.solve(rhs[k])

    def batched_iteration():
        stack.update_coefficients(
            rows, cols, values, floor_to_representable=True
        )
        stack.multiply(state)
        stack.solve(rhs)

    serial_s = timed(serial_iteration)
    batched_s = timed(batched_iteration)
    speedup = serial_s / batched_s

    perf_record.update(
        group="batched-engine",
        members=K,
        size=N,
        serial_iteration_us=round(serial_s * 1e6, 1),
        batched_iteration_us=round(batched_s * 1e6, 1),
        speedup=round(speedup, 2),
    )
    assert speedup >= 2.0, (
        f"batched fleet iteration only {speedup:.2f}x the serial loop "
        f"({batched_s * 1e6:.0f}us vs {serial_s * 1e6:.0f}us)"
    )


@pytest.mark.benchmark(group="batched-engine")
def test_primitive_speedups(perf_record):
    serial, stack, gen = make_fleet()
    rows = np.arange(N)
    cols = np.arange(N)
    values = gen.uniform(0.2, 0.9, size=(K, N))
    state = gen.uniform(-1.0, 1.0, size=(K, N))
    rhs = gen.uniform(-1.0, 1.0, size=(K, N))

    ratios = {}
    arms = {
        "update": (
            lambda: [
                op.update_coefficients(
                    rows, cols, values[k], floor_to_representable=True
                )
                for k, op in enumerate(serial)
            ],
            lambda: stack.update_coefficients(
                rows, cols, values, floor_to_representable=True
            ),
        ),
        "multiply": (
            lambda: [op.multiply(state[k]) for k, op in enumerate(serial)],
            lambda: stack.multiply(state),
        ),
        "solve": (
            lambda: [op.solve(rhs[k]) for k, op in enumerate(serial)],
            lambda: stack.solve(rhs),
        ),
    }
    for name, (serial_fn, batched_fn) in arms.items():
        serial_s = timed(serial_fn)
        batched_s = timed(batched_fn)
        ratios[name] = serial_s / batched_s
        perf_record[f"{name}_serial_us"] = round(serial_s * 1e6, 1)
        perf_record[f"{name}_batched_us"] = round(batched_s * 1e6, 1)
        perf_record[f"{name}_speedup"] = round(ratios[name], 2)
    perf_record.update(group="batched-engine", members=K, size=N)
    # Every primitive must at least break even; multiply is the
    # strongest (pure BLAS batching), solve the weakest (LAPACK is
    # already vectorized per member).
    assert all(ratio >= 1.0 for ratio in ratios.values()), ratios


#: (constraints, trials): the accuracy sweep's K=2 cells, plus one
#: wide fleet.
END_TO_END_CELLS = ((16, 2), (32, 2), (64, 2), (32, 16))
VARIATION = 10


def sweep_trials(size, trials, config):
    """The accuracy sweep's LPs and solver generators for one cell.

    Fresh generators on every call (seed derivation as in
    ``accuracy_trial``), so both arms start from the same streams.
    """
    problems, rngs = [], []
    for trial in range(trials):
        seed = cell_seed(config, size, VARIATION, trial)
        problems.append(
            random_feasible_lp(size, rng=np.random.default_rng(seed))
        )
        rngs.append(np.random.default_rng(seed.spawn(1)[0]))
    return problems, rngs


def result_key(result):
    return (
        result.status,
        result.iterations,
        result.message,
        result.x.tobytes(),
        result.crossbar,
    )


def measure_cell(size, trials, config, settings, rounds=3):
    """Best-of-rounds wall of both arms (alternated) and their results."""
    best = {"serial": np.inf, "batched": np.inf}
    keys = {}
    for _ in range(rounds):
        problems, rngs = sweep_trials(size, trials, config)
        start = time.perf_counter()
        serial = [
            solve_crossbar(problem, settings, rng=rng)
            for problem, rng in zip(problems, rngs)
        ]
        best["serial"] = min(best["serial"], time.perf_counter() - start)
        problems, rngs = sweep_trials(size, trials, config)
        start = time.perf_counter()
        batched = solve_crossbar_batch(problems, settings, rngs=rngs)
        best["batched"] = min(best["batched"], time.perf_counter() - start)
        keys = {
            "serial": [result_key(r) for r in serial],
            "batched": [result_key(r) for r in batched],
        }
    return best, keys


@pytest.mark.benchmark(group="batched-engine")
def test_end_to_end_batched_vs_serial(benchmark, perf_record):
    config = SweepConfig(sizes=(16, 32, 64), variations=(VARIATION,))
    settings = settings_for("crossbar", VARIATION)

    def run():
        return {
            (size, trials): measure_cell(size, trials, config, settings)
            for size, trials in END_TO_END_CELLS
        }

    cells = {}
    for (size, trials), (best, keys) in benchmark.pedantic(
        run, rounds=1, iterations=1
    ).items():
        assert keys["batched"] == keys["serial"], (size, trials)
        cells[f"m{size}_k{trials}"] = {
            "serial_s": round(best["serial"], 4),
            "batched_s": round(best["batched"], 4),
            "batched_over_serial": round(
                best["batched"] / best["serial"], 3
            ),
            "iterations": [key[1] for key in keys["serial"]],
        }
    perf_record.update(
        group="batched-engine", variation=VARIATION, cells=cells
    )
