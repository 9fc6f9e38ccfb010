"""The benchmark's simulated statistics are exact functions of the seed.

Runs a short version of each workload twice at one seed and requires
every simulated field of every outcome, and every simulated metric, to
repeat exactly; then once at a second seed, which must give different
outcomes, so the seed really is the benchmark's argument.  Run from
the root of a checkout::

    python3 -m pytest e2ebench/test_determinism.py -q
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

UNITS = 2


def simulate(name: str, seed: int):
    cls = workloads.WORKLOADS[name]
    workload = cls(seed, UNITS, **run.WARMUP[name])
    outcomes = []
    for unit in range(UNITS):
        raw = workload.run(unit, 0, run.Meter())
        outcomes.extend(workload.conclude(unit, raw))
    return (
        [o.simulated() for o in outcomes],
        run.simulated_metrics(outcomes),
        run.accuracy(outcomes),
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_simulated_statistics_repeat_exactly(name):
    first = simulate(name, 11)
    assert first[0]
    assert simulate(name, 11) == first
    assert simulate(name, 12)[0] != first[0]
