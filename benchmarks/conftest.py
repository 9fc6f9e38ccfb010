"""Shared benchmark configuration.

The paper's full grid (constraints to 1024, 100 trials per cell, four
variation levels) takes hours of simulation; the benchmark suite runs
a scaled-down grid by default so ``pytest benchmarks/
--benchmark-only`` completes in minutes while preserving every
figure's *shape* (who wins, how errors trend with size/variation).

Set ``REPRO_BENCH_SCALE=paper`` to run the full Section 4.2 grid.

Set ``REPRO_BENCH_OUT=<dir>`` to have benches that use the
``perf_record`` fixture drop machine-readable ``BENCH_<name>.json``
performance records (plus any trace/metrics artifacts) there — CI
uploads that directory.

BLAS/OpenMP threads are pinned to one (unless the environment already
sets them) before numpy is first imported: pool sizes are fixed when
numpy loads, and unpinned threads made the same run up to 2.5x slower
on a 2-core machine.  Every record carries the effective settings.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
#: False when something imported numpy before this file could pin it,
#: in which case the variables above did not size its thread pools.
PINNED_BEFORE_NUMPY = "numpy" not in sys.modules

import json  # noqa: E402
import pathlib  # noqa: E402
import time  # noqa: E402

import pytest  # noqa: E402

from repro.experiments import SweepConfig, paper_scale  # noqa: E402


def bench_config() -> SweepConfig:
    """The sweep grid benchmarks run (env-switchable)."""
    if os.environ.get("REPRO_BENCH_SCALE") == "paper":
        return paper_scale()
    return SweepConfig(
        sizes=(8, 16, 32, 64),
        variations=(0, 5, 10, 20),
        trials=3,
    )


def quick_config() -> SweepConfig:
    """A minimal grid for the heavier per-cell experiments."""
    if os.environ.get("REPRO_BENCH_SCALE") == "paper":
        return paper_scale()
    return SweepConfig(sizes=(16, 48), variations=(0, 10), trials=3)


@pytest.fixture(scope="session")
def sweep_config():
    return bench_config()


@pytest.fixture(scope="session")
def small_sweep_config():
    return quick_config()


def bench_out_dir() -> pathlib.Path | None:
    """The artifact directory, or ``None`` when REPRO_BENCH_OUT unset."""
    out = os.environ.get("REPRO_BENCH_OUT")
    if not out:
        return None
    path = pathlib.Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(autouse=True)
def perf_record(request):
    """Fill the yielded dict; it lands in BENCH_<test>.json on teardown.

    Autouse: *every* benchmark emits a record uniformly.  The fixture
    stamps the common envelope (bench name, benchmark group, fixture
    wall-clock, and — when the test used the ``benchmark`` fixture —
    its timing stats); tests add their own metrics on top.  A no-op
    (the dict is discarded) when ``REPRO_BENCH_OUT`` is unset, so
    local runs leave no files behind.
    """
    record: dict = {}
    bench = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    start = time.perf_counter()
    yield record
    out = bench_out_dir()
    if out is None:
        return
    record.setdefault("bench", request.node.name)
    marker = request.node.get_closest_marker("benchmark")
    if marker is not None and "group" in marker.kwargs:
        record.setdefault("group", marker.kwargs["group"])
    record.setdefault(
        "elapsed_seconds", round(time.perf_counter() - start, 6)
    )
    record.setdefault(
        "threads",
        {var: os.environ.get(var) for var in THREAD_VARS}
        | {"pinned_before_numpy": PINNED_BEFORE_NUMPY},
    )
    stats = getattr(getattr(bench, "stats", None), "stats", None)
    if stats is not None and stats.data:
        record.setdefault("wall_seconds_mean", float(stats.mean))
        record.setdefault("wall_seconds_min", float(stats.min))
        record.setdefault("rounds", len(stats.data))
    name = request.node.name.replace("/", "_")
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
