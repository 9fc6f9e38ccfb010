"""End-to-end benchmark of the crossbar LP solver: one command.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload serve-small --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
self-time table.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The command exits
1 when the correctness gate fails.  See ``e2ebench/README.md``.
"""

import os

# BLAS threads must be pinned before numpy is first imported: unpinned
# threads make the same run up to 2.5x slower on a 2-core machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import reference  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Set-up is measured this many times before the timed phase and as many
#: times after it, each in a fresh process, and reported as the minimum:
#: the machine's speed drifts over minutes, and the fastest probe of a run
#: moves far less from run to run than the median does.
SETUP_PROBES = 3

CALL_COUNT_LAYERS = ("crossbar.multiply", "crossbar.solve", "reliability.probe")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: build the workload, print 'ready' and exit",
    )
    return parser.parse_args(argv)


def import_workloads():
    """Import the workload module from this checkout's ``src``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"e2ebench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout"
        )
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def setup_probe(args) -> None:
    """Child side of a set-up measurement: imports, inputs, services."""
    workloads = import_workloads()
    cls = workloads.WORKLOADS[args.workload]
    cls(args.seed, workloads.unit_count(cls, args.seconds))
    print("ready", flush=True)


def measure_setup(args, probes: int) -> tuple[list[float], list[float]]:
    """Process start to ready-for-the-first-request, in fresh processes.

    Returns the probe times and an import reading taken just before
    each probe.
    """
    samples = []
    readings = []
    command = [
        sys.executable,
        str(pathlib.Path(__file__).resolve()),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    for _ in range(probes):
        readings.append(reference.import_reading())
        start = time.perf_counter()
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"e2ebench: set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples, readings


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def environment() -> dict:
    """Machine and library facts recorded beside every result."""
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {
            key: deps[key].get("name", "") + " " + deps[key].get("version", "")
            for key in ("blas", "lapack")
            if key in deps
        }
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def accuracy(outcomes) -> float:
    """Geometric mean relative objective error of the solved requests.

    Errors span decades (Solver 1 vs 2, size to size), so a
    median falls in the gap between populations; the geometric mean
    does not.  Errors below 1e-15 count as 1e-15.
    """
    errors = [o.rel_error for o in outcomes if o.rel_error is not None]
    if not errors:
        return float("nan")
    return statistics.geometric_mean(max(e, 1e-15) for e in errors)


def simulated_metrics(outcomes) -> dict:
    """Simulated statistics: exact functions of the seed."""
    count = len(outcomes)
    return {
        "solved_ratio": (sum(o.solved for o in outcomes) / count, "ratio"),
        "iterations_per_solve": (
            sum(o.iterations for o in outcomes) / count,
            "count",
        ),
        "cells_written_per_solve": (
            sum(o.cells_written for o in outcomes) / count,
            "count",
        ),
        "model_latency_us_per_solve": (
            sum(o.model_latency_s for o in outcomes) / count * 1e6,
            "us",
        ),
        "model_energy_uj_per_solve": (
            sum(o.model_energy_j for o in outcomes) / count * 1e6,
            "uJ",
        ),
    }


def host_metrics(outcomes, walls, setup_s: float) -> dict:
    """Host (simulator wall-clock) metrics of the untraced run.

    The caller brings ``walls``, the outcomes' latencies and
    ``setup_s`` to the reference speed (see :class:`Meter` and
    :func:`setup_scale`).
    """
    wall = sum(walls)
    latencies = [o.latency_s for o in outcomes]
    iterations = sum(o.iterations for o in outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (len(outcomes) / wall, "1/s"),
        # A sweep's requests form 6 equal populations (solver x size),
        # so a median falls between two of them; the geometric mean
        # weighs every population alike.
        "solve_latency_gmean_ms": (
            statistics.geometric_mean(max(l, 1e-9) for l in latencies)
            * 1e3,
            "ms",
        ),
        "solve_latency_p75_ms": (quantile(latencies, 0.75) * 1e3, "ms"),
        "host_ms_per_iteration": (wall / iterations * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def layer_metrics(outcomes, spans, traced_wall, untraced_wall):
    """Per-layer metrics of the traced run, plus the replay table."""
    from layertrace import LAYERS, replay

    self_s, calls = replay(spans)
    count = len(outcomes)
    table = []
    metrics = {}
    for layer in LAYERS:
        ms = self_s.get(layer, 0.0) * 1e3 / count
        per_solve = calls.get(layer, 0) / count
        share = self_s.get(layer, 0.0) / traced_wall
        table.append((layer, ms, per_solve, share))
        metrics[f"{layer}.self_ms_per_solve"] = (ms, "ms")
        if layer in CALL_COUNT_LAYERS:
            metrics[f"{layer}.calls_per_solve"] = (per_solve, "count")
    analog = sum(o.warm_placements + o.cold_placements for o in outcomes)
    warm = sum(o.warm_placements for o in outcomes)
    metrics["service.attempts_per_solve"] = (
        sum(o.attempts for o in outcomes) / count,
        "count",
    )
    metrics["service.requeues_per_solve"] = (
        sum(o.requeues for o in outcomes) / count,
        "count",
    )
    metrics["service.cache_hit_ratio"] = (
        warm / analog if analog else 0.0,
        "ratio",
    )
    metrics["presolve.screened_ratio"] = (
        sum(o.screened for o in outcomes) / count,
        "ratio",
    )
    metrics["crossbar.program.cells_per_solve"] = (
        sum(o.cells_written for o in outcomes) / count,
        "count",
    )
    covered = sum(self_s.values())
    metrics["trace.coverage_ratio"] = (covered / traced_wall, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics, table


def render_table(table, traced_wall) -> str:
    lines = [f"{'layer':<20} {'self ms/solve':>14} {'calls/solve':>12} "
             f"{'share of wall':>14}"]
    for layer, ms, per_solve, share in table:
        lines.append(
            f"{layer:<20} {ms:>14.4f} {per_solve:>12.2f} {share:>14.2%}"
        )
    lines.append(
        f"{'(all layers)':<20} {'':>14} {'':>12} "
        f"{sum(row[3] for row in table):>14.2%}"
    )
    return "\n".join(lines)


class Meter:
    """Times one run of a unit in pieces, with a reference reading after each.

    The workload calls :meth:`mark` at every request's conclusion, which
    ends the current piece and takes a reading of
    :func:`reference.reading`.  The readings are left out of the pieces
    and out of :meth:`clock`, the clock the service times its requests
    with, so neither the unit's wall nor a request's latency contains
    them.  The traced run takes no readings (``read=False``), so that
    they do not land in the self time of the spans around them.
    """

    def __init__(self, read: bool = True) -> None:
        self.read = read
        self.pieces: list[float] = []
        self.readings: list[float] = []
        self.paused = 0.0
        self._start = time.perf_counter()

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def mark(self) -> None:
        end = time.perf_counter()
        self.pieces.append(end - self._start)
        if self.read:
            self.readings.append(reference.reading())
        self._start = time.perf_counter()
        self.paused += self._start - end


def run_passes(workload, units: int, traced: tuple, log=None):
    """Run every unit once per pass; return its meters and raw results.

    Pass ``p`` runs all units, traced when ``traced[p]``.
    """
    meters = [[None] * len(traced) for _ in range(units)]
    raws = [[None] * len(traced) for _ in range(units)]
    for pass_no, with_trace in enumerate(traced):
        if with_trace:
            log.install()
        try:
            for unit in range(units):
                gc.collect()
                meter = Meter(read=log is None)
                raws[unit][pass_no] = workload.run(unit, pass_no, meter)
                meter.mark()
                meters[unit][pass_no] = meter
        finally:
            if with_trace:
                log.remove()
    return meters, raws


def setup_scale(readings) -> float:
    """The factor that brings the fastest set-up probe to the reference
    speed: the nominal import reading over the fastest one of the run."""
    return reference.NOMINAL_IMPORT_S / min(readings)


def speed_scale(meter: Meter) -> float:
    """The factor that brings one unit's host times to the reference speed:
    the nominal reading over the mean of the unit's readings."""
    return reference.NOMINAL_S / statistics.fmean(meter.readings)


def judge(workload, units: int, raws):
    """Outcomes of every unit, one list per unit, from the first pass.

    Also returns the requests whose simulated fields differed between
    passes over identical work (a determinism failure).
    """
    outcomes = [[] for _ in range(units)]
    diverged = []
    for unit in range(units):
        passes = [workload.conclude(unit, raw) for raw in raws[unit]]
        for same in zip(*passes):
            if len({o.simulated() for o in same}) != 1:
                diverged.append(same[0].request)
            outcomes[unit].append(same[0])
    return outcomes, diverged


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = import_workloads()
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(
            f"e2ebench: unknown workload {args.workload!r}; expected one "
            f"of {sorted(workloads.WORKLOADS)}"
        )
    setup, setup_readings = (
        measure_setup(args, SETUP_PROBES) if args.trace == 0 else ([], [])
    )
    units = workloads.unit_count(cls, args.seconds)
    passes = (False,)
    if args.trace == 1:
        # The traced run measures half the units, each untraced and
        # traced, so it takes about as long as the untraced run.
        units = max(1, units // 2)
        passes = (False, True)
    workload = cls(args.seed, units, passes=len(passes))

    # Warm-up on a separate short input: lazy imports and first-call
    # costs are paid once per process, not per request.
    warmup = cls(args.seed + 1_000_003, 1, **WARMUP[args.workload])
    warmup.run(0, 0, Meter())

    log = None
    if args.trace == 1:
        from layertrace import SpanLog

        log = SpanLog()
    meters, raws = run_passes(workload, units, passes, log)
    walls = [[sum(m.pieces) for m in unit] for unit in meters]
    if args.trace == 0:
        more, more_readings = measure_setup(args, SETUP_PROBES)
        setup += more
        setup_readings += more_readings
    per_unit, diverged = judge(workload, units, raws)
    outcomes = [o for unit in per_unit for o in unit]
    wrong = [o.request for o in outcomes if o.wrong]
    failed = sum(1 for o in outcomes if not o.solved)

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{len(outcomes)} requests in {units} units x "
          f"{len(passes)} passes; "
          "unit walls (s): "
          + "; ".join(" ".join(f"{w:.3f}" for w in pair) for pair in walls))
    record = {"environment": env, "unit_walls_s": walls}
    if args.trace == 0:
        scales = [speed_scale(unit[0]) for unit in meters]
        unit_walls = [unit[0] for unit in walls]
        named = host_metrics(
            [
                dataclasses.replace(o, latency_s=o.latency_s * scale)
                for unit, scale in zip(per_unit, scales)
                for o in unit
            ],
            [wall * scale for wall, scale in zip(unit_walls, scales)],
            min(setup) * setup_scale(setup_readings),
        )
        unscaled = {
            name: value
            for name, (value, _unit) in host_metrics(
                outcomes, unit_walls, min(setup)
            ).items()
        }
        print("speed scales: " + " ".join(f"{s:.4f}" for s in scales))
        print("unscaled: " + json.dumps(unscaled))
        record.update(
            speed_scales=scales,
            pieces_s=[unit[0].pieces for unit in meters],
            readings_s=[unit[0].readings for unit in meters],
            unscaled=unscaled,
            setup_samples_s=setup,
            import_readings_s=setup_readings,
            rel_error_gmean=accuracy(outcomes),
        )
        named.update(simulated_metrics(outcomes))
        # Reported, not gated: its spread across seeds is too close to
        # the largest regression bound the benchmark may set.
        print(f"{'rel_error_gmean (reported only)':<36} "
              f"{accuracy(outcomes):>16.6g} ratio")
        print("set-up samples (s): " + " ".join(f"{s:.3f}" for s in setup)
              + "; import readings (s): "
              + " ".join(f"{s:.3f}" for s in setup_readings))
    else:
        untraced = sum(pair[0] for pair in walls)
        traced = sum(pair[1] for pair in walls)
        named, table = layer_metrics(outcomes, log.spans, traced, untraced)
        print(f"traced {traced:.3f} s, untraced {untraced:.3f} s, "
              f"{len(log.spans)} spans")
        print(render_table(table, traced))
    for name, (value, unit) in named.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    if wrong:
        print(f"correctness gate FAILED: wrong labels on {wrong}")
    if diverged:
        print(f"correctness gate FAILED: passes diverged on {diverged}")

    result = {
        "correct": not wrong and not diverged,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in named.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({**record, **result}, indent=2) + "\n"
    )
    if log is not None:
        log.write(OUT / f"{stem}.spans.txt.gz")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


#: Short inputs for the untimed warm-up (and the determinism test).
WARMUP = {
    "serve-small": {"jobs": 8, "resolves": 2},
    "sweep-fig5": {"sizes": (16,), "trials": 2},
}


if __name__ == "__main__":
    sys.exit(main())
