"""Per-layer span recorder for the benchmark's traced run.

The program under test emits no spans of its own for most layers, so
the traced run wraps the public calls into each layer from outside, at
the place their callers look them up: a method is replaced on its
class, a module-level function in every ``repro`` module that holds a
reference to it.  Each wrapped call
records one span ``(index, layer, start, end, parent, request)`` in
memory; :func:`replay` derives each layer's exclusive self time as the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import inspect
import pathlib
import sys
import time

#: Layer -> public calls timed, as ``module:Class.method`` or
#: ``module:function``.  ``Class.*`` expands to every public method the
#: class itself defines.  Order is the order of the replay table and of
#: the per-layer metrics.
LAYERS: dict[str, tuple[str, ...]] = {
    "experiments.engine": ("repro.experiments.engine:run_sweep",),
    "service": (
        "repro.service.service:SolverService.batch",
        "repro.service.queue:JobQueue.pop",
        "repro.service.fingerprint:structural_fingerprint",
        "repro.service.pool:CrossbarPool.acquire",
        "repro.service.pool:CrossbarPool.install",
        "repro.service.pool:CrossbarPool.release",
    ),
    "presolve": (
        "repro.presolve.pipeline:presolve",
        "repro.presolve.pipeline:detect_infeasible",
    ),
    "core.pdip": (
        "repro.core.crossbar_solver:CrossbarPDIPSolver.solve",
        "repro.core.crossbar_solver:CrossbarPDIPSolver.solve_on",
        "repro.core.crossbar_solver:CrossbarPDIPSolver.build_operator",
        "repro.core.scalable_solver:LargeScaleCrossbarPDIPSolver.solve",
    ),
    "core.newton": (
        "repro.core.newton:AugmentedNewtonSystem.*",
        "repro.core.scalable_system:ScalableNewtonSystem.*",
    ),
    "core.batch": ("repro.core.batch_solver:solve_crossbar_batch",),
    "core.warmstart": (
        "repro.core.warmstart:warm_start_state",
        "repro.core.warmstart:validated_state",
    ),
    "crossbar.program": (
        "repro.crossbar.array:CrossbarArray.program",
        "repro.crossbar.array:CrossbarArray.program_cells",
        "repro.crossbar.stack:CrossbarStack.program",
        "repro.crossbar.stack:CrossbarStack.program_cells",
        "repro.crossbar.ops:AnalogMatrixOperator.update_coefficients",
        "repro.crossbar.opstack:AnalogOperatorStack.update_coefficients",
    ),
    "crossbar.multiply": (
        "repro.crossbar.array:CrossbarArray.multiply",
        "repro.crossbar.ops:AnalogMatrixOperator.multiply",
    ),
    "crossbar.solve": (
        "repro.crossbar.array:CrossbarArray.solve",
        "repro.crossbar.ops:AnalogMatrixOperator.solve",
    ),
    "crossbar.stack": (
        "repro.crossbar.stack:CrossbarStack.multiply",
        "repro.crossbar.stack:CrossbarStack.try_solve",
        "repro.crossbar.stack:CrossbarStack.solve",
        "repro.crossbar.opstack:AnalogOperatorStack.multiply",
        "repro.crossbar.opstack:AnalogOperatorStack.try_solve",
        "repro.crossbar.opstack:AnalogOperatorStack.solve",
        "repro.backend.numpy_backend:NumpyBackend.matvec_t",
        "repro.backend.numpy_backend:NumpyBackend.solve_t",
    ),
    "crossbar.quantize": (
        "repro.crossbar.quantization:quantize_auto",
        "repro.crossbar.quantization:quantize_cells",
    ),
    "devices.variation": tuple(
        f"repro.devices.variation:{cls}.{method}"
        for cls in (
            "VariationModel",
            "NoVariation",
            "UniformVariation",
            "LognormalVariation",
        )
        for method in ("perturb", "reperturb", "perturb_stack")
    ),
    "reliability.probe": (
        "repro.reliability.probe:probe_operator",
        "repro.reliability.probe:probe_operators",
        "repro.reliability.probe:probe_operators_batched",
        "repro.reliability.recovery:solve_with_recovery",
    ),
    "obs.tracer": (
        "repro.obs.tracer:RecordingTracer.span",
        "repro.obs.tracer:RecordingTracer.count",
        "repro.obs.tracer:RecordingTracer.gauge",
        "repro.obs.tracer:RecordingTracer.observe",
        "repro.obs.tracer:RecordingTracer.event_dicts",
        # The handle RecordingTracer.span returns records on exit.
        "repro.obs.tracer:_RecordingSpan.__enter__",
        "repro.obs.tracer:_RecordingSpan.__exit__",
        "repro.obs.tracer:_RecordingSpan.set",
    ),
    "costmodel": ("repro.costmodel.energy:estimate_energy_from_counts",),
    "baselines.scipy": ("repro.baselines.scipy_linprog:solve_scipy",),
}


def _request_of_pop(args, kwargs, result):
    return result.spec.job_id if result is not None else None


def _request_of_sweep(args, kwargs, result):
    solver = args[1] if len(args) > 1 else kwargs.get("solver", "crossbar")
    return f"sweep:{solver}"


#: Calls that open a new request: the span log tags every later span
#: with the id the hook derives, until the next such call.  A service
#: request is one job (from the queue pop that dispatches it); a sweep
#: request is one ``run_sweep`` call.
REQUEST_HOOKS = {
    "repro.service.queue:JobQueue.pop": ("after", _request_of_pop),
    "repro.experiments.engine:run_sweep": ("before", _request_of_sweep),
}


class SpanLog:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, hook=None):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = log._next
            log._next = index + 1
            parent = stack[-1] if stack else -1
            if hook is not None and hook[0] == "before":
                log.request = hook[1](args, kwargs, None)
            request = log.request
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((index, layer, start, end, parent, request))
            if hook is not None and hook[0] == "after":
                log.request = hook[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every call in :data:`LAYERS`; undo with :meth:`remove`."""
        if self._undo:
            raise RuntimeError("span log already installed")
        for layer, refs in LAYERS.items():
            for ref in refs:
                for owner, name, original in _expand(ref):
                    hook = REQUEST_HOOKS.get(ref)
                    wrapped = self._wrap(layer, original, hook)
                    if isinstance(owner, type):
                        self._undo.append((owner, name, original))
                        setattr(owner, name, wrapped)
                        continue
                    for module in _namespaces():
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._undo.append((module, key, value))
                                setattr(module, key, wrapped)

    def remove(self) -> None:
        """Restore every wrapped call (in reverse install order)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def write(self, path: pathlib.Path) -> None:
        """Write the spans as gzipped text, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("# index layer start_s end_s parent request\n")
            for span in sorted(self.spans):
                handle.write("%d %s %.9f %.9f %d %s\n" % span)


def _expand(ref: str):
    """Resolve ``module:Qual.name`` to ``(owner, name, function)``."""
    module_name, qualname = ref.split(":", 1)
    module = importlib.import_module(module_name)
    if "." not in qualname:
        yield module, qualname, getattr(module, qualname)
        return
    cls_name, method = qualname.split(".", 1)
    cls = getattr(module, cls_name)
    if method == "*":
        for name, value in vars(cls).items():
            if not name.startswith("_") and inspect.isfunction(value):
                yield cls, name, value
        return
    if method in vars(cls):
        yield cls, method, vars(cls)[method]


def _namespaces():
    for name, module in list(sys.modules.items()):
        if module is not None and (
            name == "repro" or name.startswith("repro.")
        ):
            yield module


def replay(spans: list[tuple]) -> tuple[dict, dict]:
    """Exclusive self seconds and call counts per layer.

    A span's self time is its duration minus the durations of its
    direct children; the spans of one thread nest, so the children
    never overlap and their sum is the time they cover.
    """
    covered: dict[int, float] = collections.defaultdict(float)
    for index, _layer, start, end, parent, _request in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()
    for index, layer, start, end, _parent, _request in spans:
        self_s[layer] += (end - start) - covered.get(index, 0.0)
        calls[layer] += 1
    return dict(self_s), dict(calls)
