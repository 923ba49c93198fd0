"""Per-layer tracing from outside the program.

``Tracer.install`` puts a span around every call into a public function or
method of each ``compstat`` module, and ``Tracer.counted`` wraps a catalog
entry's model callables (via ``dataclasses.replace``) with call counters.
A layer is a module of ``src/compstat``; the ``benchmarks`` subpackage is one
layer.  Spans are aggregated as they close: per layer the self time (span
time minus the time of its child spans on the same thread), per function the
call count and inclusive time.  All updates take one lock, because the CLI
analyzes sweep points on worker threads and ``+=`` on shared state loses
updates there.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "model", "fd", "solver", "sensitivity", "geometry", "csm",
          "diagnostics", "report", "benchmarks")

# model callable field -> call-count kind
_CALLABLES = {
    "objective": "value", "constraints": "value",
    "grad_x_objective": "grad", "grad_a_objective": "grad",
    "grad_x_constraints": "grad", "grad_a_constraints": "grad",
    "hess_xx_objective": "hess", "hess_xa_objective": "hess",
    "hess_xx_constraints": "hess", "hess_xa_constraints": "hess",
    "analytic_solution": "closed_form",
}
_ENVELOPE = "diagnostics.check_envelope"
_NEWTON = "solver.newton_solve"


def _layer_of(module_name: str):
    parts = module_name.split(".")
    if parts[0] != "compstat" or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


class _Counted:
    """A model callable that counts its calls."""

    def __init__(self, tracer, fn, kind):
        self.tracer, self.fn, self.kind = tracer, fn, kind

    def __call__(self, *args, **kwargs):
        self.tracer.model_call(self.kind)
        return self.fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counts = Counter()               # function or counter -> calls
        self.self_s = defaultdict(float)      # layer -> self seconds
        self.inclusive_s = defaultdict(float)  # function -> inclusive seconds
        self._catalog = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _in_envelope(self) -> bool:
        return any(frame[0] == _ENVELOPE for frame in self._stack())

    def model_call(self, kind: str):
        envelope = kind == "closed_form" and self._in_envelope()
        with self._lock:
            self.counts[f"model.calls.{kind}"] += 1
            if envelope:
                self.counts["diagnostics.envelope_solves"] += 1

    def span(self, layer: str, name: str, fn):
        """``fn`` wrapped in a span named ``name`` of ``layer``."""
        newton = name == _NEWTON

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0]                 # name, time of child spans
            envelope = newton and self._in_envelope()
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                with self._lock:
                    self.counts[name] += 1
                    self.self_s[layer] += duration - frame[1]
                    self.inclusive_s[name] += duration
                    if newton:
                        if result is not None:
                            self.counts["solver.newton_iterations"] += result.iterations
                            self.counts["solver.newton_converged"] += int(result.converged)
                        if envelope:
                            self.counts["diagnostics.envelope_solves"] += 1
        return wrapper

    def counted(self, entry):
        """``entry`` with every model callable wrapped in a call counter."""
        model = entry.model
        changes = {}
        for field, kind in _CALLABLES.items():
            value = getattr(model, field)
            if value is None:
                continue
            if isinstance(value, tuple):
                changes[field] = tuple(None if fn is None else _Counted(self, fn, kind)
                                       for fn in value)
            else:
                changes[field] = _Counted(self, value, kind)
        return dataclasses.replace(entry, model=dataclasses.replace(model, **changes))

    def install(self):
        """Wrap the public functions of every loaded compstat module in spans
        and make the catalog hand out counted entries.  Not reversible."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "compstat" or name.startswith("compstat.")]
        wrapped = {}
        for module in modules:
            layer = _layer_of(module.__name__)
            if layer is None:
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self.span(layer, f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    for method, fn in list(vars(value).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            setattr(value, method, self.span(
                                layer, f"{layer}.{attr}.{method}", fn))
        get_benchmark = sys.modules["compstat.benchmarks"].get_benchmark
        wrapped[get_benchmark] = self._counted_catalog(wrapped[get_benchmark])
        # rebind every name that refers to a wrapped function, so calls through
        # `from .x import f` and through module attributes both hit the span
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _counted_catalog(self, get_benchmark):
        def counted_get_benchmark(name):
            with self._lock:
                entry = self._catalog.get(name)
            if entry is None:
                entry = self.counted(get_benchmark(name))
                with self._lock:
                    entry = self._catalog.setdefault(name, entry)
            return entry
        return counted_get_benchmark
