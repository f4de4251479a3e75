"""Spans around the public functions of the su11 modules, recorded from outside.

``install`` replaces every public function of every su11 module by a wrapper
that times the call, in every su11 namespace that holds it (module globals,
the package's re-exports and module-level dicts such as verify's runner
table).  Spans nest through a stack, so a module's self time is the time its
functions ran minus the time of the su11 calls they made.  Nothing in su11
changes on disk; the wrappers live only in the traced process.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

MODULES = ("halfint", "group", "jacobi", "repmatrix", "characters",
           "orthogonality", "tensor", "verify", "cli")
LOGSPACE_MIN_SIZE = 172  # truncated_operator assembles larger blocks in log space


def _arg(fn, name: str):
    """A getter for argument ``name`` of ``fn``, by position or keyword."""
    params = inspect.signature(fn).parameters
    pos = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)
    return get


def _points(x) -> int:
    return int(getattr(x, "size", 1))


# Counts beyond calls and time, keyed by span name: (metric suffix, argument
# names, f of those arguments).
_COUNTS = {
    "jacobi.jacobi_sequence": [("steps", ("max_degree", "x"), lambda d, x: d * _points(x))],
    "repmatrix.truncated_operator": [("entries", ("size",), lambda s: s * s)],
    "repmatrix.matrix_element_batch": [("points", ("alpha",), _points)],
    "characters.trace_partial_sum": [("terms", ("terms",), int)],
    "orthogonality.monte_carlo_haar": [("samples", ("samples",), int)],
    "tensor.abel_character_sum": [("terms", ("n_max",), lambda n: n + 1)],
}


class Tracer:
    def __init__(self):
        self.stack = []
        self.ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.self_ms = defaultdict(float)

    def wrap(self, module: str, name: str, fn):
        span = f"{module}.{name}"
        getters = [
            (suffix, [_arg(fn, a) for a in argnames], f)
            for suffix, argnames, f in _COUNTS.get(span, ())
        ]
        size_of = _arg(fn, "size") if span == "repmatrix.truncated_operator" else None
        stack, ms, calls, counts, self_ms = (
            self.stack, self.ms, self.calls, self.counts, self.self_ms)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - start) * 1e3
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_ms[module] += elapsed - frame[0]
                ms[span] += elapsed
                calls[span] += 1
                for suffix, gets, f in getters:
                    counts[f"{span}.{suffix}"] += f(*(g(args, kwargs) for g in gets))
                if size_of is not None:
                    path = "logspace" if size_of(args, kwargs) >= LOGSPACE_MIN_SIZE else "direct"
                    ms[f"{span}.{path}"] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def table(self) -> dict:
        """Every span's totals over the run, for the run's record on disk."""
        return {
            "ms": dict(self.ms), "calls": dict(self.calls),
            "counts": dict(self.counts), "self_ms": dict(self.self_ms),
        }


def public_functions(module):
    """Public callables defined in ``module`` (functions and cached functions)."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every public su11 function in every su11 namespace that refers to it."""
    import su11
    import su11.cli  # noqa: F401  (cli and verify are not imported by the package)

    wrappers = {}
    for short in MODULES:
        module = sys.modules[f"su11.{short}"]
        for name, fn in public_functions(module):
            wrappers[id(fn)] = tracer.wrap(short, name, fn)
    namespaces = [m for key, m in sys.modules.items()
                  if key == "su11" or key.startswith("su11.")]
    for module in namespaces:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])
            elif isinstance(obj, dict) and not name.startswith("__"):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]


# The per-layer metrics, each per op.  Names are the spans' "module.function".
SPAN_CALLS = ("halfint.as_rep_label", "jacobi.jacobi_sequence", "jacobi.gauss_jacobi",
              "jacobi.log_poch_ratio", "repmatrix.matrix_element", "characters.character",
              "characters.character_compact", "orthogonality.orthogonality_integral")
SPAN_MS = ("jacobi.jacobi_sequence", "jacobi.gauss_jacobi",
           "repmatrix.truncated_operator.direct", "repmatrix.truncated_operator.logspace",
           "repmatrix.unitarity_defect", "repmatrix.homomorphism_defect",
           "repmatrix.matrix_element", "repmatrix.matrix_element_batch",
           "characters.trace_partial_sum", "characters.damped_trace_sum",
           "characters.abel_trace", "orthogonality.orthogonality_integral",
           "orthogonality.monte_carlo_haar", "tensor.abel_character_sum",
           "verify.run_ortho", "verify.run_unitary", "verify.run_character",
           "verify.run_tensor", "cli.main")
SPAN_COUNTS = ("jacobi.jacobi_sequence.steps", "repmatrix.truncated_operator.entries",
               "repmatrix.matrix_element_batch.points", "characters.trace_partial_sum.terms",
               "orthogonality.monte_carlo_haar.samples", "tensor.abel_character_sum.terms")


def per_op_metrics(tracer: Tracer, ops_done: int, misses: int) -> dict:
    """Per-layer metrics per op: ``(value, unit)`` by metric name."""
    out = {}
    for module in MODULES:
        out[f"{module}.self_ms"] = (tracer.self_ms[module] / ops_done, "ms")
    for span in SPAN_CALLS:
        out[f"{span}.calls"] = (tracer.calls[span] / ops_done, "count")
    for span in SPAN_MS:
        out[f"{span}.ms"] = (tracer.ms[span] / ops_done, "ms")
    for name in SPAN_COUNTS:
        out[name] = (tracer.counts[name] / ops_done, "count")
    out["jacobi.gauss_jacobi.misses"] = (misses / ops_done, "count")
    return out
