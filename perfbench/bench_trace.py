"""Span tracing of the prolate_calculus package from outside its source.

``Tracer`` wraps every public function that a package module defines
(generator functions excepted: their work runs in the caller's frame).  The
package binds names with ``from .x import f``, so one function is reachable
under several module attributes; the tracer rebinds each of them to the
wrapper while it is active and restores the originals when it leaves.  Spans
(name, start, end, parent) stay in memory; ``layer_metrics`` turns the spans
of one pass into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "cli.main"
# Cancellation bound up to which boundary_ratios' "auto" path keeps the
# series value of a mode (its ``guard`` default).
SERIES_GUARD = 1e-11
RECONSTRUCTIONS = ("transforms.reconstruct_fourier", "transforms.reconstruct_sinc")

# Argument whose value splits a function's spans into labelled groups.
LABEL_ARGS = {
    "verify.run_suite": "suite",
    "ucalc.boundary_ratios": "method",
    "legendre.gauss_legendre_rule": "order",
}


def _series_note(bound, result):
    _, terms_used, _, cancel = result
    return terms_used, cancel.size, int((cancel <= SERIES_GUARD).sum())


def _bytes_written(bound, result):
    return os.path.getsize(bound["path"])


# Quantities read from a call's arguments and result once it returns.
NOTES = {
    "ucalc.u_series_many": _series_note,
    "legendre.legendre_table": lambda bound, result: result.size,
    "serialize.dump_json": _bytes_written,
    "serialize.operator_to_csv": _bytes_written,
    "serialize.table_to_csv": _bytes_written,
}


class Span:
    __slots__ = ("name", "parent", "label", "start", "end", "kids", "note")

    def __init__(self, name, parent, label):
        self.name = name
        self.parent = parent
        self.label = label
        self.kids = []
        self.note = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records a span for each call of a wrapped function."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self._wrappers = {}
        for module in self._modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    self._wrappers[obj] = self._wrap(obj, f"{short}.{name}")
        self._bindings = []

    def __enter__(self):
        self.spans = []
        for module in self._modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._bindings.append((module, name, obj))
                    setattr(module, name, self._wrappers[obj])
        return self

    def __exit__(self, *exc):
        for module, name, obj in reversed(self._bindings):
            setattr(module, name, obj)
        self._bindings.clear()
        self._stack.clear()
        return False

    def _wrap(self, fn, name):
        label_arg = LABEL_ARGS.get(name)
        note = NOTES.get(name)
        signature = inspect.signature(fn) if label_arg or note else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                bound = call.arguments
            parent = stack[-1] if stack else None
            span = Span(name, parent, bound[label_arg] if label_arg else None)
            if parent is not None:
                parent.kids.append(span)
            self.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(bound, result)
            return result

        return traced


def _ancestors(span):
    span = span.parent
    while span is not None:
        yield span
        span = span.parent


def function_table(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds).

    Inclusive time counts a span only when no enclosing span has the same
    name; self time is a span's time minus the time of its child spans.
    """
    calls = Counter()
    incl = defaultdict(float)
    self_s = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.seconds - sum(kid.seconds for kid in span.kids)
        if all(up.name != span.name for up in _ancestors(span)):
            incl[span.name] += span.seconds
    return {name: (calls[name], incl[name], self_s[name]) for name in calls}


def layer_metrics(spans, suites) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one pass: name -> (value, unit)."""
    table = function_table(spans)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def stats(func, *kinds):
        calls, incl, self_s = table.get(func, (0, 0.0, 0.0))
        for kind in kinds:
            put(f"{func}.{kind}", {"calls": calls, "s": incl, "self_s": self_s}[kind], "count" if kind == "calls" else "s")

    labelled_calls = Counter()
    labelled_s = defaultdict(float)
    for span in spans:
        if span.label is not None:
            labelled_calls[span.name, span.label] += 1
            labelled_s[span.name, span.label] += span.seconds

    stats(ROOT_SPAN, "calls", "s")
    for suite in suites:
        put(f"verify.run_suite.{suite}.s", labelled_s["verify.run_suite", suite], "s")

    # An order counts as rebuilt when the same job already built it.
    rule_calls = rebuilt = 0
    built = defaultdict(set)
    for span in spans:
        if span.name == "legendre.gauss_legendre_rule":
            root = next((up for up in _ancestors(span) if up.name == ROOT_SPAN), None)
            rule_calls += 1
            rebuilt += span.label in built[id(root)]
            built[id(root)].add(span.label)
    stats("legendre.gauss_legendre_rule", "calls", "self_s")
    put("legendre.gauss_legendre_rule.reuse_ratio", rebuilt / rule_calls if rule_calls else 0.0, "ratio")

    stats("legendre.legendre_table", "calls", "self_s")
    put("legendre.legendre_table.values", _note_sum(spans, "legendre.legendre_table"), "count")

    stats("prolate.solve_prolate", "calls", "s")
    stats("prolate.fourier_rayleigh", "calls", "self_s")
    # Complex128 q x q kernel per call; nystrom builds a float64 n x n one.
    put("prolate.fourier_rayleigh.kernel_bytes", _kernel_bytes(spans, "prolate.fourier_rayleigh", 16), "bytes")

    for method in ("series", "spectral", "auto"):
        put(f"ucalc.boundary_ratios.{method}.calls", labelled_calls["ucalc.boundary_ratios", method], "count")
        put(f"ucalc.boundary_ratios.{method}.s", labelled_s["ucalc.boundary_ratios", method], "s")
    stats("ucalc.u_series_many", "calls", "self_s")
    notes = [s.note for s in spans if s.name == "ucalc.u_series_many" and s.note is not None]
    put("ucalc.u_series_many.terms", sum(n[0] for n in notes), "count")
    modes = sum(n[1] for n in notes)
    put("ucalc.series_kept_ratio", sum(n[2] for n in notes) / modes if modes else 0.0, "ratio")

    for func in ("finite_fourier_direct", "sinc_kernel_direct", "reconstruct_fourier", "reconstruct_sinc"):
        stats(f"transforms.{func}", "calls", "s")
    recon_calls = sum(table.get(name, (0,))[0] for name in RECONSTRUCTIONS)
    ratio_calls = sum(
        1
        for span in spans
        if span.name == "ucalc.boundary_ratios"
        and any(up.name in RECONSTRUCTIONS for up in _ancestors(span))
    )
    put("transforms.xi_nodes", ratio_calls / recon_calls if recon_calls else 0.0, "count")

    stats("nystrom.nystrom_sinc_eigen", "calls", "self_s")
    put("nystrom.nystrom_sinc_eigen.kernel_bytes", _kernel_bytes(spans, "nystrom.nystrom_sinc_eigen", 8), "bytes")
    for func in ("small_c_operator", "hermite_distance"):
        stats(f"asymptotics.{func}", "calls", "s")
    for func in ("dump_json", "operator_to_csv", "table_to_csv"):
        stats(f"serialize.{func}", "calls", "s")
        put(f"serialize.{func}.bytes", _note_sum(spans, f"serialize.{func}"), "bytes")
    return metrics


def _note_sum(spans, name) -> int:
    return sum(s.note for s in spans if s.name == name and s.note is not None)


def _kernel_bytes(spans, name, itemsize) -> int:
    """Bytes of the order x order kernel each call builds on its quadrature rule."""
    return sum(
        itemsize * kid.label**2
        for span in spans
        if span.name == name
        for kid in span.kids
        if kid.name == "legendre.gauss_legendre_rule"
    )


def self_share(spans, sweep_s: float) -> float:
    """Share of a traced pass's wall time held by the self time of spans
    below the CLI entry point."""
    below = sum(
        span.seconds - sum(kid.seconds for kid in span.kids)
        for span in spans
        if span.name != ROOT_SPAN
    )
    return below / sweep_s
