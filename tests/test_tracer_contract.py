"""The benchmark's tracer binds functions by name; check that every name it
labels or annotates is a function it can wrap, taking the argument it reads.

The benchmark module is loaded from its file and left unchanged.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACE_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
_spec = importlib.util.spec_from_file_location("bench_trace", _TRACE_FILE)
bench_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trace)


def _bound_argument(name):
    """The argument the tracer reads from a call of ``name``, or None."""
    if name in bench_trace.LABEL_ARGS:
        return bench_trace.LABEL_ARGS[name]
    # The byte-count notes stat the file named by the ``path`` argument.
    return "path" if bench_trace.NOTES[name] is bench_trace._bytes_written else None


@pytest.mark.parametrize("name", sorted({*bench_trace.LABEL_ARGS, *bench_trace.NOTES}))
def test_traced_name_is_a_plain_function_taking_its_argument(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"prolate_calculus.{module_name}")
    fn = getattr(module, attr)
    # The same test the tracer applies before it wraps a module attribute.
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
    assert not inspect.isgeneratorfunction(fn)
    arg = _bound_argument(name)
    if arg is not None:
        assert arg in inspect.signature(fn).parameters
