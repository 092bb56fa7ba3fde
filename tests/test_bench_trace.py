"""The benchmark's tracer still finds every function it wraps, and every
argument its count hooks read, in the current sources.

``perfbench/`` lies outside the tier-1 test paths, so without these checks a
rename in ``src/`` would only show when a traced benchmark run fails.
"""

import dis
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import spadevents.cli  # noqa: F401  (loads every layer module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


@pytest.fixture(scope="module")
def bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions(bench_trace):
    """((layer, name), function, hook) for every entry of the tracer's table."""
    for layer, functions in bench_trace.TRACED.items():
        module = sys.modules[f"spadevents.{layer}"]
        for name, hook in functions.items():
            yield (layer, name), getattr(module, name), hook


def hook_arguments(hook) -> set[str]:
    """The names a count hook looks up in its bound arguments, as in a["name"]."""
    bound = hook.__code__.co_varnames[0]
    ops = list(dis.get_instructions(hook))
    return {b.argval for a, b in zip(ops, ops[1:])
            if a.opname.startswith("LOAD_FAST") and a.argval == bound
            and b.opname == "LOAD_CONST" and isinstance(b.argval, str)}


def test_tracer_installs_and_uninstalls(bench_trace):
    originals = {key: fn for key, fn, _ in traced_functions(bench_trace)}
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for (layer, name), fn in originals.items():
            assert getattr(sys.modules[f"spadevents.{layer}"], name) is not fn, (layer, name)
    finally:
        tracer.uninstall()
    for (layer, name), fn in originals.items():
        assert getattr(sys.modules[f"spadevents.{layer}"], name) is fn, (layer, name)


def test_hooks_read_parameters_of_the_traced_function(bench_trace):
    read = set()
    for (layer, name), fn, hook in traced_functions(bench_trace):
        if hook is None:
            continue
        parameters = inspect.signature(fn).parameters
        for argument in hook_arguments(hook):
            assert argument in parameters, f"{layer}.{name} has no parameter {argument!r}"
            read.add(argument)
    # the scan found every argument the hooks are known to read
    assert read == {"stream", "recording", "path", "seeds", "samples"}
