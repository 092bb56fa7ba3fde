"""In-memory span tracing around the public functions of each spadevents layer.

The benchmark measures layers from outside the program: ``Tracer.install``
replaces each traced function, in every loaded ``spadevents`` module that
holds it, with a wrapper that records a span (name, start, end, parent,
phase) plus a few work counts taken from the call's arguments and result.
``Tracer.uninstall`` puts the originals back, so untraced passes run the
unmodified program.

Wrappers copy the wrapped function's module and qualified name and are
installed under that same name, so pickling a traced function for a worker
process still resolves.  Spans recorded inside worker processes stay there
and are not reported; the parent records the ``parallel_map`` span around
them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

_KIND_NAMES = {0: "firstand", 1: "onoff", 2: "oobu", 3: "feature"}


def _converted(a, r):
    return {"frames": a["recording"].n_frames, "events": len(r)}


def _datarate(a, r):
    kind = _KIND_NAMES[int(a["stream"].kind)]
    return {f"fold_sum.{kind}": r.fold_reduction, f"calls.{kind}": 1}


def _feast_train(a, r):
    stream = a["stream"]
    streams = [stream] if hasattr(stream, "events") else list(stream)
    return {"events": sum(len(s) for s in streams), "wins": int(r.win_counts.sum())}


def _parallel_items(a, r):
    return {"items": len(r)}


# layer -> {function name: count hook (bound arguments, result) -> counts}.
# Each function is looked up in the module of the same name as its layer.
TRACED = {
    "dataio": {
        "synth_generate": None,
        "synth_recording": lambda a, r: {"recordings": 1},
        "write_dataset": None,
        "load_manifest_recordings": None,
        "load_recording": lambda a, r: {"recordings": 1, "bytes": os.stat(a["path"]).st_size},
    },
    "eventgen": {
        "firstand_convert": _converted,
        "onoff_convert": _converted,
        "oobu_convert": _converted,
        "datarate_stats": _datarate,
        "write_stream": lambda a, r: {"events": len(a["stream"]),
                                      "bytes": os.stat(a["path"]).st_size},
        "read_stream": lambda a, r: {"events": len(r)},
    },
    "feast": {
        "feast_train": _feast_train,
        "feast_infer": lambda a, r: {"events": len(a["stream"])},
        "binarize": None,
    },
    "pipeline": {
        "run_pipeline": None,
        "convert_all": None,
        "prepare_binary_features": None,
        "infer_feature_streams": None,
        "build_sample_set": lambda a, r: {"samples": len(r.labels)},
        "parallel_map": _parallel_items,
    },
    "classify": {
        "evaluate_samples": lambda a, r: {"trials": len(a["seeds"]),
                                          "width": a["samples"].features.shape[1]},
    },
    "cli": {
        "main": None,
    },
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, phase, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._open: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn)
        spans = self.spans
        open_stack = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_stack[-1] if open_stack else None
            span = [name, time.perf_counter(), None, parent, self.phase, None]
            spans.append(span)
            open_stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_stack.pop()
            if hook is not None:
                span[5] = hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a spadevents module holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "spadevents" or key.startswith("spadevents."))]
        for layer, functions in TRACED.items():
            home = sys.modules[f"spadevents.{layer}"]
            for fname, hook in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Children run inside their parent on the same thread, one after another,
    so their durations add without overlap.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


class SpanSummary:
    """Calls, inclusive time, self time and summed counts per span name."""

    def __init__(self, spans: list[list], phases):
        phases = set(phases)
        own = self_times(spans)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.root_s = 0.0
        for span, self_s in zip(spans, own):
            name, start, end, parent, phase, counts = span
            if phase not in phases:
                continue
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += self_s
            if parent is None:
                self.root_s += end - start
            for key, value in (counts or {}).items():
                self.counts[name][key] += value

    def count(self, name: str, key: str) -> float:
        return self.counts[name][key]

    def per_unit(self, name: str, key: str, scale: float) -> float:
        """Inclusive seconds of `name` per counted unit, times scale; 0 without work."""
        units = self.count(name, key)
        return scale * self.total_s[name] / units if units else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def table(self) -> dict:
        return {name: {"calls": calls, "total_s": self.total_s[name],
                       "self_s": self.self_s[name], "counts": dict(self.counts[name])}
                for name, calls in sorted(self.calls.items()) if calls}
