"""Layer tracing from outside the package.

``Tracer.install`` wraps, at run time, every public callable of each layer
module: the functions a module defines, under every name any kinematica
module binds them to, and the public methods and arithmetic operators of the
classes it defines.  Nothing is listed by hand, so a helper that a later
change renames or deletes simply stops being traced.

A span opens only where control crosses from one layer into another; calls
within a layer (the recursive JSON writer, chains of operators) are only
counted.  Spans are kept in memory as tuples and written out when the run
ends.  A layer's self time is the duration of its spans minus the duration of
their child spans.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("gentrig", "gencomplex", "kinclass", "ckgeom", "clifford", "spin", "conformal", "cli")
# the command line front end is split into three layers of its own
CLI_SUBLAYERS = {"build_parser": "cli.parse", "dumps": "cli.emit"}
REQUEST = "request"
OPERATORS = frozenset(
    f"__{op}__"
    for name in ("add", "sub", "mul", "matmul", "truediv")
    for op in (name, "r" + name)
) | {"__neg__", "__pos__"}
TRIG = frozenset(("cosk", "sink", "tank", "atank"))
PRODUCT = "Multivector.__mul__"  # a geometric product unless the factor is a number
BRANCHES = ("flat", "series", "circular", "hyperbolic")

# span tuple fields
REQ, LAYER, NAME, START, END, PARENT = range(6)


def self_times(spans) -> dict[str, float]:
    """Per-layer self time in ns: span duration minus its children's durations."""
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        duration = span[END] - span[START]
        own[span[LAYER]] += duration
        if span[PARENT] >= 0:
            own[spans[span[PARENT]][LAYER]] -= duration
    return dict(own)


class Tracer:
    """Counts and spans for the layer calls of one traced run."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module, only the ones present
        self.spans: list = []
        self.stack: list = []  # (layer, span index)
        self.calls: Counter = Counter()  # by layer
        self.names: Counter = Counter()  # by qualified name
        self.branches: Counter = Counter()
        self.errors: Counter = Counter()  # exceptions leaving a layer's span
        self.products = 0
        self.request = -1
        self._undo: list = []
        self.originals: dict = {}  # name or Class.name -> what was wrapped
        thresholds = getattr(modules.get("gentrig"), "__dict__", {})
        self.zero_kappa = thresholds.get("ZERO_KAPPA", 1e-300)
        self.series_cutoff = thresholds.get("SERIES_CUTOFF", 1e-8)

    # -- spans -------------------------------------------------------------------

    def _enter(self, layer: str, name: str, fn, args, kwargs):
        parent = self.stack[-1][1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append((layer, index))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (self.request, layer, name, start, end, parent)

    def run_request(self, fn, *args):
        """Call fn as one traced request: the root span of its layer calls."""
        self.request += 1
        return self._enter(REQUEST, REQUEST, fn, args, {})

    def wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.names[name] += 1
            if name in TRIG and len(args) >= 2:
                tracer.branches[tracer.branch(name, args[0], args[1])] += 1
            elif name == PRODUCT and not isinstance(args[-1], (int, float)):
                tracer.products += 1
            if tracer.stack and tracer.stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return tracer._enter(layer, name, fn, args, kwargs)

        return traced

    def branch(self, name: str, kappa, phi) -> str:
        """The gentrig branch a call with these arguments takes."""
        if abs(kappa) < self.zero_kappa:
            return "flat"
        if name != "atank" and abs(kappa * phi * phi) < self.series_cutoff:
            return "series"
        return "circular" if kappa > 0.0 else "hyperbolic"

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        wrappers = {}  # id(original) -> wrapper
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    sub = CLI_SUBLAYERS.get(name, layer) if layer == "cli" else layer
                    wrappers[id(obj)] = self.wrap(obj, sub, name)
                    self.originals[name] = obj
        # rebind under every name any kinematica module holds the callable by
        for modname, module in list(sys.modules.items()):
            if modname != "kinematica" and not modname.startswith("kinematica."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, name, wrappers[id(obj)])
        parse_args = argparse.ArgumentParser.parse_args
        self._set(argparse.ArgumentParser, "parse_args",
                  self.wrap(parse_args, "cli.parse", "parse_args"))

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            qualified = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self.wrap(attr.__func__, layer, qualified))
            elif inspect.isfunction(attr):
                wrapped = self.wrap(attr, layer, qualified)
            else:
                continue
            self._set(cls, name, wrapped)
            self.originals[qualified] = attr

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- output ------------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one gzipped JSON line: request, layer, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
