"""Module-boundary tracing for the groupcalc benchmark.

The tracer wraps the public functions of each layer module at the attribute
their callers look up (``spectral.solve_eigen``, ``algebra.exp_g``,
``TsallisClass.g_inv``, ...), so nothing inside ``src/groupcalc`` changes.
A wrapped call opens a span only when it crosses from one category into
another; a call that stays inside its own category (``g_inv`` calling ``g``
inside a numeric inverse) passes straight through, which keeps the span count
bounded by the number of boundary crossings.

Each span records its name, start, end, parent span and request id.  Spans
stay in memory and are written out once, at the end of the run.  The first
``SPAN_CAP`` spans are kept; later ones are dropped and only counted, in
``spans_dropped`` of the output (spectra opens one ``groups`` span per grid
node, so there the file holds the first request or two).  Self time
(duration minus the time covered by child spans), call counts and inclusive
time are aggregated per category as spans close, so the per-layer metrics
do not depend on the cap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Spans kept in memory for the output file; the aggregates count them all.
SPAN_CAP = 50_000
# Categories whose peak traced memory is measured in the memory pass.
PEAK_CATEGORIES = ("spectral.assembly", "spectral.eigensolve")

_SPECTRAL_CATEGORIES = {
    "hamiltonian_xspace": "spectral.assembly",
    "hamiltonian_gspace": "spectral.assembly",
    "solve_eigen": "spectral.eigensolve",
    "transform_state": "spectral.transform",
}
_CALCULUS_CATEGORIES = {
    "integrate": "calculus.integrate",
    "g_integral": "calculus.integrate",
    "dual_g_integral": "calculus.integrate",
    "fundamental_theorem_residual": "calculus.integrate",
    "g_derivative": "calculus.derivative",
    "dual_g_derivative": "calculus.derivative",
}
_EXPRLANG_CATEGORIES = {"parse": "exprlang.parse", "evaluate": "exprlang.evaluate"}


def float_cells(obj) -> int:
    """Number of float values held by an operator, whatever its container."""
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (tuple, list)):
        return sum(float_cells(item) for item in obj)
    if hasattr(obj, "__dict__"):
        return sum(float_cells(item) for item in vars(obj).values())
    return 0


def _public_functions(module):
    """Functions defined in ``module`` itself, by public name."""
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    """Spans and per-category aggregates of one traced stretch of a run.

    ``active`` switches span recording on for the requests being measured;
    ``memory`` switches on the tracemalloc peak of assembly and eigensolve
    calls, which is measured in a pass of its own because tracemalloc slows
    every allocation.
    """

    def __init__(self):
        self.active = False
        self.memory = False
        self.request_id = 0
        self._next_id = 1
        self._stack = []  # frames: [category, span id, child seconds]
        self._patched = []  # (owner, attribute, original)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self s, inclusive s
        self.counters = Counter()
        self.peaks = defaultdict(list)  # category -> peak bytes per call
        self.spans = []
        self.spans_dropped = 0

    # -- recording ---------------------------------------------------------

    def _call(self, fn, category, name, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [category, span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            entry = self.stats[category]
            entry[0] += 1
            entry[1] += duration - frame[2]
            entry[2] += duration
            if self._stack:
                self._stack[-1][2] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, parent, self.request_id, name, start, end))
            else:
                self.spans_dropped += 1

    def _peak_call(self, fn, category, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peaks[category].append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def wrap(self, fn, category, name, count=None, on_result=None, on_args=None):
        """Traced stand-in for ``fn``; a no-op pass-through while inactive."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.memory and category in PEAK_CATEGORIES:
                return tracer._peak_call(fn, category, args, kwargs)
            if not tracer.active:
                return fn(*args, **kwargs)
            if count is not None:
                tracer.counters[count] += 1
            if on_args is not None:
                args = on_args(args)
            stack = tracer._stack
            if stack and stack[-1][0] == category:
                return fn(*args, **kwargs)
            result = tracer._call(fn, category, name, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attribute, wrapper):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self, program) -> None:
        """Wrap every layer module's public functions, and every alias of them
        that another layer module imported by name.  ``program`` holds the
        modules as attributes."""
        p = program
        groups, calculus, checks, exprlang, spectral, tables = (
            p.groups, p.calculus, p.checks, p.exprlang, p.spectral, p.tables
        )
        layers = [groups, p.algebra, p.closed_forms, calculus, checks, exprlang, spectral, tables]
        wrappers = {}  # id(original function) -> wrapper
        for module in layers:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in _public_functions(module):
                category = short
                kwargs = {}
                if module is spectral:
                    category = _SPECTRAL_CATEGORIES.get(name, "spectral")
                    if category == "spectral.assembly":
                        kwargs["on_result"] = self._count_cells
                elif module is calculus:
                    category = _CALCULUS_CATEGORIES.get(name, "calculus")
                    if name == "integrate":
                        kwargs["on_args"] = self._count_integrand
                elif module is exprlang:
                    category = _EXPRLANG_CATEGORIES.get(name, "exprlang")
                elif module is checks and name.startswith("check_"):
                    category = "checks." + name[len("check_"):]
                elif module is tables:
                    category = "tables.write"
                    if name == "write_spectrum":
                        kwargs["on_result"] = self._count_bytes
                wrappers[id(fn)] = self.wrap(fn, category, f"{short}.{name}", **kwargs)
        for module in layers:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(module, name, wrappers[id(value)])
        self._patch(
            spectral,
            "eigh_tridiagonal",
            self.wrap(spectral.eigh_tridiagonal, "spectral.lapack", "scipy.eigh_tridiagonal"),
        )
        # Group classes: the methods every other layer calls on a class object.
        for cls in vars(groups).values():
            if not (inspect.isclass(cls) and issubclass(cls, groups.GroupClass)):
                continue
            numeric_inverse = getattr(cls, "kind", None) in ("abe", "series")
            for name, fn in list(vars(cls).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                count = None
                if numeric_inverse and name == "g_inv":
                    count = "groups.numeric_inverse_calls"
                self._patch(
                    cls,
                    name,
                    self.wrap(fn, "groups", f"{cls.__name__}.{name}", count=count),
                )

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- hooks -------------------------------------------------------------

    def _count_cells(self, operator) -> None:
        self.counters["spectral.operator_cells"] += float_cells(operator)

    def _count_bytes(self, paths) -> None:
        self.counters["tables.bytes_written"] += sum(os.path.getsize(p) for p in paths)

    def _count_integrand(self, args):
        f = args[0]
        counters = self.counters

        def counted(x):
            counters["calculus.integrand_evals"] += x.size if isinstance(x, np.ndarray) else 1
            return f(x)

        return (counted,) + tuple(args[1:])

    # -- output ------------------------------------------------------------

    def dump(self, path, extra) -> None:
        """Write the spans and the per-category aggregates as one JSON file."""
        record = dict(extra)
        record["categories"] = {
            category: {"calls": calls, "self_s": self_s, "inclusive_s": incl}
            for category, (calls, self_s, incl) in sorted(self.stats.items())
        }
        record["counters"] = dict(self.counters)
        record["span_fields"] = ["id", "parent", "request", "name", "start_s", "end_s"]
        record["spans"] = self.spans
        record["spans_dropped"] = self.spans_dropped
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
