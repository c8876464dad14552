"""Span recording around the public entry points of each mildbbm layer.

Spans are recorded from the benchmark's own files: ``instrument`` swaps the
listed module functions and ``ObstacleField`` methods for wrappers that
record each call's name, start, end, parent span and request (the
benchmark operation it belongs to) in memory, and ``restore`` puts the
originals back; nothing under ``src/`` changes.  The fields are kept in
parallel lists of numbers and strings, so a span adds no object for the
garbage collector to scan.  Counts (points blocked, cells realised,
path-steps, ...) are taken at the same boundaries, so that ratios are
measured where the work happens.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so children never
overlap and this is exactly the part of the interval they do not cover.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute) pairs wrapped as spans; every mildbbm module that
# imported the function by name gets the wrapper too.
FUNCTIONS = [
    ("branching", "run_bbm"),
    ("branching", "dichotomy_experiment"),
    ("feynman_kac", "sample_free_times"),
    ("seeds", "derive_seed"),
    ("cli", "main"),
]
METHODS = ["__init__", "is_blocked", "is_blocked_many", "realize_box"]
ENGINE_SPANS = ("branching.run_bbm", "branching.dichotomy_experiment")


class Tracer:
    """In-memory span list plus counters keyed like the per-layer metrics."""

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.req = [], [], [], [], []
        self.stack = []
        self.counts = Counter()
        self.request = 0
        self._undo = []

    # -- recording -------------------------------------------------------

    def open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def parent_name(self):
        return self.name[self.stack[-1]] if self.stack else None

    def wrap(self, name, fn, after=None, before=None):
        """``fn`` recorded as span ``name``; hooks see (args, kwargs, result, token)."""
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def instrument(self):
        """Install span wrappers on every listed entry point."""
        from mildbbm import environment

        function_hooks, method_hooks = _hooks(self)
        for mod_name, attr in FUNCTIONS:
            orig = getattr(sys.modules[f"mildbbm.{mod_name}"], attr)
            wrapped = self.wrap(f"{mod_name}.{attr}", orig, function_hooks.get(attr))
            for mod in [m for k, m in sys.modules.items() if k == "mildbbm" or k.startswith("mildbbm.")]:
                if getattr(mod, attr, None) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        cls = environment.ObstacleField
        for attr in METHODS:
            orig = cls.__dict__[attr]
            name = "environment.ObstacleField" if attr == "__init__" else f"environment.{attr}"
            before, after = method_hooks[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(name, orig, after, before))

    def restore(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def layer_times(self):
        """name -> [calls, inclusive seconds, self seconds]."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for p, d in zip(self.parent, dur):
            if p >= 0:
                child[p] += d
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, c in zip(self.name, dur, child):
            row = out[name]
            row[0] += 1
            row[1] += d
            row[2] += d - c
        return dict(out)

    def engine_events(self):
        """Scalar is_blocked calls made directly by an engine entry point."""
        names = self.name
        return sum(
            1 for name, p in zip(names, self.parent)
            if name == "environment.is_blocked" and p >= 0 and names[p] in ENGINE_SPANS
        )

    def write(self, path):
        """Spans as JSON lines [name, start, end, parent, request], times from the first start."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            for row in zip(self.name, self.start, self.end, self.parent, self.req):
                fh.write(json.dumps([row[0], row[1] - t0, row[2] - t0, row[3], row[4]]) + "\n")


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _hooks(tracer):
    """Counting hooks, keyed by the wrapped attribute name."""
    counts = tracer.counts

    def sample_free_times(args, kwargs, result, _):
        from mildbbm import feynman_kac

        a = _bind(feynman_kac.sample_free_times.__wrapped__, args, kwargs)
        counts["feynman_kac.sample_free_times.path_steps"] += a["n_paths"] * int(round(a["t"] / a["dt"]))

    def init_after(args, kwargs, result, _):
        counts["environment.fields_created"] += 1

    def blocked_before(args, kwargs):
        return len(args[0].realized_cells)

    def blocked_after(args, kwargs, result, cells_before):
        # kept to the rare branches: this runs once per engine event
        new_cells = len(args[0].realized_cells) - cells_before
        if new_cells:
            counts["environment.cells_realised"] += new_cells
        if result:
            counts["environment.points_blocked"] += 1
            if tracer.parent_name() in ENGINE_SPANS:
                counts["branching.rejected"] += 1

    def many_after(args, kwargs, result, _):
        counts["environment.is_blocked_many.points"] += len(result)
        counts["environment.points_blocked"] += int(result.sum())

    def box_after(args, kwargs, result, _):
        from mildbbm import environment

        a = _bind(environment.ObstacleField.realize_box.__wrapped__, args, kwargs)
        counts["environment.realize_box.points"] += len(result)
        if not a["self"]._finite:
            # cells the box spans, by the same lattice rule realize_box uses
            cs = a["self"].cell_size
            lo = np.floor(np.atleast_1d(a["lo"]) / cs)
            hi = np.floor((np.atleast_1d(a["hi"]) - 1e-12) / cs)
            counts["environment.cells_realised"] += int(np.prod(hi - lo + 1))

    functions = {"sample_free_times": sample_free_times}
    methods = {
        "__init__": (None, init_after),
        "is_blocked": (blocked_before, blocked_after),
        "is_blocked_many": (None, many_after),
        "realize_box": (None, box_after),
    }
    return functions, methods
