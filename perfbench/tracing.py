"""Spans around the benchmark's calls into the package's public functions.

Used only by traced runs.  ``Tracer.installed()`` replaces every binding of
each traced function -- the defining module's and every ``from .x import f``
copy in other package modules -- with a wrapper that records one span per
call, and puts the originals back on exit.  ``np.linalg.solve`` is not given
spans (a quadric scene makes thousands of calls); its calls, systems and time
are added to the innermost open span instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

PACKAGE = "quadtangents"

# (module, attribute) of every traced function; the module is the layer
TRACED = (
    ("exactnum", "det"), ("exactnum", "exterior_power"),
    ("grassmann", "dual_plucker"), ("grassmann", "transversals_to_4_lines"),
    ("quadrics", "tangency_form"), ("quadrics", "cylinder"),
    ("tetra32", "enumerate_tangents"), ("tetra32", "verify_solution"),
    ("tracker", "solve_tangency"), ("tracker", "classify_real"),
    ("scenes", "Scene.from_dict"), ("scenes", "solution_residuals"),
    ("scenes", "verify_certificate"), ("scenes", "write_json"),
    ("cli", "main"), ("cli", "cmd_tetra"), ("cli", "cmd_track"),
    ("cli", "cmd_doubling"), ("cli", "cmd_verify"),
)
LAYERS = ("exactnum", "grassmann", "quadrics", "tetra32", "tracker", "scenes", "cli")


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float
    solve_calls: int = 0     # np.linalg.solve calls made directly in this span
    solve_systems: int = 0   # the same, with batch dimensions multiplied out
    solve_s: float = 0.0
    paths: tuple | None = None  # (paths, steps, distinct converged) of a solve

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_stats(result) -> tuple:
    return (len(result.paths), sum(p.steps for p in result.paths),
            len(result.endpoints))


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the op in flight."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[list] = []  # [id, parent, solve_calls, systems, solve_s]
        self._ids = itertools.count()

    def _wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [next(self._ids), self._open[-1][0] if self._open else None, 0, 0, 0.0]
            self._open.append(rec)
            start = perf_counter()
            result = stats = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    stats = observe(result)
                return result
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans.append(Span(rec[0], rec[1], self.op, name, start, end,
                                       rec[2], rec[3], rec[4], stats))
        return traced

    def _wrap_solve(self, solve):
        @functools.wraps(solve)
        def counted(a, b):
            start = perf_counter()
            try:
                return solve(a, b)
            finally:
                rec = self._open[-1]  # every program call runs inside cli.main
                rec[2] += 1
                rec[3] += math.prod(np.shape(a)[:-2])
                rec[4] += perf_counter() - start
        return counted

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        undo = []
        try:
            for module, attr in TRACED:
                owner = sys.modules[f"{PACKAGE}.{module}"]
                name = f"{module}.{attr}"
                if "." in attr:  # a classmethod: patch it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    undo.append((cls, meth, raw))
                    continue
                orig = getattr(owner, attr)
                observe = _path_stats if name == "tracker.solve_tangency" else None
                wrapped = self._wrap(name, orig, observe)
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, binding, wrapped)
                            undo.append((m, binding, orig))
            undo.append((np.linalg, "solve", np.linalg.solve))
            np.linalg.solve = self._wrap_solve(np.linalg.solve)
            yield self
        finally:
            for obj, binding, orig in reversed(undo):
                setattr(obj, binding, orig)

    def summary(self) -> dict:
        """Per-function and per-layer totals of the recorded spans."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.duration
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        solve_calls = systems = paths = steps = distinct = 0
        solve_s = 0.0
        root_s = 0.0
        for s in self.spans:
            own = s.duration - child_s[s.id]
            calls[s.name] += 1
            total[s.name] += s.duration
            self_s[s.name] += own
            layer_self[s.name.split(".")[0]] += own
            solve_calls += s.solve_calls
            systems += s.solve_systems
            solve_s += s.solve_s
            if s.paths is not None:
                paths += s.paths[0]
                steps += s.paths[1]
                distinct += s.paths[2]
            if s.parent is None:
                root_s += s.duration
        return {"calls": dict(calls), "s": dict(total), "self_s": dict(self_s),
                "layer_self_s": layer_self, "root_s": root_s,
                "linsolve": {"calls": solve_calls, "systems": systems, "s": solve_s},
                "paths": paths, "steps": steps, "distinct": distinct}
