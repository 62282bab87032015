"""Outside-in tracer: wraps the package's public functions without editing it.

Each public function of a layer module is replaced, under its own name, in
every module of the package that holds a reference to it, so calls between
modules and within one module both pass through the wrapper.  Three more
entry points are wrapped because they carry most of the arithmetic:
``DualQuaternion.__mul__``, ``DQPoly.__mul__`` and scipy's ``least_squares``
as the factorization module calls it.  The command line layer is wrapped at
``main`` only, so its self time is argparse, JSON input and output, and
serialization.

Spans ``(id, parent, name, start, end)`` stay in memory until ``dump``.  The
dual quaternion product runs millions of times per run, so it is counted and
timed but keeps no span of its own.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("dualquat", "polyring", "factorization", "synthesis", "linkage", "cli")
UNRECORDED = frozenset({"dualquat.mul"})
CONVERGED = 1e-9  # final residual norm under which a least_squares call counts as converged


class Tracer:
    """Span recorder with per-root call counts and self times."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, start, time spent in children]
        self._next_id = 0
        self.root = ""
        # per root span name: function name -> [calls, self seconds]
        self.stats: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.lsq = defaultdict(lambda: [0, 0, 0])  # root -> [calls, nfev, converged]
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        if not self._stack:
            self.root = name
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, children = frame
        duration = end - start
        entry = self.stats[self.root][name]
        entry[0] += 1
        entry[1] += duration - children
        if self._stack:
            self._stack[-1][3] += duration
        if name not in UNRECORDED:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    def _wrap_least_squares(self, fn):
        traced = self.wrap("factorization.least_squares", fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = traced(*args, **kwargs)
            entry = self.lsq[self.root]
            entry[0] += 1
            entry[1] += int(res.nfev)
            entry[2] += int(float(np.linalg.norm(res.fun)) <= CONVERGED)
            return res
        return counted

    def _patch(self, target, attr: str, value) -> None:
        self._patched.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        package = importlib.import_module("motionfactor")
        modules = {layer: importlib.import_module(f"motionfactor.{layer}") for layer in LAYERS}
        holders = [package] + list(modules.values())
        for layer, module in modules.items():
            for fname, fn in list(vars(module).items()):
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__ or (layer == "cli" and fname != "main"):
                    continue
                traced = self.wrap(f"{layer}.{fname}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, traced)
        dqm, prm, fac = modules["dualquat"], modules["polyring"], modules["factorization"]
        self._patch(dqm.DualQuaternion, "__mul__",
                    self.wrap("dualquat.mul", dqm.DualQuaternion.__mul__))
        self._patch(prm.DQPoly, "__mul__", self.wrap("polyring.mul", prm.DQPoly.__mul__))
        self._patch(fac, "least_squares", self._wrap_least_squares(fac.least_squares))

    def uninstall(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        """Write every span and the aggregated statistics as one JSON file."""
        data = dict(extra)
        data["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        data["spans"] = self.spans
        data["stats"] = {root: {name: {"calls": c, "self_ms": s * 1e3} for name, (c, s) in d.items()}
                         for root, d in self.stats.items()}
        with open(path, "w") as fh:
            json.dump(data, fh)
