"""In-memory span tracer that wraps gridlessdoa's public layer functions.

A span wraps each listed layer function and records (name, start, end,
parent, trial).  Numerics calls are far too many to keep one record each
(a refine trial makes about 30000 ``chol_factor`` calls), so each one is
added to a per-function count and time on its enclosing span instead; that
time counts as child time, so a span's self time excludes its numerics.

Wrapping is done from outside the package: every ``gridlessdoa`` module
namespace that holds a listed function, whether as ``module.fn`` or
imported by name (``experiments.structcov_mle``, ``sigmodel.chol_factor``),
is patched.  A listed function that does not exist is an error, so a rename
breaks the benchmark instead of reporting a layer as zero.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

PACKAGE = "gridlessdoa"

# Layer functions that get a span each, by module.
LAYERS = {
    "experiments": ("run_experiment", "run_one_trial"),
    "mlesolve": ("structcov_mle", "em_gridless", "em_estep", "solve_subproblem", "ml_cost"),
    "sbl": ("sbl_run",),
    "refine": ("multires_refine", "peak_adjust"),
    "estimate": ("root_music",),
    "sigmodel": ("simulate",),
    "metrics": ("crb_rmse",),
}

# Leaf functions counted and timed on their enclosing span.
NUMERICS = {"numerics": ("herm_eig", "chol_factor", "poly_roots")}


class TracerError(Exception):
    """A listed function is missing or could not be patched."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial", "child_s", "numerics")

    def __init__(self, name: str, parent: int, trial: int):
        self.name = name
        self.parent = parent
        self.trial = trial
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.numerics: dict[str, list] = {}

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def as_dict(self, t0: float) -> dict:
        return {
            "name": self.name,
            "start": self.start - t0,
            "end": self.end - t0,
            "parent": self.parent,
            "trial": self.trial,
            "numerics": {k: {"calls": c, "total_s": s} for k, (c, s) in self.numerics.items()},
        }


def resolve(module: str, name: str):
    """Return ``gridlessdoa.<module>.<name>``; raise if it is not a function."""
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    fn = getattr(mod, name, None)
    if not callable(fn):
        raise TracerError(f"listed function {PACKAGE}.{module}.{name} is missing")
    return fn


def package_modules() -> list:
    """Import and return the package and every submodule."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


class Patches:
    """Replaces a function in every package namespace that holds it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> None:
        sites = 0
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    sites += 1
        if sites == 0:
            raise TracerError(f"{original.__module__}.{original.__name__} found in no namespace")

    def restore(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class Tracer:
    """Collects spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial = -1
        self._stack: list[int] = []
        self._patches = Patches()

    def span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent, self.trial)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start

        return traced

    def leaf_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if stack:
                    span = spans[stack[-1]]
                    span.child_s += elapsed
                    stat = span.numerics.get(name)
                    if stat is None:
                        span.numerics[name] = [1, elapsed]
                    else:
                        stat[0] += 1
                        stat[1] += elapsed

        return counted

    def install(self) -> None:
        for module, names in LAYERS.items():
            for name in names:
                fn = resolve(module, name)
                self._patches.replace(fn, self.span_wrapper(f"{module}.{name}", fn))
        for module, names in NUMERICS.items():
            for name in names:
                fn = resolve(module, name)
                self._patches.replace(fn, self.leaf_wrapper(name, fn))

    def uninstall(self) -> None:
        self._patches.restore()


def wrapper_cost_s(calls: int = 20000) -> tuple[float, float]:
    """Measured added cost of one span call and of one numerics call, in seconds."""

    def noop():
        return None

    def loop(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    tracer = Tracer()
    base = loop(noop)
    span_cost = loop(tracer.span_wrapper("probe.span", noop)) - base
    tracer.spans.clear()
    leaf = tracer.leaf_wrapper("probe.leaf", noop)
    outer = tracer.span_wrapper("probe.outer", lambda: loop(leaf))
    leaf_cost = outer() - base
    return max(span_cost, 0.0), max(leaf_cost, 0.0)
