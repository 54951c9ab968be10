"""Span tracing of heisenbath's layers from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper, at every place the function is bound: its own module, the package
namespace and every module that imported it by name (``npoint`` and
``diagnostics`` both hold ``superop.one_point_value``, for example).  While a
solve is active each call records a span ``(name, start, end, parent,
solve)`` in memory; `Tracer.uninstall` restores the original bindings.
A layer module or function the package no longer has is skipped: it is not
in `Tracer.known`, and its metrics read 0.

A layer's self time is its span's duration minus the time its direct child
spans cover.  Functions called once per integrand or right-hand-side
evaluation are counted but get no span, so their time stays in the caller's
self time; a span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

LAYERS = (
    "_blockops",
    "model",
    "oracle",
    "images",
    "dyson",
    "superop",
    "npoint",
    "markov",
    "diagnostics",
    "cli",
)

COUNT_ONLY = frozenset({"markov.bath_correlation", "markov.lindblad_rhs"})

# KernelSet methods that serve kernel stacks; counted with their request pattern.
STACK_METHODS = ("heis_stack", "tilde_stack")


def _layer_of(fn) -> str | None:
    """Layer name owning ``fn``: ``heisenbath._pykernels`` serves ``_blockops``."""
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("heisenbath."):
        return None
    short = mod.split(".", 1)[1]
    if short == "_pykernels":
        short = "_blockops"
    return short if short in LAYERS else None


class Tracer:
    """In-memory span recorder for the layer functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts: dict[tuple[str, bool], int] = defaultdict(int)
        self.solve: int | None = None
        self._stack: list[int] = []
        self.known: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self._requested = weakref.WeakKeyDictionary()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import heisenbath

        layers = []
        for layer in LAYERS:
            try:
                layers.append(importlib.import_module(f"heisenbath.{layer}"))
            except ModuleNotFoundError as exc:
                if exc.name != f"heisenbath.{layer}":
                    raise
        originals: dict[int, tuple[object, str]] = {}
        for module in layers:
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = _layer_of(obj)
                if owner is not None:
                    originals[id(obj)] = (obj, f"{owner.lstrip('_')}.{obj.__name__}")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        modules = [heisenbath] + [
            mod for name, mod in sorted(sys.modules.items()) if name.startswith("heisenbath.")
        ]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        kernel_set = getattr(sys.modules.get("heisenbath.dyson"), "KernelSet", None)
        for method in STACK_METHODS:
            original = getattr(kernel_set, method, None)
            if original is None:
                continue
            self._restore.append((kernel_set, method, original))
            setattr(kernel_set, method, self._wrap_stack(original, method))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _name_id(self, name: str) -> int:
        key = self._name_ids.get(name)
        if key is None:
            key = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return key

    def _wrap(self, fn, name: str):
        tracer = self
        self.known.add(name)
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                if tracer.solve is not None:
                    tracer.counts[name, tracer.solve >= 0] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        key = self._name_id(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if tracer.solve is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans[index] = (key, start, end, parent, tracer.solve)

        spanned.__wrapped__ = fn
        return spanned

    def _wrap_stack(self, method, kind: str):
        name = f"dyson.KernelSet.{kind}"
        inner = self._wrap(method, name)
        tracer = self

        def stack_request(ks, t):
            if tracer.solve is not None:
                t = float(t)
                seen = tracer._requested.setdefault(ks, set())
                solving = tracer.solve >= 0
                tracer.counts["dyson.stack_requests", solving] += 1
                if (kind, t) in seen:
                    tracer.counts["dyson.stack_reused", solving] += 1
                seen.add((kind, t))
                if t != 0.0 and not (ks.grid.points == t).any():
                    tracer.counts["dyson.stack_offgrid", solving] += 1
            return inner(ks, t)

        return stack_request

    # -- results -----------------------------------------------------------

    def per_name(self, solving: bool) -> dict[str, dict[str, float]]:
        """Calls, busy (inclusive) time and self time per name, summed over
        the solves (``solving``) or over the set-up phase (solve id < 0)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (key, start, end, _, solve) in enumerate(self.spans):
            if (solve >= 0) != solving:
                continue
            rec = out.setdefault(self.names[key], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["busy_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        for (name, phase), count in self.counts.items():
            if phase == solving:
                out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})["calls"] = count
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line ``[name, start, end, parent, solve]`` per span, in
        call-start order; ``parent`` is a line index (-1 for none) and
        ``solve`` is -1 for the input build."""
        with open(path, "w") as fh:
            for key, start, end, parent, solve in self.spans:
                fh.write(json.dumps([self.names[key], start, end, parent, solve]) + "\n")
