"""Span tracing around avsrkit's public functions, from outside the package.

``Tracer.install`` replaces every public function and public method of the
traced modules with a wrapper that records one span (name, start, end,
parent). Package modules that imported a function by name
(``from .vfnet import pair_forward``) get the wrapper too, so calls between
layers are seen. Spans stay in memory until ``write``; ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

PACKAGE = "avsrkit"
LAYERS = ("store", "backend", "vfnet", "training", "pipeline", "fusion",
          "metrics", "checkpoint")


class Tracer:
    def __init__(self):
        self.names = []   # span name per span
        self.starts = []
        self.ends = []
        self.parents = []  # index of the enclosing span, -1 at the top
        self.observers = {}  # name -> fn(args, kwargs, result) -> {counter: amount}
        self.counters = defaultdict(float)  # "name.counter" -> total
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- installing -------------------------------------------------------

    def _wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        observe = self.observers.get(name)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                for key, amount in observe(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += amount
            return result

        return wrapper

    def install(self, observers):
        """Wrap the public functions and methods of every traced layer.

        ``observers`` maps a span name to a function of (args, kwargs,
        result) that returns counts to add up under that name.
        """
        self.observers = observers
        package = importlib.import_module(PACKAGE)
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    wrappers[id(obj)] = wrapper
                    self._set(module, attr, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        # rebind names that other package modules imported directly
        for info in pkgutil.iter_modules(package.__path__):
            self._rebind(importlib.import_module(f"{PACKAGE}.{info.name}"), wrappers)
        self._rebind(package, wrappers)

    def _rebind(self, module, wrappers):
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and vars(module)[attr] is not wrapper:
                self._set(module, attr, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def span_cost(self, repeats=20000):
        """Seconds one span adds to a call: a traced no-op less a bare one,
        each timed over ``repeats`` calls. Leaves no spans behind."""
        def noop():
            return None

        traced = self._wrap("calibration", noop)
        mark = len(self.names)
        clock = time.perf_counter
        start = clock()
        for _ in range(repeats):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(repeats):
            traced()
        cost = (clock() - start - bare) / repeats
        for column in (self.names, self.starts, self.ends, self.parents):
            del column[mark:]
        return cost

    # -- reading ----------------------------------------------------------

    def __len__(self):
        return len(self.names)

    def summary(self):
        """Per span name: calls, busy seconds and self seconds; per layer: self
        seconds. A span's self time is its duration less its children's."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        layer_self = defaultdict(float)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            entry = by_name[name]
            entry["calls"] += 1
            entry["s"] += duration
            own = duration - child_time[i]
            entry["self_s"] += own
            layer_self[name.split(".", 1)[0]] += own
        return dict(by_name), dict(layer_self)

    def write(self, path):
        """Spans as a JSON list of [name, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[n, s, e, p] for n, s, e, p in
                       zip(self.names, self.starts, self.ends, self.parents)], fh)
