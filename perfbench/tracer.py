"""Spans around every call that one targetcost module makes into another.

Boundaries are found when a Tracer is built, not listed by hand:

* a public function that module A holds in its namespace but module B
  defines (``from .normals import std_normal_cdf`` in ``sim``) is a
  boundary into layer B;
* a sibling module that A imported whole (``from . import expcase``) is
  swapped for a copy whose public functions are wrapped, so calls made
  through that name are boundaries too, while calls inside the module
  itself stay untraced.

``install()`` puts the wrappers in place and ``uninstall()`` restores the
original objects, so untraced ops run the program exactly as shipped.  Each
span records its name (``<layer>.<function>``), start, end, parent span and
thread id.  A span opened on a thread that has no open span of its own
(a worker of the simulator's thread pool) takes as parent the innermost
span open on the thread that entered ``root``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import types
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "tid", "t0", "t1", "info")

    def __init__(self, span_id, name, parent, info):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.tid = threading.get_ident()
        self.info = info
        self.t0 = self.t1 = 0.0


def _public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Wraps every cross-module call of `package`; keeps spans in memory.

    `annotate` maps a span name to {key: parameter}; each call records the
    argument under `key`, or its element count when `key` is "elems".  A
    parameter the function no longer has, or a call that leaves it at its
    default, records nothing.
    """

    def __init__(self, package, annotate=None):
        self.annotate = annotate or {}
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack = None
        self._wrappers = {}
        self._patches = []  # (holder module, attribute, original, replacement)
        modules = {}
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            modules[module.__name__] = module
        for holder in modules.values():
            for attr, obj in list(vars(holder).items()):
                if attr.startswith("_"):
                    continue
                if (inspect.isfunction(obj) and obj.__module__ in modules
                        and obj.__module__ != holder.__name__):
                    self._patches.append((holder, attr, obj, self._wrap(obj)))
                elif (isinstance(obj, types.ModuleType) and obj is not holder
                        and obj.__name__ in modules):
                    self._patches.append((holder, attr, obj, self._proxy(obj)))
        self.boundaries = frozenset(span_name(fn) for fn in self._wrappers)

    def _proxy(self, module):
        copy = types.ModuleType(module.__name__, module.__doc__)
        copy.__dict__.update(vars(module))
        for name, fn in _public_functions(module).items():
            setattr(copy, name, self._wrap(fn))
        return copy

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = span_name(fn)
        # (key, parameter name, its position) for each recorded argument;
        # a direct lookup costs far less per call than Signature.bind.
        params = list(inspect.signature(fn).parameters)
        wanted = [(key, param, params.index(param))
                  for key, param in self.annotate.get(name, {}).items()
                  if param in params]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = None
            if wanted:
                info = {}
                for key, param, pos in wanted:
                    if pos < len(args):
                        value = args[pos]
                    elif param in kwargs:
                        value = kwargs[param]
                    else:
                        continue
                    info[key] = int(np.size(value)) if key == "elems" else value
            span, stack = tracer._open(name, info)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span, stack)

        self._wrappers[fn] = wrapper
        return wrapper

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, info):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        span = Span(next(self._ids), name, parent, info)
        stack.append(span.id)
        span.t0 = perf_counter()
        return span, stack

    def _close(self, span, stack):
        span.t1 = perf_counter()
        stack.pop()
        self.spans.append(span)

    def install(self):
        for holder, attr, _original, replacement in self._patches:
            setattr(holder, attr, replacement)

    def uninstall(self):
        for holder, attr, original, _replacement in self._patches:
            setattr(holder, attr, original)

    def root(self, name, fn, *args):
        """Call fn(*args) inside a root span `name`, with the wrappers
        installed; returns fn's result."""
        self._root_stack = self._stack()
        self.install()
        span, stack = self._open(name, None)
        try:
            return fn(*args)
        finally:
            self._close(span, stack)
            self.uninstall()
            self._root_stack = None

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def children_of(spans):
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_time(span, children):
    """Duration of `span` minus the union of its child spans' intervals,
    whatever thread each child ran on."""
    covered, reach = 0.0, span.t0
    for t0, t1 in sorted((max(c.t0, span.t0), min(c.t1, span.t1))
                         for c in children.get(span.id, ())):
        if t1 > reach:
            covered += t1 - max(t0, reach)
            reach = t1
    return (span.t1 - span.t0) - covered


def descendant_threads(span, children):
    """Distinct thread ids of the spans nested under `span`."""
    tids, todo = set(), list(children.get(span.id, ()))
    while todo:
        child = todo.pop()
        tids.add(child.tid)
        todo.extend(children.get(child.id, ()))
    return tids
