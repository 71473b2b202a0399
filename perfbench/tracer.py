"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces every public function defined in the given
modules with a wrapper that records a span, and rebinds the wrapper in
every namespace that holds the same function object: ``from .spanning
import dfs_tree`` copies the name into the importing module, and a call
through that copy must be traced too.  ``uninstall`` puts every original
back.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable, Optional

# Span fields, stored as lists to keep the wrapper cheap.
NAME, START, END, PARENT, INSTANCE, RAISED, ATTRS = range(7)

Annotator = Callable[[tuple, dict, object], dict]


class Tracer:
    """Records ``[name, start, end, parent, instance, raised, attrs]`` spans.

    ``parent`` is the index of the enclosing span or -1; ``instance`` is
    whatever the caller last assigned to ``self.instance`` (the workload
    command the span belongs to); ``raised`` is the name of the exception
    type that left the call, or None.  ``annotators`` maps a span name to
    a function of (args, kwargs, result) whose dict is kept as ``attrs``.
    """

    def __init__(self, annotators: Optional[dict[str, Annotator]] = None):
        self.spans: list[list] = []
        self.instance: object = None
        self.annotators = annotators or {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._open
        annotate = self.annotators.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.instance, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if annotate is not None:
                span[ATTRS] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict[str, ModuleType], namespaces: Iterable[ModuleType],
                methods: Iterable[tuple[str, type, str]] = ()) -> None:
        """Trace the public functions defined in ``modules`` (span name
        ``<key>.<function>``) wherever ``namespaces`` bind them, and each
        ``(span name, class, method)`` in ``methods``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, Callable]] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        for name, cls, meth in methods:
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Child intervals are merged before subtracting, so overlapping or
    nested children are not counted twice.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(kids):
            a, b = max(a, s[START]), min(b, s[END])
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s[END] - s[START] - covered)
    return out
