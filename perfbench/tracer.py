"""Tracer that wraps functions and methods of an imported package from
outside, records spans in memory and restores every binding when closed.

A function imported by name (``from semtrack.tracks import box_iou``) lives in
every importing module's namespace, so the tracer patches each module
attribute that is the function, not just the defining one. Methods are
patched on the class. Nothing inside the package is edited.

Spans are (name, start, end, parent, attrs) with ``perf_counter`` times. The
tracer assumes one thread: the open-span stack is what links a child to its
parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

AttrsFn = Callable[[tuple, dict], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None           # index of the enclosing span, None at the root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Patch bindings with span- or count-recording wrappers; ``close``
    (or leaving the ``with`` block) puts every original back."""

    def __init__(self, package: str, clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- installing wrappers --

    def _modules(self):
        prefix = self.package + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def _bindings(self, func) -> list[tuple[object, str, str]]:
        """(module, attribute, short module name) for every place ``func`` is bound."""
        found = []
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is func:
                    found.append((module, attr, module.__name__.rsplit(".", 1)[-1]))
        if not found:
            raise LookupError(f"{func!r} is not bound in any {self.package} module")
        return found

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def trace_function(self, func, name: str, attrs: AttrsFn | None = None) -> None:
        """Span every call of ``func``; ``{module}`` in ``name`` becomes the
        name of the module the call was bound in."""
        for module, attr, short in self._bindings(func):
            self._patch(module, attr, self._span_wrapper(func, name.format(module=short), attrs))

    def count_function(self, func, name: str) -> None:
        """Count calls of ``func`` without timing them (for very hot calls)."""
        for module, attr, short in self._bindings(func):
            self._patch(module, attr, self._count_wrapper(func, name.format(module=short)))

    def trace_method(self, cls: type, attr: str, name: str,
                     attrs: AttrsFn | None = None) -> None:
        original = cls.__dict__.get(attr)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{attr} is not a plain method")
        self._patch(cls, attr, self._span_wrapper(original, name, attrs))

    def _span_wrapper(self, func, name: str, attrs: AttrsFn | None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs is not None else {}
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, self.clock(), float("nan"), parent, extra))
            self._stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                self.spans[index].end = self.clock()
                self._stack.pop()
        return wrapper

    def _count_wrapper(self, func, name: str):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def close(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading spans --

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of its interval covered by its
        direct children."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(index, ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.duration - covered)
        return out

    def write(self, path: str | Path) -> None:
        """One JSON object per span, in start order, then one with the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "attrs": span.attrs}) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")
