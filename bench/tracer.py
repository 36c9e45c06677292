"""Spans around pistr's layers, recorded from outside the package.

A ``Tracer`` replaces functions at the module attribute where their callers
look them up (``pistr.engine.clique_cover`` is the name ``construct_labeling``
calls) with a wrapper that records a span: name, start, end, parent span and
operation id, plus counts read from the arguments and the result at the same
boundary. Spans stay in memory; ``self_times`` gives each span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder. ``op`` is the id stamped on new spans;
    ``begin`` starts the next operation and names it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.op_names: dict[int, str] = {}
        self._stack: list[int] = []

    def begin(self, name: str):
        self.op += 1
        self.op_names[self.op] = name

    def wrap(self, fn, name: str, count=None):
        """Wrap fn so each call records a span named ``name``. ``count`` is
        called as count(span, args, result, exc) to fill span.counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                stack.pop()
                if count is not None:
                    count(span, args, None, exc)
                raise
            span.end = perf_counter()
            stack.pop()
            if count is not None:
                count(span, args, result, None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Install wrappers for (module, attribute, span name, count) targets
        and restore the original attributes on exit."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, name, count))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

