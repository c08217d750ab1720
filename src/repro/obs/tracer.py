"""Hierarchical span tracing on the shared simulated clock.

A :class:`Span` is a named interval of simulated time with attributes
(rows in/out, transient bytes, contention class, ...) and children.
Spans nest: the engine opens a ``program`` span, each stratum opens a
``stratum`` span inside it, and so on down to individual physical
operators. Because every component charges work to one
:class:`~repro.common.timing.SimClock`, the span tree is a complete,
consistent account of where simulated time went — the substrate for
``EXPLAIN ANALYZE``, the hotspot table, and the Chrome trace export.

The disabled path is a shared null tracer whose ``span`` context
manager allocates nothing and records nothing, so instrumentation can
stay unconditionally in place on hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.common.timing import SimClock

#: Span categories, outermost to innermost. Exported so consumers (tests,
#: trace viewers) can assert/colour the hierarchy without string literals.
CATEGORY_PROGRAM = "program"
CATEGORY_STRATUM = "stratum"
CATEGORY_ITERATION = "iteration"
CATEGORY_STATEMENT = "statement"
CATEGORY_OPERATOR = "operator"

#: Nesting rank per category; used by tests and the exporter to check
#: that a child's category never outranks its parent's.
CATEGORY_ORDER = {
    CATEGORY_PROGRAM: 0,
    CATEGORY_STRATUM: 1,
    CATEGORY_ITERATION: 2,
    CATEGORY_STATEMENT: 3,
    CATEGORY_OPERATOR: 4,
}


@dataclass
class Span:
    """One traced interval on the simulated time axis."""

    name: str
    category: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Simulated seconds covered (0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration not covered by child spans."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes (rows_out=…, bytes=…)."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, category: str) -> list["Span"]:
        """All descendants (including self) of the given category."""
        return [span for span in self.walk() if span.category == category]


class _SpanContext:
    """Context manager opening one span on enter and closing it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._tracer._close(self._span)
        return False


class SpanTracer:
    """Collects a forest of spans against one simulated clock."""

    enabled = True

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, category: str = CATEGORY_OPERATOR, **attrs) -> _SpanContext:
        """Open a child span of the current span (or a new root)."""
        span = Span(name=name, category=category, start=self.clock.now(), attrs=attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.end = self.clock.now()
        # Close any descendants abandoned by an exception unwinding past
        # them, then pop the span itself.
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            if dangling.end is None:
                dangling.end = self.clock.now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()


class _NullSpan(Span):
    """Shared inert span: attribute writes are discarded."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(name="<disabled>", category="null", start=0.0, end=0.0)

    def set(self, **attrs) -> "Span":
        return self


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


class NullTracer:
    """Drop-in tracer that records nothing (the disabled path)."""

    enabled = False
    roots: list[Span] = []

    def span(self, name: str, category: str = CATEGORY_OPERATOR, **attrs) -> _NullSpanContext:
        return _NULL_CONTEXT


NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()
