"""In-memory span tracer and the wrappers that feed it.

Spans are recorded from outside the library: around each public call
the benchmark makes, and, in the traced run only, around the names one
singvec module imports from another (patched on the importing module)
and around the concrete ``RealDescriptor.enclose`` methods.  Nothing in
``src/singvec`` changes.

A span is (name, start, end, parent, job, attrs) with times from
``time.perf_counter_ns``.  Self time is a span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int
    end: int | None
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Collects spans while ``active``; when inactive every hook is a
    pass-through, so checks run between traced passes stay unrecorded."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.active = False

    def begin(self, name: str, **attrs) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), None, parent, self.job, attrs))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.attrs.update(attrs)
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.active:
            yield None
            return
        idx = self.begin(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def wrap(self, name: str, fn, attrs_of=None):
        """Wrap a plain function; ``attrs_of(args, kwargs)`` is evaluated
        before the span opens, so its cost is not charged to ``name``."""

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_generator(self, name: str, fn, attrs_of=None):
        """Wrap a generator function so that each ``next()`` is its own
        span.  Work the caller does between yields stays in the caller's
        span; the first ``next()`` carries ``calls=1`` plus ``attrs_of``,
        every yield ``yielded=1``."""

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = dict(attrs_of(args, kwargs)) if attrs_of else {}
            attrs["calls"] = 1
            return self._traced_iter(name, fn(*args, **kwargs), attrs)

        return wrapper

    def _traced_iter(self, name, it, first_attrs):
        attrs = first_attrs
        while True:
            idx = self.begin(name, **attrs)
            attrs = {}
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(idx)
            self.spans[idx].attrs["yielded"] = 1
            yield item

    # -- analysis ------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for idx, span in enumerate(self.spans):
            if span.parent is not None:
                out.setdefault(span.parent, []).append(idx)
        return out

    def self_seconds(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        kids = self.children()
        return [
            span.seconds - sum(self.spans[k].seconds for k in kids.get(idx, ()))
            for idx, span in enumerate(self.spans)
        ]

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, secs in zip(self.spans, self.self_seconds()):
            out[span.name] = out.get(span.name, 0.0) + secs
        return out

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "parent": s.parent,
                "job": s.job,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


@contextlib.contextmanager
def patched(targets):
    """Temporarily set attributes: ``targets`` is a list of
    (owner, attribute name, replacement)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
