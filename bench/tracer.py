"""Outside-in span tracer: wraps named bindings and records call spans.

A ``Binding`` names a place a function is looked up (a module or class
attribute, or a dict item) and the span name its calls are recorded
under.  ``Tracer.installed`` swaps every binding for a wrapper and puts
the originals back on exit, so the program under test is never edited.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    """One call: name, clock interval, parent span index and pass id.

    ``work`` is a computed work count for the call (terms, cells), or
    None where the layer has no count.
    """

    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int
    work: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Binding:
    """A function lookup site and the span name its calls get.

    ``owner`` is a module, a class or a dict; ``key`` the attribute or
    item name.  ``work`` maps the call's arguments to a work count.
    """

    owner: Any
    key: str
    name: str
    work: Optional[Callable[..., int]] = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Collects the spans of one pass; span parents index ``spans``."""

    def __init__(self, pass_id: int = 0, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id = pass_id
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, work: Optional[int] = None):
        parent = self._open[-1] if self._open else None
        record = Span(name, self.clock(), 0.0, parent, self.pass_id, work)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._open.pop()

    def wrap(self, fn: Callable, name: str, work=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, work(*args, **kwargs) if work else None):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, bindings):
        """Patch every binding with a traced wrapper; restore on exit."""
        saved = []
        try:
            for b in bindings:
                original = _get(b.owner, b.key)
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(original.__func__, b.name, b.work))
                else:
                    patched = self.wrap(original, b.name, b.work)
                saved.append((b.owner, b.key, original))
                _set(b.owner, b.key, patched)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                _set(owner, key, original)

    def records(self) -> list[dict]:
        """Spans as plain dicts with their self time, for writing out."""
        return [
            {"id": i, **asdict(s), "self": st}
            for i, (s, st) in enumerate(zip(self.spans, self_times(self.spans)))
        ]
