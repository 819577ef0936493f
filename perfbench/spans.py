"""In-memory span tracer that wraps library functions from outside.

A wrapper replaces a function on the module (or class) that its caller looks
it up on, so the library runs unmodified; each call records a span with its
name, start, end, parent span and unit id. Spans stay in a list until the run
ends. A wrapped name that no longer exists is reported as missing instead of
failing the run, so planned API changes only blank the metrics that need it.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # index into Tracer.spans, -1 for a root
    unit: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unit = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.unit, attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``before(args, kwargs)`` returns attrs stored on the span at entry;
        ``after(span, result, args)`` may add more once the call returns.
        A name that does not exist is noted as missing.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, **(before(args, kwargs) if before else {}))
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.end(idx)
            if after is not None:
                after(span, result, args)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def warn_missing(self) -> None:
        for name in self.missing:
            print(f"warning: {name} not found; metrics that need it are absent",
                  file=sys.stderr)


def self_times(spans: list[Span]) -> list[int]:
    """Duration minus the time covered by direct children. Children of one
    parent never overlap in a single thread, so their durations add."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own
