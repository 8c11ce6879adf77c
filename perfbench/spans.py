"""Span recorder for the traced run.

A :class:`Tracer` wraps named program functions for the duration of a
``with`` block.  Each call becomes a span ``(name, start, end, parent)``
where ``parent`` is the index of the span that was open when the call
began (a parent-span stack), so nested calls such as an aggregation
inside a GC-LSTM cell step are attributed once: :func:`self_times`
subtracts every child span from its parent.  Spans stay in memory and
are written once, by :meth:`Tracer.write`, when the benchmark ends.

Leaving the block restores every patched attribute to exactly what it
was before, so untraced runs execute the program's own functions.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Target", "Tracer", "self_times"]

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as span ``name``.

    ``owner`` is the module or class whose attribute the caller resolves
    at call time (a name imported with ``from x import f`` must be
    patched in the importing module).  ``count`` is an optional
    ``count(tracer, args, kwargs, result)`` hook that records counters at
    the same boundary.
    """

    owner: object
    attr: str
    name: str
    count: Callable | None = None


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the durations of its
    direct children.  ``spans`` is a sequence of
    ``(name, start, end, parent)`` with ``parent`` an index or ``None``."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self, targets=(), *, clock=time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def begin(self, name: str) -> int:
        """Open a span; returns its index for :meth:`end`."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent)

    def wrap(self, fn, name: str, count=None):
        """``fn`` recorded as span ``name`` on every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for t in self.targets:
                # the raw class/module entry, so a method inherited from a
                # base class is shadowed on the concrete class and later
                # removed again rather than copied onto it
                saved = t.owner.__dict__.get(t.attr, _MISSING)
                fn = getattr(t.owner, t.attr)
                self._saved.append((t.owner, t.attr, saved))
                setattr(t.owner, t.attr, self.wrap(fn, t.name, t.count))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    # ------------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            out[name] += own
        return dict(out)

    def total_seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write(self, path: Path, header: dict) -> None:
        """Write ``header`` and every span as JSON lines to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
