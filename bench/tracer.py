"""Outside-in span recorder for the traced benchmark run.

The program has no timers of its own, so the tracer rebinds the names a
layer is called through (module globals such as ``ecomp.runner.solve_p1``)
to thin wrappers that record a span per call, and puts the originals back
on exit.  Spans live in memory; the caller writes them out once the run
is over.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "info")

    def __init__(self, name, parent, solve):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent      # index of the enclosing span, -1 at top level
        self.solve = solve        # index of the enclosing solve span, or -1
        self.info = None          # per-call count taken from the return value

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target:
    """One name to rebind: ``module.attr`` records spans called ``span``.

    ``solve`` marks a span that starts one solve; spans below it share its
    solve id.  ``info`` maps the call's return value to a number stored
    on the span (cuts made, polish accepted).
    """

    def __init__(self, module, attr, span, solve=False, info=None):
        self.module, self.attr, self.span = module, attr, span
        self.solve, self.info = solve, info


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        try:
            for t in self.targets:
                original = getattr(t.module, t.attr)
                self._saved.append((t.module, t.attr, original))
                setattr(t.module, t.attr, self._wrap(original, t))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name, solve_root):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        solve = idx if solve_root else (self.spans[parent].solve if parent >= 0 else -1)
        span = Span(name, parent, solve)
        self.spans.append(span)
        self._stack.append(idx)
        return span

    @contextmanager
    def span(self, name):
        """A span around a call the benchmark itself makes."""
        span = self._open(name, False)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(target.span, target.solve)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if target.info is not None:
                span.info = target.info(out)
            return out
        return wrapper

    # ------------------------------------------------------------------
    # summaries

    def self_times(self) -> dict:
        """Per span name: duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out: dict = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.duration - c
        return out

    def totals(self) -> dict:
        """Per span name: (summed duration, call count, infos)."""
        out: dict = {}
        for s in self.spans:
            dur, calls, infos = out.get(s.name, (0.0, 0, []))
            if s.info is not None:
                infos.append(s.info)
            out[s.name] = (dur + s.duration, calls + 1, infos)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "solve": s.solve, "info": s.info}) + "\n")
