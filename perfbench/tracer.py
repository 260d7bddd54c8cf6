"""In-memory spans around plskit's public stage functions.

A stage is wrapped where its caller looks it up, for example
``plskit.builder.realize_degree_matrix`` rather than
``plskit.realization.realize_degree_matrix``, so the program's own code
is never edited and the untraced path runs exactly as shipped.  A stage
whose name no longer exists is reported as absent instead of failing, so
a later change may delete or rename stages without touching this file.

Spans record name, start, end, parent span and request id.  Self time is
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "children")

    def __init__(self, name: str, start: float, parent: int, request: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.children: list[int] = []


class Tracer:
    """Collects spans and counters while a request is open.

    Calls made outside a request (the benchmark's own output checks) pass
    straight through, so they neither record spans nor bump counters.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.errors: Counter[tuple[str, str]] = Counter()
        self.request: int | None = None
        self.requests = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []

    # -- requests and spans ------------------------------------------------

    def request_call(self, call: Callable) -> Callable:
        """``call`` run as one request, under a span named "request"."""

        def run():
            self.request = self.requests
            self.requests += 1
            self._open("request")
            try:
                return call()
            finally:
                self._close()
                self.request = None

        return run

    def _open(self, name: str) -> None:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self.request))
        if parent >= 0:
            self.spans[parent].children.append(index)
        self._stack.append(index)

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = perf_counter()

    def count(self, key: str, amount: int = 1) -> None:
        if self.request is not None:
            self.counts[key] += amount

    # -- wrapping ----------------------------------------------------------

    def span_wrapper(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapped

    def install(self, stages) -> None:
        """Wrap every ``(span, target, attribute, after)`` stage that exists.

        ``target`` is a dotted module path, optionally followed by a class
        name.  ``after`` (or None) runs on the result outside the span.
        With span None the stage only runs ``after``; generator functions
        are wrapped so that ``after`` sees each yielded item.
        """
        self.wrapped, self.absent = [], []
        for name, target, attr, after in stages:
            owner = _resolve(target)
            raw = None if owner is None else inspect.getattr_static(owner, attr, None)
            if raw is None:
                self.absent.append(f"{target}.{attr}")
                continue
            own = not isinstance(owner, type) or attr in vars(owner)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if name is None and inspect.isgeneratorfunction(fn):
                wrapped = _counting_generator(self, fn, after)
            elif name is None:
                wrapped = _counting_call(self, fn, after)
            else:
                wrapped = self.span_wrapper(name, fn, after)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._patches.append((owner, attr, raw, own))
            setattr(owner, attr, wrapped)
            self.wrapped.append(f"{target}.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reports -----------------------------------------------------------

    def stage_table(self, scales: list[float]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and total self time (s).

        Each span's times are multiplied by ``scales[request id]``.
        """
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = table[span.name]
            row["calls"] += 1
            row["total_s"] += (span.end - span.start) * scales[span.request]
            row["self_s"] += self_time(self.spans, span) * scales[span.request]
        return dict(table)

    def durations(self, name: str, scales: list[float]) -> list[float]:
        return [
            (span.end - span.start) * scales[span.request]
            for span in self.spans
            if span.name == name
        ]


def self_time(spans: list[Span], span: Span) -> float:
    """Duration minus the union of the child spans' intervals."""
    covered = 0.0
    reach = span.start
    for start, end in sorted((spans[c].start, spans[c].end) for c in span.children):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return (span.end - span.start) - covered


def _resolve(target: str) -> Any:
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


def _counting_call(tracer: Tracer, fn: Callable, after: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.request is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapped


def _counting_generator(tracer: Tracer, fn: Callable, after: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        for item in fn(*args, **kwargs):
            if tracer.request is not None:
                after(tracer, args, kwargs, item)
            yield item

    return wrapped
