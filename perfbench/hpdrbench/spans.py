"""Benchmark-side spans around calls into the program's public entry points.

The program's own tracer (``repro.trace``) stays off in every run; the
traced run instead wraps selected functions and methods from the
benchmark's files, records one span per call (name, thread, start, end,
parent) in memory, and derives per-layer numbers when the run ends.

Parents come from a ``ContextVar`` holding the open-span stack, so
nesting is tracked per thread *and* per asyncio task: concurrent
requests interleaved on one event loop never become each other's
children.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class SpanRec:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


_STACK: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar(
    "hpdrbench_span_stack", default=()
)
#: nesting depth of counted (non-span) calls, so busy time counts the
#: outermost call only.
_DEPTH: contextvars.ContextVar[int] = contextvars.ContextVar(
    "hpdrbench_count_depth", default=0
)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[SpanRec] = []
        #: name -> (calls, busy seconds) of counted calls.
        self.counts: dict[str, list[float]] = {}
        #: name -> accumulated value (bytes, items, ...).
        self.totals: dict[str, float] = {}
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        stack = _STACK.get()
        rec = SpanRec(name, time.perf_counter(), 0.0,
                      stack[-1] if stack else None, threading.get_ident())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        return idx, _STACK.set(stack + (idx,))

    def _close(self, idx: int, token: contextvars.Token) -> None:
        self.spans[idx].end = time.perf_counter()
        _STACK.reset(token)

    @contextlib.contextmanager
    def span(self, name: str) -> Any:
        idx, token = self._open(name)
        try:
            yield
        finally:
            self._close(idx, token)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + value

    def wrap(self, fn: Callable[..., Any], name: str,
             observe: Callable[[Any], None] | None = None) -> Callable[..., Any]:
        """``fn`` with one span per call (coroutine functions stay async);
        ``observe`` sees every return value."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args: Any, **kwargs: Any) -> Any:
                idx, token = self._open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(idx, token)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx, token = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, token)
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              observe: Callable[[Any], None] | None = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper until :meth:`unpatch`.

        ``owner`` is a module, a class or an instance; the original is
        restored exactly (instance attributes are deleted again).
        """
        self.replace(owner, attr, lambda fn: self.wrap(fn, name, observe))

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`unpatch`."""
        own = attr in vars(owner)
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, staticmethod):
            new: Any = staticmethod(make(static.__func__))
        elif isinstance(owner, type):
            new = make(static)  # plain function: binds as before
        else:
            new = make(getattr(owner, attr))  # module function or bound method
        setattr(owner, attr, new)
        if own:
            self._undo.append(lambda: setattr(owner, attr, static))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def count_calls(self, obj: Any, attr: str, name: str) -> None:
        """Count calls of ``obj.attr`` and their busy time without adding
        spans (adapter launches sit *inside* codec stages; as spans they
        would eat the stages' self time).  Busy time counts outermost
        calls only."""
        counts = self.counts.setdefault(name, [0, 0.0])
        lock = self._lock

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                depth = _DEPTH.get()
                token = _DEPTH.set(depth + 1)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    _DEPTH.reset(token)
                    with lock:
                        counts[0] += 1
                        if depth == 0:
                            counts[1] += dt
            return counted

        self.replace(obj, attr, make)

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.totals.clear()
            for counts in self.counts.values():
                counts[0] = 0
                counts[1] = 0.0


# -- arithmetic ---------------------------------------------------------
def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[SpanRec]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s.start), min(b, s.end))
                for a, b in children.get(i, ()) if b > s.start and a < s.end]
        out.append((s.end - s.start) - union_length(kids))
    return out


def self_time_by_name(spans: list[SpanRec]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def coverage(spans: list[SpanRec], call_prefix: str,
             stage_prefix: str) -> float:
    """Share of the wall time of calls named ``call_prefix*`` covered by
    stage spans named ``stage_prefix*`` on any thread.

    Stage spans of thread-parallel calls run on pool threads, outside
    the calling thread's span stack; covering by interval union counts
    them without double-counting overlapped stages.
    """
    calls = [s for s in spans if s.name.startswith(call_prefix)]
    stages = sorted((s.start, s.end) for s in spans
                    if s.name.startswith(stage_prefix))
    wall = covered = 0.0
    for c in calls:
        wall += c.end - c.start
        covered += union_length(
            (max(a, c.start), min(b, c.end))
            for a, b in stages if b > c.start and a < c.end
        )
    return covered / wall if wall else 0.0
