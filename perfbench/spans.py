"""In-memory span recorder for the traced run, hooks that put spans around
calls into the program, and span self time.

A span is one call across a layer boundary: a name ("<layer>.<call>"), start
and end in nanoseconds on the host's monotonic clock, the span that was open
when it began, and the frame it worked on. Parents come from a per-thread
stack. Work handed to another thread through Recorder.bind keeps the
submitting thread's open span as its parent, so prefetch and dispatch
threads nest under the call that started them. perf_counter_ns reads
CLOCK_MONOTONIC on Linux, so spans recorded by worker processes on the same
host share the client's time base.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    frame: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Recorder:
    """Collects spans from any thread; spans refer to parents by index."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, frame: int | None = None, **attrs) -> int:
        parent = self.current()
        if frame is None and parent is not None:
            frame = self.spans[parent].frame
        span = Span(name, time.perf_counter_ns(), parent=parent, frame=frame, attrs=attrs)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        self._stack().append(index)
        return index

    def add(self, span: Span) -> None:
        """Record a finished leaf span under the currently open one."""
        span.parent = self.current()
        with self._lock:
            self.spans.append(span)

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        popped = self._stack().pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def bind(self, fn):
        """Wrap fn so that, on any thread, its spans nest under the span
        open here and now."""
        parent = self.current()
        if parent is None:
            return fn

        @functools.wraps(fn)
        def bound(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return bound


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children may run on other threads and overlap one another; overlapping
    time is subtracted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start_ns, span.end_ns))
    return [
        span.end_ns - span.start_ns - covered_ns(children[i], span.start_ns, span.end_ns)
        for i, span in enumerate(spans)
    ]


class HookMissing(RuntimeError):
    """A hook's target no longer exists in the program."""


class Hooks:
    """Replaces attributes named "module:qualname" with wrappers, and puts
    the originals back on restore. A missing target raises HookMissing."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            raise HookMissing(f"hook target {target} is missing: {exc}") from exc
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def spanning(recorder: Recorder, name: str, frame_of=None, attrs_of=None):
    """A wrapper factory for Hooks.wrap: one span per call.

    ``frame_of(args)`` names the frame when the arguments carry it, and
    ``attrs_of(args, result)`` adds attributes once the call returns.
    """

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = frame_of(args) if frame_of else None
            index = recorder.open(name, frame)
            try:
                result = original(*args, **kwargs)
            finally:
                span = recorder.close(index)
            if attrs_of:
                span.attrs.update(attrs_of(args, result))
            return result

        return wrapper

    return make
