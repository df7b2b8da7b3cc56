"""Timing spans recorded from outside the program.

The benchmark owns its tracing: :class:`Tracer` replaces public
functions and methods, looked up by dotted name at run time, with
wrappers that record one span per call.  Nothing in ``src/`` knows it is
being traced, so a refactor there cannot break the benchmark: a target
that no longer exists is listed in :attr:`Tracer.absent` and simply
records no spans.

A span is a target, a parent, a start and an end; spans stay in memory
and are written out only after the timed region
(:meth:`Tracer.write_jsonl`).
**Self time** is a span's duration minus the duration of its direct
children; per-span wrapper cost, calibrated once per process, is taken
out of both so that a layer called a million times is not billed for the
million wrappers.

Each thread has its own span stack (the virtual scheduler runs every
transaction on its own thread), so parent links never cross threads.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:function`` or ``module:Class.method``.

    ``Class`` may be ``*``: every class defined in the module that has
    the method.  ``wait`` marks a call that parks its thread (its time is
    reported apart from busy time).
    """

    layer: str
    path: str
    wait: bool = False


@dataclass
class Totals:
    """Spans of one name (or one layer), summed."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    def add(self, duration: float, self_time: float) -> None:
        self.count += 1
        self.total_s += duration
        self.self_s += self_time
        self.max_s = max(self.max_s, duration)


class _Buffer:
    """The spans of one thread, as flat columns.

    Columns of ints and floats hold nothing the garbage collector has to
    visit, so a million live spans do not slow the traced program's own
    collections down.  ``parent`` is an index into the same buffer, -1
    for a root.
    """

    __slots__ = ("target", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.target: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack: list[int] = []

    def open(self, target: int) -> int:
        index = len(self.target)
        self.target.append(target)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        return index


class Tracer:
    """Installs wrappers, collects spans, computes self time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []
        #: (name, layer, wait) per wrapped callable; spans index into it.
        self.targets: list[tuple[str, str, bool]] = []
        #: One buffer per thread that recorded a span; the first belongs
        #: to the thread that made the tracer, and only its root spans
        #: add up to wall time.
        self.buffers: list[_Buffer] = []
        self._buffer()
        #: Target paths that resolved to nothing at install time.
        self.absent: list[str] = []
        self.epoch = clock()

    # -- installing ---------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        wrapped: set[tuple[int, str]] = set()
        for target in targets:
            owners = _resolve(target.path)
            if not owners:
                self.absent.append(target.path)
            for owner, attribute, label in owners:
                if (id(owner), attribute) in wrapped:
                    continue
                wrapped.add((id(owner), attribute))
                raw = owner.__dict__[attribute]
                self._installed.append((owner, attribute, raw))
                index = self._register(label, target.layer, target.wait)
                if isinstance(raw, (staticmethod, classmethod)):
                    replacement = type(raw)(self._wrap(raw.__func__, index))
                else:
                    replacement = self._wrap(raw, index)
                setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    def reset(self) -> None:
        """Forget the spans recorded so far (set-up and warm-up)."""
        self.buffers[:] = [_Buffer()]
        self._local.buffer = self.buffers[0]

    def _register(self, name: str, layer: str, wait: bool = False) -> int:
        self.targets.append((name, layer, wait))
        return len(self.targets) - 1

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _Buffer()
            self.buffers.append(buffer)
            return buffer

    def _wrap(self, function: Callable, target: int) -> Callable:
        clock, buffer_of = self._clock, self._buffer

        def traced(*args, **kwargs):
            buffer = buffer_of()
            index = buffer.open(target)
            buffer.start[index] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                buffer.end[index] = clock()
                buffer.stack.pop()
            if type(result) is GeneratorType:
                return self._traced_generator(result, target)
            return result

        traced.__name__ = getattr(function, "__name__", "traced")
        traced.__doc__ = function.__doc__
        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def _traced_generator(self, generator: GeneratorType, target: int) -> Iterator:
        """One span per resumption: a generator's work happens in ``next``."""
        step = self._wrap(generator.__next__, target)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A span around a call the harness itself makes (a root)."""
        buffer = self._buffer()
        index = buffer.open(self._register(name, layer))
        buffer.start[index] = self._clock()
        try:
            yield
        finally:
            buffer.end[index] = self._clock()
            buffer.stack.pop()

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(buffer.target) for buffer in self.buffers)

    def calibrate(self, calls: int = 20_000) -> tuple[float, float]:
        """Per-span wrapper cost in seconds: (inside the span, around it).

        ``inside`` is what an empty call's own span measures; ``around``
        is what the wrapper costs its caller beyond that.  Both come from
        a scratch tracer, so no span of this one is touched.
        """
        scratch = Tracer(self._clock)
        wrapped = scratch._wrap(_noop, scratch._register("noop", "harness"))
        start = self._clock()
        for _ in range(calls):
            _noop(None, key=None)
        bare_s = self._clock() - start
        start = self._clock()
        for _ in range(calls):
            wrapped(None, key=None)
        wrapped_s = self._clock() - start
        buffer = scratch.buffers[0]
        inside = sum(e - s for s, e in zip(buffer.start, buffer.end)) / calls
        around = max(0.0, (wrapped_s - bare_s) / calls - inside)
        return inside, around

    @staticmethod
    def self_times(buffer: _Buffer, inside: float = 0.0, around: float = 0.0) -> list[float]:
        """Self time of every span of one thread, in span order.

        A span's duration loses ``inside`` (its own wrapper) and, for
        each direct child, the child's duration plus ``around`` (the
        child's wrapper, which ran on this span's clock).
        """
        result = [e - s - inside for s, e in zip(buffer.start, buffer.end)]
        for index, parent in enumerate(buffer.parent):
            if parent >= 0:
                result[parent] -= buffer.end[index] - buffer.start[index] + around
        return [max(0.0, value) for value in result]

    def summary(self) -> tuple[dict[str, Totals], dict[str, Totals], dict[str, Totals]]:
        """Totals by span name, by layer (busy spans), by layer (wait spans)."""
        inside, around = self.calibrate()
        by_name: dict[str, Totals] = {}
        busy: dict[str, Totals] = {}
        waiting: dict[str, Totals] = {}
        for buffer in self.buffers:
            self_times = self.self_times(buffer, inside, around)
            for index, target in enumerate(buffer.target):
                name, layer, wait = self.targets[target]
                duration = buffer.end[index] - buffer.start[index]
                by_name.setdefault(name, Totals()).add(duration, self_times[index])
                (waiting if wait else busy).setdefault(layer, Totals()).add(
                    duration, self_times[index]
                )
        return by_name, busy, waiting

    def root_seconds(self) -> float:
        """Wall time covered by the root spans of the tracer's own thread."""
        main = self.buffers[0]
        return sum(
            main.end[index] - main.start[index]
            for index, parent in enumerate(main.parent)
            if parent < 0
        )

    def write_jsonl(self, path) -> None:
        """One JSON object per span; ``trace`` is the id of its root span."""
        with open(path, "w", encoding="utf-8") as handle:
            offset = 0
            for buffer in self.buffers:
                trace_of: list[int] = []
                for index, target in enumerate(buffer.target):
                    parent = buffer.parent[index]
                    trace_of.append(index if parent < 0 else trace_of[parent])
                    name, layer, wait = self.targets[target]
                    record = {
                        "id": offset + index,
                        "name": name,
                        "layer": layer,
                        "start": buffer.start[index] - self.epoch,
                        "end": buffer.end[index] - self.epoch,
                        "parent": offset + parent if parent >= 0 else None,
                        "trace": offset + trace_of[index],
                    }
                    if wait:
                        record["wait"] = True
                    handle.write(json.dumps(record) + "\n")
                offset += len(buffer.target)


def _noop(*args, **kwargs) -> None:
    return None


def _resolve(path: str) -> list[tuple[Any, str, str]]:
    """``(owner, attribute, label)`` for each callable ``path`` names.

    The owner is the module, or the class in the MRO that defines the
    method, so an inherited method is wrapped once where it lives.  Any
    failure to find the target yields an empty list, never an exception.
    """
    module_name, _, qualified = path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    class_name, _, method = qualified.rpartition(".")
    if not class_name:
        if callable(module.__dict__.get(qualified)):
            return [(module, qualified, f"{module_name}.{qualified}")]
        return []
    if class_name == "*":
        classes = [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module_name
        ]
    else:
        value = getattr(module, class_name, None)
        classes = [value] if isinstance(value, type) else []
    found = []
    for cls in classes:
        for owner in cls.__mro__:
            raw = owner.__dict__.get(method)
            if raw is None or owner is object:
                continue
            if callable(raw) or isinstance(raw, (staticmethod, classmethod)):
                found.append((owner, method, f"{owner.__name__}.{method}"))
            break
    return found
