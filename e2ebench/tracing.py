"""Span recording for the benchmark's traced run.

The spans are recorded from the benchmark's own files: :class:`Tracer`
wraps public functions and methods of the package at run time, so the
package itself carries no instrumentation.  A span records its name,
start, duration and parent; its *self* time is its duration minus the
time its child spans cover.  Calls that happen tens of thousands of times
per round (event application, WAL appends) are kept as aggregates only,
so the Chrome trace stays small; their time still counts against the
parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class _Open:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: int):
        self.name = name
        self.start = start
        self.children = 0


class Tracer:
    """In-memory span recorder; written out once the run ends."""

    def __init__(self) -> None:
        self.origin = time.perf_counter_ns()
        self._stack: list[_Open] = []
        self.events: list[dict] = []
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    # -- spans ----------------------------------------------------------------

    def _begin(self, name: str) -> _Open:
        span = _Open(name, time.perf_counter_ns())
        self._stack.append(span)
        return span

    def _end(self, span: _Open, emit: bool) -> int:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - span.start
        # Re-entrant calls of one layer (a wrapped function calling itself
        # through another wrapped name) count once in the layer total.
        if not any(outer.name == span.name for outer in self._stack):
            self.total_ns[span.name] += duration
        self.self_ns[span.name] += duration - span.children
        self.calls[span.name] += 1
        if self._stack:
            self._stack[-1].children += duration
        if emit:
            self.events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - self.origin) / 1000.0,
                    "dur": duration / 1000.0,
                    "pid": os.getpid(),
                    "tid": 1,
                }
            )
        return duration

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        opened = self._begin(name)
        try:
            yield
        finally:
            self._end(opened, emit=True)

    def seconds(self, name: str) -> float:
        """Inclusive time of a layer, outermost calls only."""
        return self.total_ns.get(name, 0) / 1e9

    # -- wrapping the package -------------------------------------------------

    def _wrapper(self, func: Callable, name: str, aggregate: bool, count: Callable | None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            opened = tracer._begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._end(opened, emit=not aggregate)
                if count is not None:
                    for key, value in count(*args, **kwargs).items():
                        tracer.counters[key] += value

        traced.__wrapped_by_tracer__ = func
        return traced

    def wrap_function(
        self,
        module_name: str,
        attr: str,
        name: str,
        *,
        aggregate: bool = False,
        count: Callable | None = None,
    ) -> None:
        """Wrap a module-level function everywhere the package bound it.

        Modules that imported the function by name hold their own
        reference, so every loaded ``repro`` module attribute that is the
        original object is rebound too.  A target that no longer exists is
        reported in :attr:`missing` and its metric reads 0.
        """
        original = getattr(_module(module_name), attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        traced = self._wrapper(original, name, aggregate, count)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)

    def wrap_method(
        self, module_name: str, cls_name: str, attr: str, name: str, *, aggregate: bool = False
    ) -> None:
        """Wrap a method on its class (every call goes through the class)."""
        cls = getattr(_module(module_name), cls_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        setattr(cls, attr, self._wrapper(original, name, aggregate, None))

    # -- output ---------------------------------------------------------------

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the spans as Chrome Trace Event JSON (Perfetto, chrome://tracing)."""
        pid = os.getpid()
        events = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 1, "args": {"name": "e2ebench"}},
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": 1, "args": {"name": "workload"}},
        ] + self.events
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}, handle)

    def self_time_table(self) -> str:
        """Self time per layer, largest first, as a printable table."""
        total = sum(self.self_ns.values()) or 1
        lines = [f"{'layer':<44} {'calls':>8} {'self s':>9} {'share':>7} {'incl s':>9}"]
        for name, ns in sorted(self.self_ns.items(), key=lambda item: -item[1]):
            lines.append(
                f"{name:<44} {self.calls[name]:>8} {ns / 1e9:>9.3f} {ns / total:>7.1%} "
                f"{self.total_ns[name] / 1e9:>9.3f}"
            )
        return "\n".join(lines)
