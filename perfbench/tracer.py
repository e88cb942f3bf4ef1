"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: :meth:`Tracer.wrap`
replaces a function at the place a caller looks it up (a module
attribute or a class attribute) with a timing shim, and
:meth:`Tracer.uninstall` puts every original back.  Nothing inside the
program knows it is being traced.

Each thread keeps its own span stack, so spans opened on serving worker
threads nest correctly.  A span's *self time* is its duration minus the
durations of its direct children; spans stay in memory and are written
out (Chrome trace-event JSON) only when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        # (name, tid, start_ns, end_ns, self_ns, attrs)
        self.spans: list[tuple] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        # Frame: [name, start_ns, child_ns, attrs]
        frame = [name, self._clock(), 0, None]
        self._stack().append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = self._clock()
        stack = self._stack()
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child_ns, attrs = frame
        dur = end - start
        if stack:
            stack[-1][2] += dur
        with self._lock:
            self.spans.append(
                (name, threading.get_ident(), start, end, dur - child_ns, attrs)
            )

    def span(self, name: str):
        """Context manager recording one span."""
        return _Span(self, name)

    # -- wrappers ---------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        *,
        generator: bool = False,
        on_return: Callable[[list, tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a shim that records span ``name``.

        ``generator=True`` times each ``next()`` of the generator the
        function returns (the consumer's work between items is not part
        of the span).  ``on_return(frame, args, kwargs, result)`` may
        attach attributes to the span from the call's arguments or result.
        With ``name=None`` the shim records no span and only calls
        ``on_return`` (with ``frame=None``), e.g. to register instances.
        """
        func = getattr(owner, attr)
        tracer = self

        if generator:
            @functools.wraps(func)
            def shim(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    frame = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(frame)
                    yield item
        elif name is None:
            @functools.wraps(func)
            def shim(*args, **kwargs):
                result = func(*args, **kwargs)
                on_return(None, args, kwargs, result)
                return result
        else:
            @functools.wraps(func)
            def shim(*args, **kwargs):
                frame = tracer.begin(name)
                try:
                    result = func(*args, **kwargs)
                    if on_return is not None:
                        on_return(frame, args, kwargs, result)
                    return result
                finally:
                    tracer.end(frame)

        self.patch(owner, attr, shim)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and summed
        numeric attributes."""
        out: dict[str, dict] = {}
        with self._lock:
            spans = list(self.spans)
        for name, _tid, start, end, self_ns, attrs in spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += self_ns / 1e9
            for key, value in (attrs or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def write_chrome(self, path: str | Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        with self._lock:
            spans = list(self.spans)
        origin = min((s[2] for s in spans), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": os.getpid(),
                "tid": tid,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"self_us": self_ns / 1e3, **(attrs or {})},
            }
            for name, tid, start, end, self_ns, attrs in spans
        ]
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({"traceEvents": events}))


def add_attr(frame: list, key: str, value: float) -> None:
    """Accumulate a numeric attribute on an open span frame."""
    attrs = frame[3]
    if attrs is None:
        attrs = frame[3] = {}
    attrs[key] = attrs.get(key, 0) + value


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self.frame: list | None = None

    def __enter__(self) -> list:
        self.frame = self._tracer.begin(self._name)
        return self.frame

    def __exit__(self, *exc_info) -> None:
        self._tracer.end(self.frame)
