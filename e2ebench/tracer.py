"""In-memory span tracer with exclusive ("self") time per span name.

A span is opened with :meth:`Tracer.enter` and closed with
:meth:`Tracer.exit`.  Every thread keeps its own stack, so spans nest
correctly per thread.  When a span closes, its duration is charged to its
parent's *child* time; its self time is its duration minus the time its
direct children covered.  Summed over every span of a thread, self times
equal the durations of that thread's root spans, which is what lets a
layer table add up to the traced wall time once the root spans are named
``other`` (the benchmark's glue and any code no wrapper covers).

Nothing here imports the system under test; ``layers.py`` decides which
functions get spans.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

#: Span name that stands for "waiting, not working" (an event loop's
#: ``select``).  Its time is excluded from the traced wall.
IDLE = "idle"
#: Root spans around each job: their self time is the explicit remainder.
OTHER = "other"


class _Frame:
    __slots__ = ("name", "start", "child", "record")

    def __init__(self, name: str, start: float, record: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record


class _ThreadState:
    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: list[_Frame] = []
        self.open: Counter = Counter()
        self.trace = 0
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.spans: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)
        # (name, start, end, parent record, trace id); end is None while open
        self.records: list[list] = []


class Tracer:
    """Per-thread span stacks, aggregated on demand.

    ``keep`` caps how many span records are retained for
    :meth:`write_records`; aggregates always cover every span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, keep: int = 200_000):
        self.clock = clock
        self.keep = keep
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._trace_ids = itertools.count(1)

    # -- per-thread state -------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def top(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._state().stack
        return stack[-1].name if stack else None

    def is_open(self, name: str) -> bool:
        return self._state().open[name] > 0

    def current_trace(self) -> int:
        return self._state().trace

    def new_trace(self) -> int:
        """Start a new trace id for the spans this thread opens next."""
        state = self._state()
        state.trace = next(self._trace_ids)
        return state.trace

    # -- spans --------------------------------------------------------------
    def enter(self, name: str) -> _Frame:
        state = self._state()
        now = self.clock()
        record = -1
        if len(state.records) < self.keep:
            record = len(state.records)
            parent = state.stack[-1].record if state.stack else -1
            state.records.append([name, now, None, parent, state.trace])
        frame = _Frame(name, now, record)
        state.stack.append(frame)
        state.open[name] += 1
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close *frame* (the innermost open span); returns its duration."""
        now = self.clock()
        state = self._state()
        stack = state.stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        duration = now - frame.start
        name = frame.name
        state.open[name] -= 1
        state.self_s[name] += duration - frame.child
        if state.open[name] == 0:
            # a span re-entered inside itself counts its wall time once
            state.total_s[name] += duration
        state.spans[name] += 1
        if stack:
            stack[-1].child += duration
        if frame.record >= 0:
            state.records[frame.record][2] = now
        return duration

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    # -- counts and samples -------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self._state().counts[name] += n

    def observe(self, name: str, value: float) -> None:
        self._state().samples[name].append(value)

    # -- results ------------------------------------------------------------
    def summary(self, now: Optional[float] = None) -> dict:
        """Aggregates merged over threads.

        With *now*, spans still open are charged as if they closed at
        *now* (a server flushing on a signal); the tracer itself is not
        changed.
        """
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        spans: Counter = Counter()
        counts: Counter = Counter()
        samples: defaultdict = defaultdict(list)
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            self_s.update(state.self_s)
            total_s.update(state.total_s)
            spans.update(state.spans)
            counts.update(state.counts)
            for name, values in list(state.samples.items()):
                samples[name].extend(values)
            if now is not None:
                _charge_open(list(state.stack), now, self_s, total_s)
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "spans": dict(spans),
            "counts": dict(counts),
            "samples": {k: list(v) for k, v in samples.items()},
        }

    def write_records(self, path) -> int:
        """Write the retained span records as JSON lines; returns the count."""
        written = 0
        with self._lock:
            threads = list(self._threads)
        with open(path, "w", encoding="utf-8") as handle:
            for state in threads:
                for index, (name, start, end, parent, trace) in enumerate(state.records):
                    handle.write(json.dumps({
                        "thread": state.ident, "id": index, "parent": parent,
                        "trace": trace, "name": name, "start": start, "end": end,
                    }) + "\n")
                    written += 1
        return written


def _charge_open(stack: list[_Frame], now: float, self_s: Counter, total_s: Counter) -> None:
    """Charge still-open frames (innermost first) as if closed at *now*."""
    carried = 0.0
    seen: set[str] = set()
    for frame in reversed(stack):
        duration = now - frame.start
        self_s[frame.name] += duration - frame.child - carried
        carried = duration
        # the outermost open frame of a name holds its total
        seen.add(frame.name)
    for name in seen:
        outer = next(f for f in stack if f.name == name)
        total_s[name] += now - outer.start


class _SpanContext:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.frame)


def traced_wall(self_s: dict) -> float:
    """Σ self time over every span but :data:`IDLE` — the traced wall."""
    return sum(v for name, v in self_s.items() if name != IDLE)

