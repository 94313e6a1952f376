"""Span recording and self-time accounting for the traced benchmark run.

A :class:`Tracer` wraps callables from outside the program: each call
becomes one span on the calling thread's stack.  Spans stay in memory
and are written once, as Chrome trace-event JSON (an array of
``{"ph": "X", name, pid, tid, ts, dur, args}`` objects, microseconds),
loadable in ``chrome://tracing`` or Perfetto.

``args.self_us`` is the span's duration minus the part its child spans
cover, so the self times of a root span's subtree sum to the root's
duration exactly.  Counts a wrapped call reports (tokens preprocessed,
roots replayed, ...) ride in the same ``args``.
"""

import functools
import json
import os
import threading
import time


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self):
        self.events = []
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counts=None, before=None):
        """``fn`` recording a span ``name`` per call.

        ``counts(result, args, kwargs, state)`` may return ``{name:
        number}`` for the span's ``args``; ``state`` is what
        ``before(args, kwargs)`` returned ahead of the call (None
        without ``before``), for counts taken as a difference.  Both run
        outside the span's interval.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            stack = self._stack()
            frame = [0]  # nanoseconds covered by child spans
            stack.append(frame)
            start = time.perf_counter_ns()
            result = returned = None
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                extra = None
                if counts is not None and returned:
                    extra = counts(result, args, kwargs, state)
                self._record(name, start, dur, dur - frame[0], extra)

        return traced

    def _record(self, name, start_ns, dur_ns, self_ns, extra):
        event_args = {"self_us": self_ns / 1000.0}
        if extra:
            event_args.update(extra)
        self.events.append({
            "name": name, "ph": "X", "pid": self._pid,
            "tid": threading.get_ident(), "ts": start_ns / 1000.0,
            "dur": dur_ns / 1000.0, "args": event_args,
        })

    def write(self, path):
        """Write every recorded span; a trailing ``trace.write`` event
        carries the serialization time, so readers can take it out of
        the process wall time."""
        start = time.perf_counter_ns()
        body = json.dumps(self.events, separators=(",", ":"))
        dur = time.perf_counter_ns() - start
        trailer = json.dumps({
            "name": "trace.write", "ph": "X", "pid": self._pid,
            "tid": threading.get_ident(), "ts": start / 1000.0,
            "dur": dur / 1000.0, "args": {"self_us": dur / 1000.0},
        })
        with open(path, "w") as handle:
            handle.write(body[:-1] + ("," if self.events else "")
                         + trailer + "]")


def load(path):
    with open(path) as handle:
        return json.load(handle)


def roots(events, name):
    """Root spans called ``name``, in start order."""
    return sorted((e for e in events if e["name"] == name),
                  key=lambda e: e["ts"])


def subtree(events, root):
    """Every span on ``root``'s thread inside its interval, root included."""
    lo, hi = root["ts"], root["ts"] + root["dur"]
    return [
        e for e in events
        if e["tid"] == root["tid"] and e["pid"] == root["pid"]
        and lo <= e["ts"] and e["ts"] + e["dur"] <= hi
    ]


def totals(spans):
    """``{name: {"self_s", "calls", <count>: sum}}`` over ``spans``."""
    out = {}
    for span in spans:
        row = out.setdefault(span["name"], {"self_s": 0.0, "calls": 0})
        row["calls"] += 1
        for key, value in span["args"].items():
            if key == "self_us":
                row["self_s"] += value / 1e6
            else:
                row[key] = row.get(key, 0) + value
    return out
