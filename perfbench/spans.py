"""In-memory span recorder: the benchmark's request tracing (stdlib only).

A span is one timed call into a layer: ``(span_id, parent_id, request_id,
name, start, end)``. Spans live in a list in memory while the workload
runs and are summarized (or written out) after it ends. Each thread keeps
a stack of open spans, so a call made while a span is open becomes its
child; work handed to another thread is linked explicitly with
:meth:`SpanRecorder.link` / :meth:`SpanRecorder.adopt`.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover. When children are nested in their parent
and do not overlap each other, the self times of one request add up to
the request's wall time; the difference is reported as unaccounted time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: "int | None"
    request_id: int
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    Children may run on other threads; only the part of a child inside
    its parent's interval is subtracted from the parent.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    return {
        span.span_id: span.duration
        - covered_length(
            ((c.start, c.end) for c in children.get(span.span_id, ())),
            span.start,
            span.end,
        )
        for span in spans
    }


class Frame:
    __slots__ = ("span_id", "request_id")

    def __init__(self, span_id: int, request_id: int):
        self.span_id = span_id
        self.request_id = request_id


class OpenSpan:
    """A span started by :meth:`SpanRecorder.begin`, ended by :meth:`finish`."""

    __slots__ = ("recorder", "span_id", "parent_id", "request_id", "name", "start", "done")

    def __init__(self, recorder, span_id, parent_id, request_id, name, start):
        self.recorder = recorder
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.name = name
        self.start = start
        self.done = False

    def finish(self) -> None:
        """Record the span (idempotent: only the first call counts)."""
        if self.done:
            return
        self.done = True
        self.recorder.record(
            Span(
                self.span_id,
                self.parent_id,
                self.request_id,
                self.name,
                self.start,
                time.perf_counter(),
                threading.get_ident(),
            )
        )


class SpanRecorder:
    """Collects spans from every thread of the workload process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._links: dict[int, tuple[object, Frame]] = {}
        self._links_lock = threading.Lock()

    # -- thread context ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Frame | None":
        """The innermost open span on this thread, or None outside a request."""
        stack = self._stack()
        return stack[-1] if stack else None

    def push(self, frame: "Frame") -> None:
        self._stack().append(frame)

    def pop(self) -> None:
        self._stack().pop()

    # -- spans -----------------------------------------------------------------

    def record(self, span: Span) -> None:
        self.spans.append(span)  # list.append is atomic under the GIL

    def begin(
        self,
        name: str,
        parent: "Frame | None" = None,
        push: bool = True,
    ) -> OpenSpan:
        """Open a span under ``parent`` (default: this thread's current span).

        Without a parent the span starts a new request: its id becomes the
        request id. ``push`` makes it the current span of this thread until
        :meth:`end`.
        """
        if parent is None:
            parent = self.current()
        span_id = next(self._ids)
        if parent is not None:
            request_id, parent_id = parent.request_id, parent.span_id
        else:
            parent_id, request_id = None, span_id
        span = OpenSpan(self, span_id, parent_id, request_id, name, time.perf_counter())
        if push:
            self.push(Frame(span_id, request_id))
        return span

    def end(self, span: OpenSpan) -> None:
        """Finish a span opened with ``push=True`` and pop it."""
        self.pop()
        span.finish()

    def frame(self, span: OpenSpan) -> Frame:
        return Frame(span.span_id, span.request_id)

    # -- cross-thread links ----------------------------------------------------

    def link(self, token: object, frame: "Frame | None") -> None:
        """Remember ``frame`` as the parent of work later done for ``token``.

        The token object is kept alive with the link, so its ``id`` cannot
        be reused by another object while the link exists.
        """
        if frame is None:
            return
        with self._links_lock:
            self._links[id(token)] = (token, frame)

    def adopt(self, token: object) -> "Frame | None":
        """The frame linked to ``token`` (consumed), else the current one."""
        with self._links_lock:
            entry = self._links.pop(id(token), None)
        if entry is not None and entry[0] is token:
            return entry[1]
        return self.current()

    def clear_links(self) -> None:
        with self._links_lock:
            self._links.clear()

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON line (for offline inspection)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent_id,
                            "request": span.request_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def layer_summary(spans, root_name: str, layer_names, wire_name: "str | None" = None):
    """Per-request mean self time and call count for every layer name.

    Requests are the spans named ``root_name`` (the client-side span of
    one operation). A root's own self time is the time the request spent
    outside every layer span: it is charged to ``wire_name`` when given
    (an HTTP request's time on the socket) and is otherwise unaccounted.
    Returns ``(ms, calls, unaccounted_ratio, n_requests)``; the ratio is
    ``sum |wall - sum of self times| / sum wall`` over all requests, so
    gaps and double-counted overlap both show.
    """
    layer_names = set(layer_names)
    grouped: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.request_id].append(span)
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    wall_total = 0.0
    gap_total = 0.0
    n_requests = 0
    for request_spans in grouped.values():
        roots = [s for s in request_spans if s.name == root_name and s.parent_id is None]
        if len(roots) != 1:
            continue
        root = roots[0]
        n_requests += 1
        selfs = self_times(request_spans)
        accounted = 0.0
        for span in request_spans:
            if span is root:
                if wire_name is not None:
                    ms[wire_name] += selfs[span.span_id]
                    calls[wire_name] += 1
                    accounted += selfs[span.span_id]
                continue
            if span.name in layer_names:
                ms[span.name] += selfs[span.span_id]
                calls[span.name] += 1
                accounted += selfs[span.span_id]
        wall_total += root.duration
        gap_total += abs(root.duration - accounted)
    n = max(n_requests, 1)
    mean_ms = {name: 1000.0 * ms[name] / n for name in ms}
    mean_calls = {name: calls[name] / n for name in calls}
    ratio = gap_total / wall_total if wall_total > 0 else 0.0
    return mean_ms, mean_calls, ratio, n_requests
