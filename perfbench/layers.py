"""Wrappers that record a span around each layer's public functions.

The benchmark traces the program from the outside: :func:`install`
replaces the public functions named in :data:`LAYER_SPANS` with wrappers
that open a span while a traced request is current on the calling thread
(and otherwise call straight through), and :meth:`Installed.uninstall`
puts the originals back. Module-level functions are replaced in every
loaded ``repro`` module that imported them by name.

Work crosses threads in two places, and both are linked here:

* the service hands each execution to a pool thread. The wrapper around
  ``RecommendationRequest.resolve`` links the resolved request to the
  calling span, and the wrappers around ``SeeDB.run_resolved`` /
  ``SeeDB.iter_resolved`` adopt that link on the pool thread;
* the HTTP server runs each request on a handler thread. The client
  sends its request id and span id in the :data:`REQUEST_HEADER` header,
  and the wrapper around ``do_POST`` opens its span under them.
"""

from __future__ import annotations

import functools
import sys
import threading

from perfbench.spans import SpanRecorder, Frame

#: Header carrying ``"<request id>:<client span id>"`` to the server.
REQUEST_HEADER = "X-Bench-Trace"

#: Name of the client-side span of one operation (the request root).
ROOT = "request"

#: Every layer span the benchmark reports, ``<module>.<fn>``.
ENGINE_PHASES = (
    "metadata",
    "enumerate",
    "prune",
    "sample",
    "plan",
    "execute",
    "score",
    "select",
    "render",
)
LAYER_SPANS = (
    "frontend.handler",
    "frontend.wire",
    "api.decode",
    "api.resolve",
    "api.encode",
    "service.wait",
    "engine.run",
    *(f"engine.{phase}" for phase in ENGINE_PHASES),
    "engine.round",
    "metadata.collect",
    "metadata.profile",
    "optimizer.plan_run",
    "optimizer.extract",
    "backends.execute",
    "db.predicate",
    "db.factorize",
    "db.aggregate",
    "core.score",
    "metrics.distance",
    "viz.render",
)


class Installed:
    """Handle on installed wrappers: counters plus :meth:`uninstall`."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._restore: list = []
        #: Memory-engine work done inside traced requests (``Engine.stats``).
        self.rows_scanned = 0
        self.groups = 0
        self._counter_lock = threading.Lock()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.recorder.clear_links()

    # -- patching helpers ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, functools.wraps(original)(make_wrapper(original)))

    def patch_function(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    # -- wrapper factories -------------------------------------------------------

    def span(self, name: str):
        """A plain span around every call made inside a traced request."""
        recorder = self.recorder

        def make(original):
            def wrapper(*args, **kwargs):
                if recorder.current() is None:
                    return original(*args, **kwargs)
                span = recorder.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.end(span)

            return wrapper

        return make

    def resolve_span(self, original):
        recorder = self.recorder

        def wrapper(request, *args, **kwargs):
            caller = recorder.current()
            if caller is None:
                return original(request, *args, **kwargs)
            span = recorder.begin("api.resolve")
            try:
                resolved = original(request, *args, **kwargs)
            finally:
                recorder.end(span)
            recorder.link(resolved, caller)
            return resolved

        return wrapper

    def run_span(self, original):
        recorder = self.recorder

        def wrapper(facade, resolved, *args, **kwargs):
            parent = recorder.adopt(resolved)
            if parent is None:
                return original(facade, resolved, *args, **kwargs)
            span = recorder.begin("engine.run", parent=parent)
            try:
                return original(facade, resolved, *args, **kwargs)
            finally:
                recorder.end(span)

        return wrapper

    def iter_span(self, original):
        """``SeeDB.iter_resolved``: one span over the whole generator."""
        recorder = self.recorder

        def wrapper(facade, resolved, *args, **kwargs):
            parent = recorder.adopt(resolved)
            inner = original(facade, resolved, *args, **kwargs)
            if parent is None:
                return inner
            return _generator_span(recorder, inner, "engine.run", parent)

        return wrapper

    def rounds_span(self, original):
        """``PhasedExecutePhase.rounds``: one span per ``next`` call, so per
        round plus the final call that assembles the views and stops."""
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            if recorder.current() is None:
                return inner
            return _per_item_spans(recorder, inner, "engine.round")

        return wrapper

    def stream_span(self, original):
        """``SeeDBService.recommend_stream``: the span runs from the call
        until the final round is handed to the caller (or the stream ends)."""
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            if recorder.current() is None:
                return original(*args, **kwargs)
            span = recorder.begin("service.wait")
            try:
                inner = original(*args, **kwargs)
            except BaseException:
                recorder.end(span)
                raise
            recorder.pop()
            return _until_final(inner, span)

        return wrapper

    def handler_span(self, original):
        """``do_POST``: parent and request id come from the client header."""
        recorder = self.recorder

        def wrapper(handler, *args, **kwargs):
            header = handler.headers.get(REQUEST_HEADER)
            if header is None:
                return original(handler, *args, **kwargs)
            request_id, parent_id = (int(part) for part in header.split(":"))
            span = recorder.begin(
                "frontend.handler", parent=Frame(parent_id, request_id)
            )
            try:
                return original(handler, *args, **kwargs)
            finally:
                recorder.end(span)

        return wrapper

    def counter(self, attr: str):
        recorder = self.recorder
        installed = self

        def make(original):
            def wrapper(stats, n, *args, **kwargs):
                if recorder.current() is not None:
                    with installed._counter_lock:
                        setattr(installed, attr, getattr(installed, attr) + n)
                return original(stats, n, *args, **kwargs)

            return wrapper

        return make


def _generator_span(recorder, inner, name, parent):
    """Drive ``inner`` under one span that is current only inside ``next``."""
    span = recorder.begin(name, parent=parent, push=False)
    frame = recorder.frame(span)
    try:
        while True:
            recorder.push(frame)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.pop()
            yield item
    finally:
        inner.close()
        span.finish()


def _per_item_spans(recorder, inner, name):
    try:
        while True:
            span = recorder.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.end(span)
            yield item
    finally:
        inner.close()


def _until_final(inner, span):
    try:
        for item in inner:
            if getattr(item, "is_final", False):
                span.finish()
            yield item
    finally:
        span.finish()
        inner.close()


def _subclasses(cls):
    seen = []
    stack = [cls]
    while stack:
        current = stack.pop()
        seen.append(current)
        stack.extend(current.__subclasses__())
    return seen


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every layer function named in :data:`LAYER_SPANS`."""
    import repro.engine.incremental  # noqa: F401 - registers its Phase subclasses
    import repro.engine.multiview  # noqa: F401
    from repro.api import progressive, wire
    from repro.api.request import RecommendationRequest
    from repro.backends import base as backends_base
    from repro.core.recommender import SeeDB
    from repro.core.view_processor import ViewProcessor
    from repro.db import expressions, groupby
    from repro.db.engine import ExecutionStats
    from repro.engine.incremental import PhasedExecutePhase
    from repro.engine.phases import Phase
    from repro.frontend import server
    from repro.metadata.collector import MetadataCollector
    from repro.metrics.base import DistanceMetric
    from repro.optimizer import extract
    from repro.optimizer.plan import ExecutionPlan
    from repro.service.service import SeeDBService
    from repro.viz import render

    installed = Installed(recorder)
    try:
        installed.patch_method(server.SeeDBRequestHandler, "do_POST", installed.handler_span)
        installed.patch_function(server, "decode_request", installed.span("api.decode"))
        installed.patch_method(RecommendationRequest, "resolve", installed.resolve_span)
        installed.patch_function(wire, "result_to_json", installed.span("api.encode"))
        installed.patch_method(progressive.PartialResult, "to_dict", installed.span("api.encode"))
        installed.patch_method(SeeDBService, "recommend", installed.span("service.wait"))
        installed.patch_method(SeeDBService, "recommend_stream", installed.stream_span)
        installed.patch_method(SeeDB, "run_resolved", installed.run_span)
        installed.patch_method(SeeDB, "iter_resolved", installed.iter_span)
        for cls in _subclasses(Phase):
            if "run" in cls.__dict__ and cls.name:
                installed.patch_method(cls, "run", installed.span(f"engine.{cls.name}"))
        installed.patch_method(PhasedExecutePhase, "rounds", installed.rounds_span)
        installed.patch_method(MetadataCollector, "collect", installed.span("metadata.collect"))
        installed.patch_function(
            backends_base, "collect_statistics", installed.span("metadata.profile")
        )
        installed.patch_method(ExecutionPlan, "run", installed.span("optimizer.plan_run"))
        for fn in ("raw_from_flag_table", "raw_from_separate_tables", "marginalize", "blocks_from_raw"):
            installed.patch_function(extract, fn, installed.span("optimizer.extract"))
        for cls in _subclasses(backends_base.Backend):
            for method in ("execute", "execute_grouping_sets"):
                if method in cls.__dict__:
                    installed.patch_method(cls, method, installed.span("backends.execute"))
        for cls in _subclasses(expressions.Expression):
            if "evaluate" in cls.__dict__:
                installed.patch_method(cls, "evaluate", installed.span("db.predicate"))
        for fn in ("factorize", "factorize_multi"):
            installed.patch_function(groupby, fn, installed.span("db.factorize"))
        installed.patch_function(groupby, "aggregate_by_codes", installed.span("db.aggregate"))
        installed.patch_method(ViewProcessor, "score_batch", installed.span("core.score"))
        for cls in _subclasses(DistanceMetric):
            if "distance_batch" in cls.__dict__:
                installed.patch_method(cls, "distance_batch", installed.span("metrics.distance"))
        installed.patch_function(render, "build_visualizations", installed.span("viz.render"))
        installed.patch_method(ExecutionStats, "count_scan", installed.counter("rows_scanned"))
        installed.patch_method(ExecutionStats, "count_groups", installed.counter("groups"))
    except BaseException:
        installed.uninstall()
        raise
    return installed
