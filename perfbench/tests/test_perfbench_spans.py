"""Self time, cross-thread links, the layer summary and the installed wrappers."""

import threading

import pytest

from perfbench.layers import LAYER_SPANS, ROOT, install
from perfbench.spans import Span, SpanRecorder, covered_length, layer_summary, self_times


def _span(span_id, parent, name, start, end, request=1, thread=0):
    return Span(span_id, parent, request, name, start, end, thread)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6)], 0, 10) == 5
    assert covered_length([(1, 2), (1, 2)], 0, 10) == 1
    assert covered_length([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        _span(1, None, "root", 0, 10),
        _span(2, 1, "a", 1, 4),
        _span(3, 1, "b", 3, 6),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 5
    assert selfs[2] == 3
    assert selfs[3] == 3


def test_self_time_of_a_cross_thread_child_counts_only_inside_the_parent():
    spans = [
        _span(1, None, "root", 0, 10, thread=1),
        _span(2, 1, "pool", 8, 12, thread=2),
        _span(3, 2, "leaf", 9, 11, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 8
    assert selfs[2] == 2
    assert selfs[3] == 2


def test_recorder_links_work_across_threads():
    recorder = SpanRecorder()
    token = object()
    root = recorder.begin(ROOT)
    recorder.link(token, recorder.current())

    def worker():
        parent = recorder.adopt(token)
        span = recorder.begin("engine.run", parent=parent)
        recorder.end(span)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    recorder.end(root)
    (child,) = [s for s in recorder.spans if s.name == "engine.run"]
    (parent,) = [s for s in recorder.spans if s.name == ROOT]
    assert child.parent_id == parent.span_id
    assert child.request_id == parent.request_id
    assert child.thread != parent.thread
    assert recorder.adopt(token) is None  # a link is consumed once


def test_layer_summary_sums_self_times_to_wall_time():
    spans = [
        _span(1, None, ROOT, 0.0, 1.0),
        _span(2, 1, "service.wait", 0.0, 1.0),
        _span(3, 2, "engine.run", 0.1, 0.9, thread=2),
        _span(4, 3, "db.factorize", 0.2, 0.8, thread=2),
    ]
    ms, calls, unaccounted, n = layer_summary(spans, ROOT, LAYER_SPANS)
    assert n == 1
    assert ms["db.factorize"] == pytest.approx(600.0)
    assert ms["engine.run"] == pytest.approx(200.0)
    assert ms["service.wait"] == pytest.approx(200.0)
    assert calls["db.factorize"] == 1
    assert unaccounted == pytest.approx(0.0)


def test_layer_summary_charges_root_self_time_to_the_wire_or_to_unaccounted():
    spans = [
        _span(1, None, ROOT, 0.0, 1.0),
        _span(2, 1, "frontend.handler", 0.25, 0.75, thread=2),
    ]
    ms, _, unaccounted, _ = layer_summary(spans, ROOT, LAYER_SPANS, wire_name="frontend.wire")
    assert ms["frontend.wire"] == pytest.approx(500.0)
    assert unaccounted == pytest.approx(0.0)
    _, _, unaccounted, _ = layer_summary(spans, ROOT, LAYER_SPANS)
    assert unaccounted == pytest.approx(0.5)


def test_layer_summary_reports_double_counted_overlap():
    spans = [
        _span(1, None, ROOT, 0.0, 1.0),
        _span(2, 1, "service.wait", 0.0, 1.0),
        _span(3, 2, "engine.run", 0.0, 1.0, thread=2),
        _span(4, 2, "api.encode", 0.0, 0.5, thread=1),
    ]
    _, _, unaccounted, _ = layer_summary(spans, ROOT, LAYER_SPANS)
    assert unaccounted == pytest.approx(0.5)


@pytest.fixture
def service():
    from perfbench import data
    from repro import SeeDBConfig
    from repro.backends.memory import MemoryBackend
    from repro.service import single_backend_service

    backend = MemoryBackend()
    backend.register_table(data.make_table(2000, seed=1))
    svc = single_backend_service(backend, SeeDBConfig(), owned=True, max_workers=2)
    yield svc
    svc.close()


def _traced(recorder, call):
    root = recorder.begin(ROOT)
    try:
        return call()
    finally:
        recorder.end(root)


def test_installed_wrappers_trace_a_request_across_the_service_pool(service):
    from perfbench import data
    from repro.db import groupby

    original = groupby.factorize
    recorder = SpanRecorder()
    installed = install(recorder)
    try:
        request = next(data.explore_requests(1))
        result = _traced(recorder, lambda: service.recommend(request))
    finally:
        installed.uninstall()
    assert groupby.factorize is original
    assert len(result.recommendations) == data.K
    names = {span.name for span in recorder.spans}
    for name in (
        "service.wait",
        "api.resolve",
        "engine.run",
        "engine.execute",
        "optimizer.plan_run",
        "backends.execute",
        "db.predicate",
        "db.factorize",
        "db.aggregate",
        "core.score",
        "metrics.distance",
    ):
        assert name in names
    by_id = {span.span_id: span for span in recorder.spans}
    (run,) = [s for s in recorder.spans if s.name == "engine.run"]
    assert by_id[run.parent_id].name == "service.wait"
    assert run.thread != by_id[run.parent_id].thread
    assert installed.rows_scanned > 0
    _, _, unaccounted, n = layer_summary(recorder.spans, ROOT, LAYER_SPANS)
    assert n == 1
    assert unaccounted < 0.05
    # After uninstall nothing is recorded any more.
    before = len(recorder.spans)
    _traced(recorder, lambda: service.recommend(next(data.explore_requests(2))))
    assert len(recorder.spans) == before + 1  # just the root


def test_stream_spans_cover_every_round(service):
    from repro import RecommendationRequest

    recorder = SpanRecorder()
    installed = install(recorder)
    try:
        request = RecommendationRequest.from_sql(
            "SELECT * FROM facts WHERE d0 = 'd0=v01'", k=3, strategy="incremental"
        )
        rounds = _traced(recorder, lambda: list(service.recommend_stream(request)))
    finally:
        installed.uninstall()
    assert rounds[-1].is_final
    round_spans = [s for s in recorder.spans if s.name == "engine.round"]
    # One span per round, plus the last call that finishes the generator.
    assert len(round_spans) == rounds[-1].n_rounds + 1
    waits = [s for s in recorder.spans if s.name == "service.wait"]
    assert len(waits) == 1
    _, _, unaccounted, n = layer_summary(recorder.spans, ROOT, LAYER_SPANS)
    assert n == 1
    assert unaccounted < 0.05
