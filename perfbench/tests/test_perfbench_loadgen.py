"""Open-loop timing and failure counting, against a fake HTTP connection."""

import json
import statistics
import threading
import time

import pytest

from perfbench import checks, data, workloads


class FakeResponse:
    def __init__(self, status, body):
        self.status = status
        self._body = body
        self._lines = body.splitlines(keepends=True)

    def read(self):
        return self._body

    def readline(self):
        return self._lines.pop(0) if self._lines else b""


class FakeConnection:
    """Answers each POST after ``delay`` seconds with a canned reply."""

    def __init__(self, reply):
        self.reply = reply
        self._path = None

    def request(self, method, path, body, headers):
        self._path = path
        self._body = json.loads(body)

    def getresponse(self):
        time.sleep(FakeState.delay)
        return self.reply(self._path, self._body)

    def close(self):
        pass


class FakeBackend:
    data_version = 1


class FakeState:
    delay = 0.1

    def __init__(self, reply):
        self.reply = reply
        self.backend = FakeBackend()
        self.rw = workloads.ReadWriteLock()
        self.appends = 0

    def connect(self):
        return FakeConnection(self.reply)

    def append(self):
        self.appends += 1
        self.backend.data_version += 1


def _good_reply(path, body):
    views = [{"label": f"view {i}", "utility": 0.5 - i / 10} for i in range(data.K)]
    return FakeResponse(200, json.dumps({"recommendations": views, "partial": False}).encode())


def test_open_loop_times_requests_from_their_due_time():
    # Three requests due 10 ms apart on two connections: the third waits
    # for a connection, and that wait is part of its latency.
    ops = [data.Operation(0.01 * i, data.V1, data.equality_sql(0, i)) for i in range(3)]
    records, start = workloads.open_loop(FakeState(_good_reply), ops, None)
    records.sort(key=lambda r: r.due)
    assert [r.problems for r in records] == [[], [], []]
    third = records[2]
    assert third.latency >= 2 * FakeState.delay - 0.02
    assert third.sent - third.due >= FakeState.delay - 0.03
    assert records[0].sent - records[0].due < FakeState.delay


def test_an_append_holds_requests_back_and_times_the_refresh():
    ops = [
        data.Operation(0.0, data.APPEND, data.equality_sql(0, 1)),
        data.Operation(0.01, data.V1, data.equality_sql(0, 2)),
    ]
    state = FakeState(_good_reply)
    records, _ = workloads.open_loop(state, ops, None)
    assert state.appends == 1
    refresh = next(r for r in records if r.kind == data.APPEND)
    follow_ups = [r for r in records if r.kind == data.V1]
    assert len(follow_ups) == 2
    assert refresh.latency >= FakeState.delay - 0.01
    # The request due during the refresh was sent only after it ended.
    late = max(follow_ups, key=lambda r: r.sent)
    assert late.sent >= refresh.done - 1e-3
    assert all(r.version == 2 for r in follow_ups)


def test_refresh_p50_comes_from_append_refreshes_only():
    state = FakeState(_good_reply)
    ops = [data.Operation(0.0, data.V1, data.equality_sql(0, 1))]
    records, start = workloads.open_loop(state, ops, None)
    extra = workloads.refresh_samples(state)
    assert state.appends == workloads.EXTRA_REFRESHES
    refreshes = [r for r in extra if r.kind == data.APPEND]
    assert len(refreshes) == workloads.EXTRA_REFRESHES
    assert all(r.latency >= FakeState.delay - 0.01 for r in refreshes)
    # Set-up samples stay out of refresh_p50_ms.
    setups = workloads.Setups()
    setups.setup_s.append(100.0)
    metrics = workloads.dashboard_metrics(
        workloads.WORKLOADS["serve_dashboard"], records, start, setups, extra
    )
    assert metrics["refresh_p50_ms"]["value"] == pytest.approx(
        1000 * statistics.median(r.latency for r in refreshes)
    )


def test_first_round_p50_pools_the_load_streams_with_stream_samples(monkeypatch):
    monkeypatch.setattr(FakeState, "delay", 0.01)
    state = FakeState(_good_reply)
    ops = [data.Operation(0.0, data.STREAM, data.equality_sql(0, 1))]
    records, start = workloads.open_loop(state, ops, None)
    extra = workloads.stream_samples(state)
    assert len(extra) == workloads.EXTRA_STREAMS
    assert all(r.kind == data.STREAM and r.first is not None for r in extra)
    metrics = workloads.dashboard_metrics(
        workloads.WORKLOADS["serve_dashboard"], records, start, workloads.Setups(), extra
    )
    assert metrics["first_round_p50_ms"]["value"] == pytest.approx(
        1000 * statistics.median(r.first - r.due for r in records + extra)
    )
    # The samples stay out of the load's latency.
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(1000 * records[0].latency)


def test_non_200_replies_and_transport_errors_are_failures():
    def reply(path, body):
        return FakeResponse(503, b'{"error": {"code": "overloaded"}}')

    ops = [data.Operation(0.0, data.V1, data.equality_sql(0, 1))]
    records, _ = workloads.open_loop(FakeState(reply), ops, None)
    assert records[0].problems and "HTTP 503" in records[0].problems[0]

    def broken(path, body):
        raise ConnectionResetError("peer went away")

    records, _ = workloads.open_loop(FakeState(broken), ops, None)
    assert records[0].problems and "ConnectionResetError" in records[0].problems[0]


def test_wrong_and_incomplete_answers_are_failures():
    good = [{"label": "a", "utility": 0.3}, {"label": "b", "utility": 0.2}]
    assert checks.compare_top_k(good, good) == []
    assert checks.compare_top_k(good, good[::-1])
    off = [{"label": "a", "utility": 0.3 + 1e-6}, {"label": "b", "utility": 0.2}]
    assert checks.compare_top_k(off, good)
    assert checks.check_reply({"recommendations": good, "partial": False}, 2) == []
    assert checks.check_reply({"recommendations": good, "partial": True}, 2)
    assert checks.check_reply({"recommendations": good[:1], "partial": False}, 2)
    nan = [{"label": "a", "utility": None}, {"label": "b", "utility": 0.2}]
    assert checks.check_reply({"recommendations": nan, "partial": False}, 2)
    assert checks.check_reply({"error": {"code": "invalid_request"}}, 2)


def test_a_stream_must_end_in_a_whole_final_round():
    views = [{"label": "a", "utility": 0.3}]
    final = {"is_final": True, "recommendations": views,
             "result": {"recommendations": views, "partial": False}}
    assert checks.check_stream([{"is_final": False, "recommendations": views}, final], 1) == []
    assert checks.check_stream([{"is_final": False, "recommendations": views}], 1)
    assert checks.check_stream([final, {"error": {"code": "internal_error"}}], 1)
    assert checks.check_stream([], 1)


def test_read_write_lock_excludes_readers_during_a_write():
    lock = workloads.ReadWriteLock()
    events = []
    lock.acquire_read()

    def writer():
        lock.acquire_write()
        events.append("write")
        lock.release_write()

    thread = threading.Thread(target=writer)
    thread.start()
    time.sleep(0.05)
    events.append("read done")
    lock.release_read()
    thread.join(5)
    assert not thread.is_alive()
    assert events == ["read done", "write"]
