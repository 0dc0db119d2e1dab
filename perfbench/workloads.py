"""The three workloads: set-up, timed load, output checks and metrics.

``explore_memory`` and ``explore_sqlite`` are closed loops of analyst
clients calling :meth:`SeeDBService.recommend` in process.
``serve_dashboard`` is an open loop over HTTP against the stdlib server.
See ``perfbench/README.md`` for why each exists and what it should move.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import resource
import threading
import time
from dataclasses import dataclass, field

from perfbench import checks, data, stats
from perfbench.layers import LAYER_SPANS, REQUEST_HEADER, ROOT, install
from perfbench.spans import SpanRecorder, covered_length, layer_summary

#: Closed-loop analyst clients (explore) and HTTP connections (dashboard).
CLIENTS = 2
#: Explore requests checked against the unoptimized oracle before timing,
#: besides the dashboard's first (equality) predicate. The oracle takes
#: about 3 s per request on explore_memory's 200k rows.
ORACLE_REQUESTS = 1
#: serve_dashboard: the first pool predicates (equalities and
#: disjunctions) on which the serial reference facade is checked against
#: the unoptimized oracle, in both strategies.
ORACLE_PREDICATES = 4
#: serve_dashboard: table rows, rows per append, open-loop arrival rate.
DASHBOARD_ROWS = 20_000
APPEND_ROWS = 200
DASHBOARD_RATE = 3.0
#: serve_dashboard: refreshes made on the live server after the timed
#: load, so ``refresh_p50_ms`` has enough samples of its own path.
EXTRA_REFRESHES = 8
#: serve_dashboard: streams made on the live server after the timed load,
#: so ``first_round_p50_ms`` has enough samples of its own path.
EXTRA_STREAMS = 24
#: Per-group breakdowns leave out layers under this share of a request.
BREAKDOWN_SHARE = 0.005
#: Client-side join patience; a thread still alive after it is a failure.
JOIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    kind: str  # "explore" or "dashboard"
    backend: str
    rows: int
    #: Latency limit behind ``slo_ratio``.
    slo_s: float
    #: Set-ups per run; ``setup_s`` is their median. Cheap set-ups are
    #: repeated more, since a short one is noisier.
    setups: int


WORKLOADS = {
    "explore_memory": WorkloadSpec("explore_memory", "explore", "memory", 200_000, 1.0, 3),
    "explore_sqlite": WorkloadSpec("explore_sqlite", "explore", "sqlite", 50_000, 1.0, 3),
    "serve_dashboard": WorkloadSpec(
        "serve_dashboard", "dashboard", "memory", DASHBOARD_ROWS, 0.2, 5
    ),
}


@dataclass
class Record:
    """One timed operation as the client saw it."""

    kind: str
    due: float
    sent: float
    done: float = 0.0
    first: "float | None" = None
    problems: list = field(default_factory=list)
    #: Dashboard: request SQL, table version, reply bytes / stream lines.
    sql: str = ""
    version: int = 0
    status: int = 0
    raw: bytes = b""
    lines: list = field(default_factory=list)
    #: Explore: the result's plan decision (for the planner's error).
    plan_decision: "dict | None" = None
    #: Request id of the record's root span, when traced.
    request_id: "int | None" = None
    #: The recommend that follows an append (the second half of a refresh).
    refresh: bool = False

    @property
    def latency(self) -> float:
        """From when the operation was due, so waiting to be sent counts."""
        return self.done - self.due


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    info: dict
    #: The traced run's spans (``--trace 1`` only).
    recorder: "SpanRecorder | None" = None


@dataclass
class Traced:
    """What :func:`traced_run` measured."""

    metrics: dict
    records: list
    recorder: SpanRecorder
    #: Per-layer self time for groups of requests (see :func:`breakdown`).
    breakdown: dict


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def make_backend(kind: str):
    if kind == "memory":
        from repro.backends.memory import MemoryBackend

        return MemoryBackend()
    from repro.backends.sqlite import SqliteBackend

    return SqliteBackend()


# -- explore -------------------------------------------------------------------


class ExploreState:
    def __init__(self, spec: WorkloadSpec, seed: int, first_request):
        from repro import SeeDBConfig
        from repro.service import single_backend_service

        start = time.perf_counter()
        table = data.make_table(spec.rows, seed)
        registered = time.perf_counter()
        self.backend = make_backend(spec.backend)
        self.backend.register_table(table)
        self.service = single_backend_service(
            self.backend, SeeDBConfig(), owned=True, max_workers=CLIENTS
        )
        first = self.service.recommend(first_request)
        done = time.perf_counter()
        self.problems = checks.check_result(first, data.K)
        self.setup_s = done - start
        self.refresh_s = done - registered

    def close(self) -> None:
        self.service.close()


def closed_loop(service, requests, seconds: float, recorder: "SpanRecorder | None"):
    """``CLIENTS`` threads, each sending its next request when the last ends."""
    lock = threading.Lock()
    records: list[Record] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            with lock:
                request = next(requests)
            sent = time.perf_counter()
            record = Record("recommend", sent, sent)
            span = recorder.begin(ROOT) if recorder is not None else None
            record.request_id = span.request_id if span is not None else None
            try:
                result = service.recommend(request)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                record.problems.append(f"{type(error).__name__}: {error}")
            else:
                record.problems.extend(checks.check_result(result, data.K))
                record.plan_decision = result.plan_decision
            finally:
                if span is not None:
                    recorder.end(span)
                record.done = time.perf_counter()
            records.append(record)

    _run_threads(client, records)
    return records, start


def _run_threads(target, records) -> None:
    """Run ``CLIENTS`` copies of ``target``; a hung one is a failure."""
    threads = [threading.Thread(target=target, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
        if thread.is_alive():
            records.append(Record("hung", 0.0, 0.0, problems=["client thread did not finish"]))


def check_against_oracle(backend, recommend, requests) -> list[str]:
    """``recommend(request)`` == unoptimized ``BasicFramework`` result."""
    from repro.core.basic import BasicFramework

    problems = []
    oracle = BasicFramework(backend)
    for request in requests:
        result = recommend(request)
        expected = oracle.recommend_request(request)
        problems.extend(checks.check_result(result, data.K))
        problems.extend(checks.compare_top_k(result.recommendations, expected.recommendations))
    return problems


class Setups:
    """Set-up samples of one run. The first set-up serves the run; the
    rest are made after the timed load, so the samples spread over the
    run instead of sharing one stretch of machine speed."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.problems: list[str] = []

    def add(self, state) -> None:
        self.setup_s.append(state.setup_s)
        self.problems.extend(state.problems)

    def repeat(self, make, n: int) -> None:
        for _ in range(n):
            # Collect the last state's tables first, so peak memory does
            # not depend on when the collector happened to run.
            gc.collect()
            state = make()
            try:
                self.add(state)
            finally:
                state.close()


def run_explore(spec: WorkloadSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import RecommendationRequest

    requests = data.explore_requests(seed)
    first_request = next(requests)
    oracle_requests = [next(requests) for _ in range(ORACLE_REQUESTS)]
    oracle_requests.append(
        RecommendationRequest.from_sql(data.dashboard_predicates()[0], k=data.K)
    )
    setups = Setups()
    refreshes: list[float] = []

    def make() -> ExploreState:
        state = ExploreState(spec, seed, first_request)
        refreshes.append(state.refresh_s)
        return state

    state = make()
    setups.add(state)
    try:
        oracle_problems = check_against_oracle(
            state.backend, state.service.recommend, oracle_requests
        )
        traced = None
        if trace:
            traced = traced_run(
                spec,
                lambda recorder: closed_loop(state.service, requests, seconds / 2, recorder),
                state.service,
                state.backend,
            )
            metrics, records = traced.metrics, traced.records
        else:
            records, start = closed_loop(state.service, requests, seconds, None)
    finally:
        state.close()
        state = None
    if not trace:
        setups.repeat(make, spec.setups - 1)
        metrics = explore_metrics(spec, records, start, setups, refreshes)
    failed = sum(1 for r in records if r.problems)
    failed += 1 if oracle_problems else 0
    failed += 1 if setups.problems else 0
    attempted = len(records) + len(oracle_requests) + len(setups.setup_s)
    info = _samples_info(records)
    info["problems"] = (setups.problems + oracle_problems + _record_problems(records))[:20]
    return _outcome(failed, attempted, metrics, info, traced)


def _outcome(failed, attempted, metrics, info, traced: "Traced | None") -> Outcome:
    if traced is not None:
        info["breakdown"] = traced.breakdown
    recorder = traced.recorder if traced is not None else None
    return Outcome(failed == 0, attempted, failed, metrics, info, recorder)


def explore_metrics(spec, records, start, setups: Setups, refreshes) -> dict:
    ok = [r for r in records if not r.problems]
    latencies = [r.latency for r in ok]
    failures = len(records) - len(ok)
    end = max((r.done for r in records), default=start)
    return {
        "setup_s": _metric(stats.median(setups.setup_s), "s"),
        "throughput_rps": _metric(len(ok) / max(end - start, 1e-9), "1/s"),
        "latency_p50_ms": _metric(1000 * stats.percentile(latencies, 50), "ms"),
        "latency_p90_ms": _metric(1000 * stats.percentile(latencies, 90), "ms"),
        # A blocking reply is the first (and only) answer the analyst sees.
        "first_round_p50_ms": _metric(1000 * stats.percentile(latencies, 50), "ms"),
        # Registration plus the first recommend on the fresh table.
        "refresh_p50_ms": _metric(1000 * stats.median(refreshes), "ms"),
        "slo_ratio": _metric(stats.slo_ratio(latencies, failures, spec.slo_s), "fraction"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


# -- serve_dashboard -------------------------------------------------------------


class ReadWriteLock:
    """Client-side gate: an append waits for in-flight requests and holds
    new ones back, so every reply is computed on exactly one table version."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._writer = True
            while self._readers:
                self._cond.wait()

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class DashboardState:
    def __init__(self, seed: int, max_appends: int, first_sql: str):
        from repro import SeeDBConfig
        from repro.backends.memory import MemoryBackend
        from repro.frontend.server import serve_in_thread
        from repro.service import single_backend_service

        start = time.perf_counter()
        self.full = data.make_table(DASHBOARD_ROWS + APPEND_ROWS * max_appends, seed)
        self.backend = MemoryBackend()
        self.n_rows = DASHBOARD_ROWS
        self.backend.register_table(self.full.head(self.n_rows))
        self.versions = {self.backend.data_version: self.n_rows}
        self.service = single_backend_service(self.backend, SeeDBConfig(), owned=True)
        self.server, self.thread = serve_in_thread(self.service)
        self.address = self.server.server_address[:2]
        record = Record(data.V1, 0.0, 0.0, sql=first_sql)
        connection = self.connect()
        try:
            send(connection, record, data.request_body(data.V1, first_sql), None)
        finally:
            connection.close()
        self.setup_s = record.done - start
        self.problems = record.problems or checks.check_reply(_json(record.raw), data.K)
        self.rw = ReadWriteLock()

    def connect(self) -> http.client.HTTPConnection:
        host, port = self.address
        return http.client.HTTPConnection(host, port, timeout=JOIN_TIMEOUT_S)

    def append(self) -> None:
        """Register the table with ``APPEND_ROWS`` more rows (replace=True)."""
        self.n_rows += APPEND_ROWS
        self.backend.register_table(self.full.head(self.n_rows), replace=True)
        self.versions[self.backend.data_version] = self.n_rows

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(JOIN_TIMEOUT_S)
        self.service.close()


def _json(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return {"error": f"unparseable reply {raw[:80]!r}"}


def send(connection, record: Record, body: dict, recorder: "SpanRecorder | None") -> None:
    """POST one operation; fills the record's timings, status and payload."""
    path = "/recommend/stream" if record.kind == data.STREAM else "/recommend"
    payload = json.dumps(body).encode()
    headers = {"Content-Type": "application/json"}
    span = recorder.begin(ROOT) if recorder is not None else None
    if span is not None:
        record.request_id = span.request_id
        headers[REQUEST_HEADER] = f"{span.request_id}:{span.span_id}"
    try:
        connection.request("POST", path, body=payload, headers=headers)
        response = connection.getresponse()
        record.status = response.status
        if record.kind == data.STREAM and response.status == 200:
            while True:
                line = response.readline()
                if not line:
                    break
                if record.first is None:
                    record.first = time.perf_counter()
                record.lines.append(line)
        else:
            record.raw = response.read()
    except (OSError, http.client.HTTPException) as error:
        record.problems.append(f"{type(error).__name__}: {error}")
        connection.close()
    finally:
        if span is not None:
            recorder.end(span)
        record.done = time.perf_counter()
    if record.status != 200 and not record.problems:
        record.problems.append(f"HTTP {record.status}: {record.raw[:200]!r}")


def open_loop(state: DashboardState, operations, recorder: "SpanRecorder | None"):
    """Send every operation at its due time over ``CLIENTS`` connections."""
    lock = threading.Lock()
    pending = iter(operations)
    records: list[Record] = []
    start = time.perf_counter()

    def client() -> None:
        connection = state.connect()
        try:
            while True:
                with lock:
                    op = next(pending, None)
                if op is None:
                    return
                due = start + op.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if op.kind == data.APPEND:
                    records.extend(_refresh(state, connection, op.sql, recorder))
                else:
                    state.rw.acquire_read()
                    try:
                        records.append(
                            _recommend(state, connection, op.kind, op.sql, due, recorder)
                        )
                    finally:
                        state.rw.release_read()
        finally:
            connection.close()

    _run_threads(client, records)
    return records, start


def _refresh(state, connection, sql, recorder) -> list[Record]:
    """An append and the v1 recommend after it, timed together as one
    refresh from the start of the append. The write gate holds every other
    request back, so the follow-up is the one that meets the fresh table
    cold. Returns the refresh record and the follow-up's record."""
    state.rw.acquire_write()
    try:
        now = time.perf_counter()
        refresh = Record(data.APPEND, now, now)
        state.append()
        follow = _recommend(state, connection, data.V1, sql, time.perf_counter(), recorder)
        follow.refresh = True
    finally:
        state.rw.release_write()
    refresh.done = follow.done
    refresh.problems = list(follow.problems)
    return [refresh, follow]


def refresh_samples(state: DashboardState) -> list[Record]:
    """:data:`EXTRA_REFRESHES` refreshes on the live server after the
    timed load, one after another over one keep-alive connection, each
    recommending the next predicate of the pool."""
    records: list[Record] = []
    connection = state.connect()
    try:
        for sql in data.dashboard_predicates()[:EXTRA_REFRESHES]:
            records.extend(_refresh(state, connection, sql, None))
    finally:
        connection.close()
    return records


def stream_samples(state: DashboardState) -> list[Record]:
    """:data:`EXTRA_STREAMS` streams on the live server after the timed
    load, one after another over one keep-alive connection, each on the
    next predicate of the pool."""
    records: list[Record] = []
    connection = state.connect()
    try:
        for sql in data.dashboard_predicates()[:EXTRA_STREAMS]:
            records.append(
                _recommend(state, connection, data.STREAM, sql, time.perf_counter(), None)
            )
    finally:
        connection.close()
    return records


def _recommend(state, connection, kind, sql, due, recorder) -> Record:
    """One recommend on the current table version (caller holds the gate)."""
    record = Record(kind, due, time.perf_counter(), sql=sql)
    record.version = state.backend.data_version
    send(connection, record, data.request_body(kind, sql), recorder)
    return record


def check_dashboard(state: DashboardState, records) -> list[str]:
    """Every reply against an untimed serial facade run on its table version.

    Blocking replies must equal the batch result; a stream's final round
    must equal the blocking incremental result of the same request. The
    facade itself is first checked against the unoptimized oracle on the
    first table version; those problems are returned.
    """
    from repro import RecommendationRequest, SeeDB, SeeDBConfig
    from repro.backends.memory import MemoryBackend

    expected: dict[tuple, list] = {}
    facades: dict[int, SeeDB] = {}

    def facade(version: int) -> SeeDB:
        if version not in facades:
            backend = MemoryBackend()
            backend.register_table(state.full.head(state.versions[version]))
            facades[version] = SeeDB(backend, SeeDBConfig())
        return facades[version]

    def oracle(sql: str, version: int, strategy: str):
        key = (sql, version, strategy)
        if key not in expected:
            request = RecommendationRequest.from_sql(sql, k=data.K, strategy=strategy)
            expected[key] = facade(version).recommend(request).recommendations
        return expected[key]

    try:
        first = facade(next(iter(state.versions)))
        problems = check_against_oracle(
            first.backend,
            first.recommend,
            [
                RecommendationRequest.from_sql(sql, k=data.K, strategy=strategy)
                for sql in data.dashboard_predicates()[:ORACLE_PREDICATES]
                for strategy in ("batch", "incremental")
            ],
        )
        for record in records:
            if record.problems or record.kind == data.APPEND:
                continue
            if record.kind == data.STREAM:
                lines = [_json(line) for line in record.lines]
                record.problems.extend(checks.check_stream(lines, data.K))
                if not record.problems:
                    record.problems.extend(
                        checks.compare_top_k(
                            lines[-1]["recommendations"],
                            oracle(record.sql, record.version, "incremental"),
                        )
                    )
                continue
            body = _json(record.raw)
            record.problems.extend(checks.check_reply(body, data.K))
            if record.kind == data.V3_RENDER:
                record.problems.extend(checks.check_visualizations(body, data.K))
            if not record.problems:
                record.problems.extend(
                    checks.compare_top_k(
                        body["recommendations"], oracle(record.sql, record.version, "batch")
                    )
                )
        return problems
    finally:
        for facade in facades.values():
            facade.close()


def run_dashboard(spec: WorkloadSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        due = stats.arrival_schedule(DASHBOARD_RATE, seconds / 2)
        operations = [data.dashboard_operations(seed, due, salt=half) for half in range(2)]
    else:
        operations = [data.dashboard_operations(seed, stats.arrival_schedule(DASHBOARD_RATE, seconds))]
    max_appends = sum(1 for ops in operations for op in ops if op.kind == data.APPEND)
    max_appends += 0 if trace else EXTRA_REFRESHES
    first_sql = data.dashboard_predicates()[0]
    setups = Setups()
    state = DashboardState(seed, max_appends, first_sql)
    setups.add(state)
    extra: list[Record] = []
    try:
        traced = None
        if trace:
            traced = traced_run(
                spec,
                lambda recorder: open_loop(state, operations[1 if recorder else 0], recorder),
                state.service,
                state.backend,
            )
            metrics, records = traced.metrics, traced.records
        else:
            records, start = open_loop(state, operations[0], None)
            extra = stream_samples(state) + refresh_samples(state)
        oracle_problems = check_dashboard(state, records + extra)
    finally:
        state.close()
        state = None
    if not trace:
        setups.repeat(lambda: DashboardState(seed, max_appends, first_sql), spec.setups - 1)
        metrics = dashboard_metrics(spec, records, start, setups, extra)
    failed = sum(1 for r in records + extra if r.problems)
    failed += 1 if oracle_problems else 0
    failed += 1 if setups.problems else 0
    attempted = len(records) + len(extra) + 2 * ORACLE_PREDICATES + len(setups.setup_s)
    info = _samples_info(records)
    info["problems"] = (
        setups.problems + oracle_problems + _record_problems(records + extra)
    )[:20]
    return _outcome(failed, attempted, metrics, info, traced)


def _requests(records):
    return [r for r in records if r.kind not in (data.APPEND, "hung")]


def dashboard_metrics(spec, records, start, setups: Setups, extra) -> dict:
    """``extra`` holds the records of :func:`stream_samples` and
    :func:`refresh_samples`: they feed ``first_round_p50_ms`` and
    ``refresh_p50_ms`` only, pooled with the timed load's streams and
    refreshes."""
    requests = _requests(records)
    ok = [r for r in requests if not r.problems]
    latencies = [r.latency for r in ok]
    first_rounds = [
        r.first - r.due
        for r in ok + [r for r in extra if not r.problems]
        if r.kind == data.STREAM and r.first is not None
    ]
    refreshes = [r.latency for r in records + extra if r.kind == data.APPEND and not r.problems]
    end = max((r.done for r in records), default=start)
    return {
        "setup_s": _metric(stats.median(setups.setup_s), "s"),
        "throughput_rps": _metric(len(ok) / max(end - start, 1e-9), "1/s"),
        "latency_p50_ms": _metric(1000 * stats.percentile(latencies, 50), "ms"),
        "latency_p90_ms": _metric(1000 * stats.percentile(latencies, 90), "ms"),
        "first_round_p50_ms": _metric(1000 * stats.percentile(first_rounds, 50), "ms"),
        "refresh_p50_ms": _metric(1000 * stats.median(refreshes), "ms"),
        "slo_ratio": _metric(
            stats.slo_ratio(latencies, len(requests) - len(ok), spec.slo_s), "fraction"
        ),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


# -- traced run ------------------------------------------------------------------


def traced_run(spec: WorkloadSpec, drive, service, backend) -> Traced:
    """Half the run untraced, then half traced: per-layer metrics.

    ``drive(recorder)`` runs the workload's load loop for half the run
    (``recorder`` None = untraced) and returns ``(records, start)``.
    """
    cpu_before = cpu_seconds()
    untraced, start = drive(None)
    wall = max((r.done for r in untraced), default=start) - start
    cpu_util = (cpu_seconds() - cpu_before) / max(wall, 1e-9)

    recorder = SpanRecorder()
    engine_cache = service.engine().cache.stats
    before = _counters(service, backend, engine_cache)
    installed = install(recorder)
    try:
        traced_records, _ = drive(recorder)
    finally:
        installed.uninstall()
    after = _counters(service, backend, engine_cache)
    delta = {key: after[key] - before[key] for key in before}

    is_http = spec.kind == "dashboard"
    ms, calls, unaccounted, n_requests = layer_summary(
        recorder.spans, ROOT, LAYER_SPANS, wire_name="frontend.wire" if is_http else None
    )
    n = max(n_requests, 1)
    metrics: dict = {}
    for name in LAYER_SPANS:
        metrics[f"{name}_ms"] = _metric(ms.get(name, 0.0), "ms")
        metrics[f"{name}_calls"] = _metric(calls.get(name, 0.0), "count")

    traced_ok = [r for r in _requests(traced_records) if not r.problems]
    untraced_ok = [r for r in _requests(untraced) if not r.problems]
    replies = traced_ok if is_http else []
    reply_bytes = [len(r.raw) + sum(len(line) for line in r.lines) for r in replies]
    spec_bytes = [
        len(json.dumps(_json(r.raw).get("visualizations", [])))
        for r in replies
        if r.kind == data.V3_RENDER
    ]
    plan_errors = []
    for record in traced_ok:
        decision = record.plan_decision
        if decision is None and record.raw:
            decision = _json(record.raw).get("plan_decision")
        if decision and decision.get("observed_seconds"):
            observed = decision["observed_seconds"]
            plan_errors.append(abs(decision["predicted_seconds"] - observed) / observed)
    requests = max(delta["requests"], 1)
    lookups = delta["engine_hits"] + delta["engine_misses"]
    untraced_p50 = stats.percentile([r.latency for r in untraced_ok], 50)
    traced_p50 = stats.percentile([r.latency for r in traced_ok], 50)
    late = [stats.lateness(r.due, r.sent) for r in _requests(untraced)] if is_http else []
    metrics.update(
        {
            "api.response_kb": _metric(stats.median(reply_bytes) / 1024, "KB"),
            "service.cache_hit_ratio": _metric(delta["cache_hits"] / requests, "fraction"),
            "service.coalesced_ratio": _metric(delta["coalesced"] / requests, "fraction"),
            "service.rejected": _metric(delta["rejected"], "count"),
            "engine.cache_hit_ratio": _metric(
                delta["engine_hits"] / lookups if lookups else 0.0, "fraction"
            ),
            "engine.invalidations": _metric(delta["engine_invalidations"], "count"),
            "optimizer.plan_error_ratio": _metric(stats.median(plan_errors), "fraction"),
            "backends.statements_per_request": _metric(delta["statements"] / n, "count"),
            "backends.queries_per_request": _metric(delta["queries"] / n, "count"),
            "db.rows_scanned_per_request": _metric(installed.rows_scanned / n, "count"),
            "db.groups_per_request": _metric(installed.groups / n, "count"),
            "viz.spec_kb": _metric(stats.median(spec_bytes) / 1024, "KB"),
            "process.cpu_util": _metric(cpu_util, "s/s"),
            "loadgen.late_p90_ms": _metric(1000 * stats.percentile(late, 90), "ms"),
            "trace.overhead_ratio": _metric(traced_p50 / untraced_p50 if untraced_p50 else 0.0, "ratio"),
            "trace.unaccounted_ratio": _metric(unaccounted, "fraction"),
        }
    )
    return Traced(
        metrics,
        untraced + traced_records,
        recorder,
        breakdown(recorder.spans, traced_records, wire_name="frontend.wire" if is_http else None),
    )


def breakdown(spans, records, wire_name: "str | None") -> dict:
    """Per-layer time of groups of traced requests: refreshes (the
    recommend after an append), result-cache hits (no engine run),
    streams, and the remaining executed requests.

    ``self_ms`` is the mean self time per request; ``inclusive_ms`` the
    mean time inside the layer's spans, children included. Layers under
    :data:`BREAKDOWN_SHARE` of the request's time are left out.
    """
    runs = {span.request_id for span in spans if span.name == "engine.run"}
    groups: dict[str, set] = {}
    for record in records:
        if record.request_id is None or record.problems:
            continue
        if record.refresh:
            group = "refresh"
        elif record.kind == data.STREAM:
            group = "stream"
        elif record.request_id not in runs:
            group = "cache_hit"
        else:
            group = "executed"
        groups.setdefault(group, set()).add(record.request_id)
    result = {}
    for group, ids in sorted(groups.items()):
        members = [span for span in spans if span.request_id in ids]
        self_ms, _, _, n = layer_summary(members, ROOT, LAYER_SPANS, wire_name)
        total = sum(self_ms.values())
        inclusive: dict[str, float] = {}
        per_request: dict[tuple, list] = {}
        for span in members:
            if span.name in LAYER_SPANS:
                per_request.setdefault((span.request_id, span.name), []).append(span)
        for (_, name), named in per_request.items():
            lo = min(span.start for span in named)
            hi = max(span.end for span in named)
            covered = covered_length(((span.start, span.end) for span in named), lo, hi)
            inclusive[name] = inclusive.get(name, 0.0) + 1000.0 * covered / max(n, 1)

        def kept(values):
            return {
                name: round(value, 3)
                for name, value in sorted(values.items(), key=lambda item: -item[1])
                if total and value >= BREAKDOWN_SHARE * total
            }

        result[group] = {
            "requests": n,
            "total_ms": round(total, 3),
            "self_ms": kept(self_ms),
            "inclusive_ms": kept(inclusive),
        }
    return result


def _counters(service, backend, engine_cache) -> dict:
    snapshot = service.snapshot()
    return {
        "requests": snapshot["requests"],
        "cache_hits": snapshot["result_cache_hits"],
        "coalesced": snapshot["coalesced"],
        "rejected": snapshot["rejected"],
        "engine_hits": engine_cache.hits,
        "engine_misses": engine_cache.misses,
        "engine_invalidations": engine_cache.invalidations,
        "statements": backend.statements_executed,
        "queries": backend.queries_executed,
    }


def _samples_info(records) -> dict:
    requests = [r for r in _requests(records) if not r.problems]
    n = len(requests)
    return {
        "latency_samples": n,
        "beyond_p90": stats.samples_beyond(n, 90),
        "highest_supported_percentile": stats.highest_supported_percentile(n),
    }


def _record_problems(records) -> list[str]:
    return [f"{r.kind}: {'; '.join(r.problems)}" for r in records if r.problems]


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = WORKLOADS[name]
    if spec.kind == "explore":
        return run_explore(spec, seed, seconds, trace)
    return run_dashboard(spec, seed, seconds, trace)
