"""Seeded inputs: the synthetic table and the request streams.

Everything here is a pure function of the workload seed, so the same seed
gives the same table, the same requests and the same schedule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.api import RecommendationRequest
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic

TABLE = "facts"
N_DIMENSIONS = 6
N_MEASURES = 3
CARDINALITY = 20
K = 5
#: The dashboard's pool of target predicates.
POOL_SIZE = 48
#: Share of dashboard operations that are appends.
APPEND_SHARE = 0.02


def make_table(n_rows: int, seed: int):
    """Synthetic table: ``n_rows`` x 6 dims x 3 measures, cardinality 20.

    The generator also adds its two-valued ``segment`` dimension.
    """
    config = SyntheticConfig(
        n_rows=n_rows,
        n_dimensions=N_DIMENSIONS,
        n_measures=N_MEASURES,
        cardinality=CARDINALITY,
    )
    return generate_synthetic(config, seed=seed, table_name=TABLE).table


def _value(dim: int, code: int) -> str:
    return f"d{dim}=v{code:02d}"


def disjunction_sql(a: int, x: int, b: int, y: int) -> str:
    return (
        f"SELECT * FROM {TABLE} WHERE d{a} = '{_value(a, x)}' "
        f"OR d{b} = '{_value(b, y)}'"
    )


def equality_sql(a: int, x: int) -> str:
    return f"SELECT * FROM {TABLE} WHERE d{a} = '{_value(a, x)}'"


def explore_requests(seed: int):
    """Distinct two-dimension disjunctions ``d_a = x OR d_b = y`` (a < b),
    in a seeded order. No two requests share a predicate, so none is
    served from the result cache or coalesced with another."""
    combos = [
        (a, x, b, y)
        for a, b in itertools.combinations(range(N_DIMENSIONS), 2)
        for x in range(CARDINALITY)
        for y in range(CARDINALITY)
    ]
    order = np.random.default_rng([seed, 1]).permutation(len(combos))
    for index in order:
        yield RecommendationRequest.from_sql(disjunction_sql(*combos[index]), k=K)


def dashboard_predicates() -> list[str]:
    """The dashboard's pool of target predicates, hottest first: half single
    equalities, half two-dimension disjunctions, all distinct. The pool is
    the dashboard itself, so it is the same for every workload seed; the
    seed draws the traffic over it."""
    rng = np.random.default_rng(48)
    chosen: set[str] = set()
    pool: list[str] = []
    while len(pool) < POOL_SIZE:
        if len(pool) % 2 == 0:
            sql = equality_sql(int(rng.integers(N_DIMENSIONS)), int(rng.integers(CARDINALITY)))
        else:
            a, b = sorted(int(v) for v in rng.choice(N_DIMENSIONS, size=2, replace=False))
            sql = disjunction_sql(
                a, int(rng.integers(CARDINALITY)), b, int(rng.integers(CARDINALITY))
            )
        if sql not in chosen:
            chosen.add(sql)
            pool.append(sql)
    return pool


def quota(weights, n: int) -> np.ndarray:
    """Integer counts summing to ``n`` in proportion to ``weights``
    (largest remainders get the leftover units)."""
    weights = np.asarray(weights, dtype=np.float64)
    exact = n * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    leftover = n - int(counts.sum())
    if leftover:
        counts[np.argsort(-(exact - counts), kind="stable")[:leftover]] += 1
    return counts


def zipf_weights(n: int) -> np.ndarray:
    """Zipf weights with exponent 1: the item of rank r weighs 1/r."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return weights / weights.sum()


#: Dashboard operation kinds and their shares of recommend traffic.
V1 = "v1"
V3_RENDER = "v3_render"
STREAM = "stream"
APPEND = "append"
MIX = ((V1, 0.5), (V3_RENDER, 0.3), (STREAM, 0.2))


@dataclass(frozen=True)
class Operation:
    #: Seconds after the start of the open loop.
    due: float
    kind: str
    sql: str


def request_body(kind: str, sql: str) -> dict:
    """The HTTP body of a recommend operation of ``kind``."""
    if kind == V1:
        body = RecommendationRequest.from_sql(sql, k=K).to_dict()
        body["schema_version"] = 1
        return body
    if kind == V3_RENDER:
        return RecommendationRequest.from_sql(
            sql, k=K, options={"render": {"format": "vega-lite"}}
        ).to_dict()
    return RecommendationRequest.from_sql(sql, k=K, strategy="incremental").to_dict()


def dashboard_operations(seed: int, due_times, salt: int = 0) -> list[Operation]:
    """Assign a kind and a predicate to every due time.

    Kinds and predicates are drawn by quota, not independently: the mix
    shares and the Zipf weights over the pool are met exactly (to rounding)
    and :func:`~perfbench.stats.block_stratified` orders them, so runs
    differ in order and timing but not in how much of each kind of work
    they offer. Appends are ``round(APPEND_SHARE * n)`` operations, one at
    a seeded position inside each of that many equal stretches of the
    schedule; an append replaces the operation at its position.
    """
    from perfbench.stats import block_stratified

    rng = np.random.default_rng([seed, 3, salt])
    pool = dashboard_predicates()
    n = len(due_times)
    kinds = block_stratified(
        rng, np.repeat([kind for kind, _ in MIX], quota([share for _, share in MIX], n))
    )
    sqls = block_stratified(rng, np.repeat(pool, quota(zipf_weights(len(pool)), n)))
    n_appends = round(APPEND_SHARE * n)
    if n_appends:
        edges = np.linspace(0, n, n_appends + 1).astype(int)
        for lo, hi in zip(edges[:-1], edges[1:]):
            kinds[int(rng.integers(lo, hi))] = APPEND
    return [Operation(due, kind, sql) for due, kind, sql in zip(due_times, kinds, sqls)]
