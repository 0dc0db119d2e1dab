"""Summary statistics and the open-loop schedule."""

from __future__ import annotations

import math
import statistics

import numpy as np


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    values = sorted(values)
    if not values:
        return 0.0
    position = (len(values) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


#: Percentiles a latency sample may support, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def highest_supported_percentile(n: int):
    """The highest of :data:`PERCENTILES` with at least ten samples beyond it.

    Returns None when even the median has fewer than ten samples above it.
    """
    for q in PERCENTILES:
        if samples_beyond(n, q) >= 10:
            return q
    return None


#: Consecutive operations that form one stratification block.
BLOCK = 10


def block_stratified(rng: np.random.Generator, sorted_values) -> list:
    """A seeded order of ``sorted_values`` in which every run of :data:`BLOCK`
    consecutive items takes one item from each of :data:`BLOCK` equal strata
    of the sorted values (a Latin-hypercube style shuffle).

    Each block then carries a representative share of short and long
    gaps, hot and cold predicates, or operation kinds, so the load offered
    by one stretch of the run differs less from seed to seed.
    """
    values = np.asarray(sorted_values)
    if len(values) % BLOCK:
        raise ValueError(f"{len(values)} values do not fill blocks of {BLOCK}")
    strata = rng.permuted(values.reshape(BLOCK, -1), axis=1)
    return rng.permuted(strata.T, axis=1).reshape(-1).tolist()


def arrival_schedule(rate: float, seconds: float) -> list[float]:
    """Due times of an open loop at ``rate`` per second: evenly spaced, and
    as many as fill whole blocks of :data:`BLOCK` within ``seconds``.

    Exponential (Poisson) gaps were tried first: at the run lengths the
    benchmark can afford, their bursts made the median latency differ by a
    third from seed to seed. Even spacing keeps the open-loop property
    that matters here (requests fall due whether or not earlier ones are
    done), and the seed still orders the operations.
    """
    count = BLOCK * max(1, round(rate * seconds / BLOCK))
    return ((np.arange(count) + 0.5) / rate).tolist()


def lateness(due: float, sent: float) -> float:
    """How late the open-loop sender ran for one request (never negative)."""
    return max(0.0, sent - due)


def slo_ratio(latencies, failures: int, limit: float) -> float:
    """Share of attempted requests done within ``limit``; failures miss it."""
    attempted = len(latencies) + failures
    if attempted == 0:
        return 0.0
    return sum(1 for value in latencies if value <= limit) / attempted
