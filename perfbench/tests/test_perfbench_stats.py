"""Percentile rule, open-loop schedule and the seeded inputs."""

from collections import Counter

import numpy as np
import pytest

from perfbench import data, stats


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_samples_beyond_counts_values_strictly_above_the_percentile():
    values = list(range(100))
    p90 = stats.percentile(values, 90)
    assert sum(1 for v in values if v > p90) == stats.samples_beyond(100, 90) == 10


def test_percentile_interpolates_and_handles_empty():
    assert stats.percentile([1.0, 3.0], 50) == 2.0
    assert stats.percentile([5.0], 90) == 5.0
    assert stats.percentile([], 50) == 0.0


def test_lateness_is_never_negative():
    assert stats.lateness(due=1.0, sent=1.25) == 0.25
    assert stats.lateness(due=1.0, sent=0.9) == 0.0


def test_slo_ratio_counts_failures_as_misses():
    assert stats.slo_ratio([0.1, 0.3], failures=2, limit=0.2) == 0.25
    assert stats.slo_ratio([], failures=0, limit=0.2) == 0.0


def test_arrival_schedule_fills_whole_blocks_at_the_rate():
    due = stats.arrival_schedule(rate=4.0, seconds=25.0)
    assert len(due) == 100
    assert np.allclose(np.diff(due), 0.25)
    assert 0 < due[0] < due[-1] < 25.0


def test_block_stratified_takes_one_item_per_stratum_in_every_block():
    rng = np.random.default_rng(0)
    ordered = stats.block_stratified(rng, np.arange(100))
    assert sorted(ordered) == list(range(100))
    for start in range(0, 100, 10):
        block = ordered[start : start + 10]
        assert sorted(value // 10 for value in block) == list(range(10))
    with pytest.raises(ValueError):
        stats.block_stratified(rng, np.arange(15))


def test_quota_matches_shares_exactly():
    counts = data.quota([0.5, 0.3, 0.2], 97)
    assert counts.sum() == 97
    assert list(counts) == [49, 29, 19]


def test_dashboard_operations_meet_the_mix_and_depend_only_on_the_seed():
    due = stats.arrival_schedule(3.0, 25.0)
    ops = data.dashboard_operations(7, due)
    assert ops == data.dashboard_operations(7, due)
    assert ops != data.dashboard_operations(8, due)
    kinds = Counter(op.kind for op in ops)
    assert kinds[data.APPEND] == round(0.02 * len(ops))
    assert kinds[data.V1] >= 0.5 * len(ops) - 3
    assert kinds[data.V3_RENDER] >= 0.3 * len(ops) - 3
    assert kinds[data.STREAM] >= 0.2 * len(ops) - 3
    pool = data.dashboard_predicates()
    assert len(set(pool)) == 48
    counts = Counter(op.sql for op in ops)
    assert counts[pool[0]] == max(counts.values())


def test_explore_requests_are_distinct_and_seeded():
    first = [r.target.predicate for r in _take(data.explore_requests(3), 200)]
    again = [r.target.predicate for r in _take(data.explore_requests(3), 200)]
    other = [r.target.predicate for r in _take(data.explore_requests(4), 200)]
    assert [repr(p) for p in first] == [repr(p) for p in again]
    assert len({repr(p) for p in first}) == 200
    assert [repr(p) for p in first] != [repr(p) for p in other]


def _take(iterator, n):
    return [next(iterator) for _ in range(n)]
