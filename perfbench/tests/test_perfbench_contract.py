"""BENCHMARK.json and the metrics a run prints agree."""

import json
import re
from pathlib import Path

import pytest

from perfbench import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_file_respects_its_limits():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _small(trace):
    spec = workloads.WorkloadSpec("small", "explore", "memory", 2000, 1.0, 2)
    return workloads.run_explore(spec, seed=3, seconds=0.6, trace=trace)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_a_run_prints_exactly_the_declared_metrics(trace, section):
    outcome = _small(trace)
    assert outcome.correct and outcome.failed == 0 and outcome.attempted >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: metric["unit"] for name, metric in outcome.metrics.items()}
    assert printed == declared
    assert all(isinstance(m["value"], float) for m in outcome.metrics.values())
