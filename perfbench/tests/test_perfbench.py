"""The benchmark's own tests: metric coverage, failure counting, layer sums.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Every workload runs at a tiny size here; the full sizes are exercised by
``perfbench/run.py`` itself.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as run_cli
from perfbench.harness import END_TO_END, PER_LAYER, WORKLOADS, run_unit, run_workload
from perfbench.layers import LayerTracer
from repro.sim import runners

ROOT = Path(__file__).resolve().parents[2]
NAMES = sorted(WORKLOADS)


def _tracer(workload):
    return LayerTracer((runners.broadcast_spec(workload.protocol).array_factory,))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace):
    report = run_workload(WORKLOADS[name].tiny(), seed=3, seconds=0, trace=trace, min_units=1)
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in report.metrics.items()} == dict(expected)
    assert report.correct, report.failures
    assert report.failed == 0
    assert report.attempted == WORKLOADS[name].tiny().instances * (2 if trace else 1)
    for entry in report.metrics.values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("name", NAMES)
def test_too_small_budget_counts_as_failure(name):
    starved = dataclasses.replace(WORKLOADS[name].tiny(), budget=1)
    unit = run_unit(starved, seed=3)
    assert len(unit.failures) == starved.instances
    assert all("uninformed" in message for message in unit.failures)
    report = run_workload(starved, seed=3, seconds=0, trace=False, min_units=1)
    assert not report.correct
    assert report.failed == report.attempted == starved.instances


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_and_unaccounted_sum_to_traced_wall(name):
    workload = WORKLOADS[name].tiny()
    unit = run_unit(workload, seed=5, tracer=_tracer(workload))
    assert sum(unit.layers.values()) + unit.unaccounted_s == pytest.approx(unit.wall_s, rel=1e-9)
    assert all(seconds >= 0.0 for seconds in unit.layers.values())
    # A span counted twice would push the layer sum past the wall time;
    # the time outside every span is the harness's own glue, a small share.
    assert 0.0 <= unit.unaccounted_s < 0.25 * unit.wall_s
    assert unit.layers["channel.resolve"] > 0.0
    assert unit.counts["channel.rows"] == unit.instance_rounds


@pytest.mark.parametrize("name", NAMES)
def test_traced_unit_reproduces_untraced_unit(name):
    workload = WORKLOADS[name].tiny()
    plain = run_unit(workload, seed=11)
    traced = run_unit(workload, seed=11, tracer=_tracer(workload))
    assert traced.fingerprint == plain.fingerprint
    assert traced.rounds == plain.rounds


def test_tracer_restores_every_entry_point():
    workload = WORKLOADS["mm_faults_ud2048"].tiny()
    tracer = _tracer(workload)
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer._targets()]
    run_unit(workload, seed=2, tracer=tracer)
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(PER_LAYER)


def test_refuses_to_run_sanitized(monkeypatch):
    for var, value in run_cli.PINNED_ENV.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    args = ["--workload", NAMES[0], "--seed", "1", "--seconds", "1"]
    assert run_cli.main(args) == 2


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
