"""Self-tests of the benchmark at tiny scale.

Run from the root of a checkout::

    python3 -m pytest tartbench -q

Each workload runs briefly, untraced and traced, and the tests check
that every metric ``BENCHMARK.json`` names is emitted with its unit,
that layer self times never add up to more than the traced wall time,
and that the simulated workloads' virtual-time metrics repeat exactly.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

import run

sys.path.insert(0, str(run.SRC))
run.OUT.mkdir(exist_ok=True)
tempfile.tempdir = str(run.OUT)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
#: Shrinks the simulated spans; 0.12 keeps two fan-in failovers.
SCALE = 0.12
VT_METRICS = ("vt_latency_p50_us", "vt_latency_p99_us",
              "pessimism_us_per_msg")
LIVE_METRICS = {"setup_s": "s", "ack_p50_us": "us", "ack_p99_us": "us",
                "delivery_p50_us": "us", "delivery_p99_us": "us"}


@pytest.fixture(scope="module")
def reports():
    """(workload, traced) -> report, each run once."""
    cache = {}

    def get(workload: str, traced: bool):
        key = (workload, traced)
        if key not in cache:
            cache[key] = run.run_workload(workload, seed=3, seconds=0,
                                          trace=traced, scale=SCALE)
        return cache[key]

    return get


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    bounds = {}
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert unit.match(m["unit"]) and 0 < m["bound"] <= 0.25
        bounds[m["name"]] = m["bound"]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    assert bounds["setup_s"] == max(bounds.values())
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 15) \
        < 3420


@pytest.mark.parametrize("workload", run.SIM_WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_sim_emits_every_listed_metric(reports, workload, traced):
    report = reports(workload, traced)
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] > 0
    line = run.result_line(report, traced)
    key = "per_layer" if traced else "end_to_end"
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}
    if not traced:
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", run.SIM_WORKLOADS)
def test_sim_layer_self_times_fit_in_wall_time(reports, workload):
    layers = reports(workload, True)["layers"]
    assert 0 < layers["trace.self_sum_s"][0] <= layers["trace.wall_s"][0]


@pytest.mark.parametrize("workload", run.SIM_WORKLOADS)
def test_sim_vt_metrics_repeat_exactly(reports, workload):
    plain = reports(workload, False)
    traced = reports(workload, True)
    again = run.run_workload(workload, seed=3, seconds=0, trace=False,
                             scale=SCALE)
    for metric in VT_METRICS:
        assert plain["e2e"][metric] == again["e2e"][metric]
        assert plain["e2e"][metric] == traced["e2e"][metric]
    # Repetitions inside each run were compared with each other, and
    # the traced ones with the untraced ones, by the run itself.
    assert plain["repetitions"]["untraced"] >= 3
    assert traced["repetitions"] == {"untraced": 1, "traced": 1}


def test_fanin_fails_over_and_matches_its_twin(reports):
    report = reports("fanin_failover_sim", False)
    assert report["failovers_per_rep"] == 2
    assert report["correct"], report["failures"]


@pytest.fixture(scope="module")
def live_reports():
    return {traced: run.run_workload("gateway_live", seed=3, seconds=1,
                                     trace=traced)
            for traced in (False, True)}


def test_live_emits_its_metrics(live_reports):
    for traced, report in live_reports.items():
        assert report["attempted"] == 1000
        line = run.result_line(report, traced)
        if traced:
            layers = report["layers"]
            assert "net.clock.pump_lateness_p99_us" in line["metrics"]
            assert layers["trace.self_sum_s"][0] <= layers["trace.wall_s"][0]
        else:
            assert {n: m["unit"] for n, m in line["metrics"].items()} \
                == LIVE_METRICS


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "tartbench", bare / "tartbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "tartbench/run.py", "--workload",
             "pipeline_sim", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
