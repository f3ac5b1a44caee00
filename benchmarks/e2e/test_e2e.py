"""Tests of the end-to-end benchmark itself.

Run with ``python -m pytest benchmarks/e2e -q``.  Workloads run at their
:func:`workloads.tiny` size, so each test takes seconds.
"""

import json
import time
from pathlib import Path

import pytest

import compare
import run as bench_run
import tracer as tracing
import workloads
from repro.experiments import api, executor, runner
from repro.noc.kernel import KERNELS
from repro.staticcheck import runner as staticcheck_runner

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in bench_run.SCRUBBED_ENV:
        monkeypatch.delenv(var, raising=False)


def _traced(workload, tr=None, seed=3):
    tr = tr or tracing.Tracer()
    tr.instrument_pipeline()
    with tr.span("bench:op"):
        run = workload.run(seed, "activity", tracer=tr)
    patched = list(tr._patches)
    tr.restore()
    return tr, run, patched


def test_benchmark_json_declares_what_the_code_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(bench_run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        workloads.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        workloads.PER_LAYER_UNITS
    )
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_golden_pins_every_part():
    for name, workload in workloads.WORKLOADS.items():
        assert set(workloads.load_golden(name)) == set(workload.parts()), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_runs_clean(name):
    t0 = time.perf_counter()
    record = workloads.run_workload(name, seed=3, seconds=0, small=True)
    assert time.perf_counter() - t0 < 60
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] == 2 * len(workloads.WORKLOADS[name].parts())
    assert set(record["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    json.loads(bench_run.contract_line(record))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_workload_reports_every_layer_metric(name):
    record = workloads.run_workload(name, seed=3, seconds=0, trace=True, small=True)
    assert record["failed"] == 0, record["failures"]
    assert set(record["metrics"]) == set(workloads.PER_LAYER_UNITS)
    assert record["metrics"]["noc.router.visits_per_cycle"]["value"] > 0


@pytest.mark.parametrize("name", ["fullsys-bfs-ari", "noc-reply-ramp"])
def test_trace_changes_no_result_and_leaves_no_wrapper(name):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    plain = workload.run(3, "activity")
    _, traced, patched = _traced(workload)
    assert traced.digests == plain.digests
    assert len(patched) > 100
    for obj, attr, had, old in patched:
        if had:
            assert getattr(obj, attr) is old
        else:
            assert attr not in vars(obj), (obj, attr)
    assert executor.build_system is runner.build_system
    assert api.simulate_spec is executor.simulate_spec
    assert staticcheck_runner.validate_spec.__module__ == staticcheck_runner.__name__


def test_layer_self_times_account_for_the_traced_wall_time():
    workload = workloads.tiny(workloads.WORKLOADS["fullsys-bfs-ari"])
    tr = tracing.Tracer()  # calibrates its wrapper cost before the clock starts
    t0 = time.perf_counter_ns()
    _traced(workload, tr)
    wall = time.perf_counter_ns() - t0
    layers = tr.layer_self_ns()
    calls = sum(st.calls for st in tr.stats.values())
    # The benchmark's own glue plus what the wrappers themselves cost.
    unattributed = layers.pop("bench") + calls * (tr.outer_ns + tr.inner_ns)
    assert {"noc.router", "noc.kernel", "gpu.core", "gpu.system"} <= set(layers)
    assert sum(layers.values()) + unattributed == pytest.approx(wall, rel=0.05)
    assert tr.cycles == workload.warmup + workload.cycles


@pytest.mark.parametrize("name", ["fullsys-bfs-ari", "noc-reply-ramp"])
def test_held_out_seed_changes_results_and_kernels_still_agree(name):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    digests = {
        (seed, k): workload.run(seed, k).digests for seed in (3, 4) for k in KERNELS
    }
    assert digests[(3, "activity")] == digests[(3, "reference")]
    assert digests[(4, "activity")] == digests[(4, "reference")]
    assert set(digests[(3, "activity")].values()).isdisjoint(
        digests[(4, "activity")].values()
    )


def test_check_flags_disagreeing_runs_and_golden_mismatch():
    runs = [
        workloads.KernelRun("activity", {"a": "x", "b": "y"}),
        workloads.KernelRun("reference", {"a": "x", "b": "z"}),
    ]
    assert len(workloads.check(["a", "b"], runs, None)) == 2
    assert len(workloads.check(["a", "b"], runs, {"a": "q", "b": "y"})) == 4
    runs[1].error = "boom"
    assert workloads.check(["a", "b"], runs, None) == [
        "reference a: boom", "reference b: boom",
    ]


def test_compare_verdicts():
    assert compare.verdict([100, 101, 99], [97, 98, 96], "higher", 0.1) == "agree"
    assert compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.1) == "worse"
    assert compare.verdict([100, 150, 60], [95, 140, 55], "higher", 0.1) == "unresolved"
    assert compare.verdict([1.0, 1.1], [0.5, 0.6], "lower", 0.1) == "agree"
    assert compare.wins([1.0] * 10, [0.9] * 10, "lower") == "wins 10/10 GAIN"
