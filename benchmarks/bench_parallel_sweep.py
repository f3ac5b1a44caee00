"""Performance benchmark: parallel sweep executor vs. serial execution.

Not a paper figure — measures the throughput of the process-pool
:class:`~repro.experiments.executor.SweepExecutor` on a 16-run grid and
writes serial vs. N-worker cycles/sec into
``results/bench_tables/BENCH_parallel_sweep.json``, so the executor's
scaling is machine-readable across PRs.

The speedup assertion is gated on host core count: on a >= 4-core host
the parallel run must be at least 2x faster than serial; smaller hosts
still record their numbers (with ``host_cpus`` so readers can tell) and
only assert record-for-record determinism.
"""

import dataclasses
import os

import _emit
from repro.experiments.executor import SweepExecutor
from repro.experiments.runner import RunSpec

BUDGET = dict(cycles=400, warmup=150, mesh=4, warps_per_core=4)
GRID_RUNS = 16
PARALLEL_WORKERS = min(4, os.cpu_count() or 1)


def _grid():
    """A 16-run grid: 4 seeds x 2 schemes x 2 VC counts."""
    return [
        RunSpec("bfs", scheme, seed=seed, num_vcs=vcs, **BUDGET)
        for seed in (1, 2, 3, 4)
        for scheme in ("xy-baseline", "ada-ari")
        for vcs in (2, 4)
    ]


def _strip_wall(result):
    d = dataclasses.asdict(result)
    for k in ("build_wall_s", "sim_wall_s", "sim_cycles_per_sec"):
        d["extras"].pop(k, None)
    return d


def _sweep(workers):
    ex = SweepExecutor(workers=workers, use_cache=False)
    results = ex.run_many(_grid())
    return results, ex.report


def test_parallel_sweep_throughput(benchmark, save_table):
    serial_results, serial_report = _sweep(workers=1)
    parallel_results, parallel_report = benchmark.pedantic(
        lambda: _sweep(workers=PARALLEL_WORKERS), rounds=1, iterations=1
    )

    # Determinism: parallel output is record-for-record identical.
    assert [_strip_wall(r) for r in parallel_results] == [
        _strip_wall(r) for r in serial_results
    ]

    speedup = (
        parallel_report.cycles_per_sec() / serial_report.cycles_per_sec()
        if serial_report.cycles_per_sec()
        else 0.0
    )
    payload = {
        "config": dict(BUDGET),
        "host_cpus": os.cpu_count() or 1,
        "grid_runs": GRID_RUNS,
        "sim_cycles_per_run": BUDGET["cycles"] + BUDGET["warmup"],
        "serial": {
            "workers": 1,
            "wall_s": serial_report.wall_s,
            "cycles_per_sec": serial_report.cycles_per_sec(),
            "runs_per_sec": serial_report.runs_per_sec(),
        },
        "parallel": {
            "workers": PARALLEL_WORKERS,
            "wall_s": parallel_report.wall_s,
            "cycles_per_sec": parallel_report.cycles_per_sec(),
            "runs_per_sec": parallel_report.runs_per_sec(),
        },
        "speedup": speedup,
    }
    _emit.write_bench_json("parallel_sweep", payload)

    save_table(
        "parallel_sweep",
        {
            "table": "\n".join(
                f"{k:8s}: {v['wall_s']:.2f}s wall, "
                f"{v['cycles_per_sec']:.0f} cyc/s ({v['workers']} workers)"
                for k, v in (("serial", payload["serial"]),
                             ("parallel", payload["parallel"]))
            ) + f"\nspeedup : {speedup:.2f}x on {payload['host_cpus']} cpus",
            "summary": {"speedup": speedup, "host_cpus": payload["host_cpus"]},
            "paper": "executor infrastructure, not a paper figure",
        },
    )

    assert len(parallel_results) == GRID_RUNS
    assert parallel_report.executed == GRID_RUNS
    # The 2x bar only makes sense when the host can actually run 4 workers.
    if payload["host_cpus"] >= 4:
        assert speedup >= 2.0, payload
