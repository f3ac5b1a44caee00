"""Public experiments API: run one spec, a batch, or a whole design space.

This is the single entry surface the figure drivers, the CLI, and the
examples sit on::

    from repro.experiments.api import run, run_many, sweep, grid

    res = run(RunSpec("bfs", "ada-ari"))                  # cached single run
    results = run_many(specs, workers=4)                  # sharded batch
    records = sweep(base, axes={"num_vcs": [2, 4]})       # tidy records
    out = grid(["bfs"], ["xy-baseline", "ada-ari"])       # out[bm][scheme]

All cached entry points read through one :class:`~repro.experiments.store.
ResultStore` (``store=`` to override, ``REPRO_CACHE`` for the default
location) under one rule (:class:`~repro.experiments.executor.ReadThrough`);
batches run on a :class:`~repro.experiments.executor.SweepExecutor`
(``workers=`` to parallelize; every spec carries its own seed, so
parallel output is record-for-record identical to serial).

Live runs with telemetry attached never consult the cache; use
:func:`run_live` (or set ``RunSpec.telemetry``) for those.  Cached,
live and pooled runs alike simulate through the one pipeline,
:func:`~repro.experiments.executor.simulate_spec`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import fields, replace
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.executor import ReadThrough, SweepExecutor, simulate_spec
from repro.experiments.runner import RunSpec
from repro.experiments.store import ResultStore
from repro.gpu.system import SimulationResult
from repro.telemetry.profiler import HostProfiler

#: Result metrics exported by default from :func:`sweep` records.
DEFAULT_METRICS = (
    "ipc",
    "mc_stall_per_reply",
    "request_latency",
    "reply_latency",
    "reply_traffic_share",
    "l2_hit_rate",
)

_SPEC_FIELDS = {f.name for f in fields(RunSpec)}


def _validate_specs(specs: Sequence[RunSpec], strict: Optional[bool]) -> None:
    """Static-check specs before any simulation work (or worker) starts.

    ``strict=True`` escalates warnings to errors, ``strict=False`` forces
    the default warn mode, ``None`` defers to the ``REPRO_STATICCHECK``
    env var ("off" disables the gate entirely).  Reports are memoized by
    model signature, so batches pay per distinct configuration, not per
    spec.
    """
    from repro.staticcheck.runner import validate_spec

    if strict is None:
        mode = None
    else:
        mode = "strict" if strict else "warn"
    for spec in specs:
        validate_spec(spec, mode=mode)


@dataclasses.dataclass
class LiveRun:
    """Everything a live (telemetry-instrumented) run produces."""

    result: SimulationResult
    collector: object
    system: object


def run(
    spec: RunSpec,
    *,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    check_invariants=None,
    strict: Optional[bool] = None,
) -> SimulationResult:
    """Run one spec and return its :class:`SimulationResult`.

    This is a cached run: the result store is consulted first and fresh
    results are written back.  A spec with ``RunSpec.telemetry`` set is
    a live run instead — it goes through :func:`run_live` with that
    sampling interval and bypasses the cache; call :func:`run_live`
    directly when you also need the collector or system back.

    ``check_invariants`` turns on per-cycle flow-control auditing
    (``True``/"raise" fails on the first violation, ``"collect"``
    records a count in extras; default defers to the
    ``REPRO_CHECK_INVARIANTS`` env var).  A *raise*-mode run never reads
    the cache (see :class:`~repro.experiments.executor.ReadThrough`).

    Every entry point first static-checks the spec
    (:func:`repro.staticcheck.validate_spec`): blocking findings raise
    :class:`~repro.staticcheck.StaticCheckError` before any cycle runs.
    ``strict=True`` escalates warnings to errors; the
    ``REPRO_STATICCHECK`` env var ("off"/"warn"/"strict") sets the
    default.
    """
    if spec.telemetry is not None:
        return run_live(spec, interval=spec.telemetry, strict=strict).result
    _validate_specs([spec], strict)
    cache = ReadThrough(store, use_cache, check_invariants)
    result = cache.get(spec)
    if result is None:
        result = simulate_spec(spec, check_invariants=check_invariants)
        cache.put(spec, result)
    return result


def run_live(
    spec: RunSpec,
    *,
    collector=None,
    interval: int = 100,
    jsonl_path: Optional[str] = None,
    csv_path: Optional[str] = None,
    strict: Optional[bool] = None,
) -> LiveRun:
    """Simulate one spec with a telemetry collector attached.

    Telemetry needs a *live* run, so this never consults the result
    store.  Without a ``collector`` one is built with an in-memory sink
    plus JSONL/CSV artifact sinks for the paths given.  The run itself
    is :func:`~repro.experiments.executor.simulate_spec`; the returned
    :class:`LiveRun` carries its result, the (closed) collector and the
    simulated system — figure drivers and the ``repro telemetry`` CLI
    both sit here.
    """
    _validate_specs([spec], strict)
    from repro.telemetry import (
        CSVSink,
        JSONLSink,
        MemorySink,
        TelemetryCollector,
    )

    if collector is None:
        sinks = [MemorySink()]
        if jsonl_path:
            sinks.append(JSONLSink(jsonl_path))
        if csv_path:
            sinks.append(CSVSink(csv_path))
        collector = TelemetryCollector(interval=interval, sinks=sinks)
    try:
        result = simulate_spec(spec, collector=collector)
    finally:
        collector.close()
    return LiveRun(result=result, collector=collector, system=collector.system)


def run_many(
    specs: Sequence[RunSpec],
    *,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = 2,
    chunk_size: Optional[int] = None,
    progress=None,
    profiler: Optional[HostProfiler] = None,
    sink=None,
    check_invariants=None,
    strict: Optional[bool] = None,
    on_report=None,
) -> List[SimulationResult]:
    """Run a batch of specs (sharded across processes when ``workers>1``).

    Results come back in input order; duplicate specs are simulated once.
    See :class:`~repro.experiments.executor.SweepExecutor` for the knobs,
    per-run crash retry semantics, and ``check_invariants``.  Every spec
    is static-checked before the first worker spawns (see :func:`run`).
    ``on_report`` (if given) receives the batch's
    :class:`~repro.experiments.executor.ExecutionReport` — cache
    hit/miss counts, retry counts, wall time — once all runs resolve.
    """
    _validate_specs(specs, strict)
    executor = SweepExecutor(
        workers=workers,
        chunk_size=chunk_size,
        retries=retries,
        store=store,
        use_cache=use_cache,
        progress=progress,
        profiler=profiler,
        sink=sink,
        check_invariants=check_invariants,
    )
    results = executor.run_many(specs)
    if on_report is not None:
        on_report(executor.report)
    return results


def sweep(
    base: RunSpec,
    axes: Mapping[str, Sequence],
    *,
    metrics: Sequence[str] = DEFAULT_METRICS,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = 2,
    chunk_size: Optional[int] = None,
    progress=None,
    strict: Optional[bool] = None,
    on_report=None,
) -> List[Dict[str, object]]:
    """Run every combination of ``axes`` over ``base``; one record per run.

    Each record contains the axis values plus the requested result
    metrics, in cartesian-product order regardless of worker count.
    ``progress(done, total, spec, source)`` is called per completed run;
    ``on_report`` receives the batch's ExecutionReport (cache hits and
    misses, retries, wall time) once all runs resolve.
    """
    for name in axes:
        if name not in _SPEC_FIELDS:
            raise ValueError(
                f"unknown RunSpec field {name!r}; valid: {sorted(_SPEC_FIELDS)}"
            )
    names = list(axes)
    combos = list(itertools.product(*(axes[n] for n in names)))
    specs = [replace(base, **dict(zip(names, combo))) for combo in combos]
    results = run_many(
        specs,
        workers=workers,
        store=store,
        use_cache=use_cache,
        retries=retries,
        chunk_size=chunk_size,
        progress=progress,
        strict=strict,
        on_report=on_report,
    )
    records: List[Dict[str, object]] = []
    for combo, spec, result in zip(combos, specs, results):
        record: Dict[str, object] = dict(zip(names, combo))
        record["benchmark"] = spec.benchmark
        record["scheme"] = spec.scheme
        for m in metrics:
            record[m] = getattr(result, m)
        records.append(record)
    return records


def grid(
    benchmarks: Sequence[str],
    schemes: Sequence[str],
    *,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
    retries: int = 2,
    progress=None,
    strict: Optional[bool] = None,
    **spec_kwargs,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Run a benchmark x scheme grid; returns ``out[benchmark][scheme]``."""
    specs = [
        RunSpec(benchmark=bm, scheme=sch, **spec_kwargs)
        for bm in benchmarks
        for sch in schemes
    ]
    results = run_many(
        specs,
        workers=workers,
        store=store,
        use_cache=use_cache,
        retries=retries,
        progress=progress,
        strict=strict,
    )
    out: Dict[str, Dict[str, SimulationResult]] = {}
    it = iter(results)
    for bm in benchmarks:
        out[bm] = {}
        for sch in schemes:
            out[bm][sch] = next(it)
    return out
