"""Process-pool sweep execution engine.

Shards a batch of :class:`~repro.experiments.runner.RunSpec` runs across a
``concurrent.futures.ProcessPoolExecutor``: specs are deduplicated by
content key, cache hits are resolved from the
:class:`~repro.experiments.store.ResultStore` up front, and only the
misses are submitted to workers in chunks (amortizing pickle/IPC cost).
Failed runs — whether an in-worker exception or a hard worker crash that
breaks the pool — are retried per run, and a run that keeps failing
raises :class:`ExecutorError` naming its spec.

Every spec carries its own seed and the simulator holds no process-global
state that affects results, so a parallel sweep is record-for-record
identical to the serial one; only the host-profiling extras
(``*_wall_s``, ``sim_cycles_per_sec``) differ between runs.

Progress is observable three ways: a ``progress(done, total, spec,
source)`` callback (``source`` is ``"cache"``, ``"run"`` or ``"retry"``),
the executor's :class:`~repro.telemetry.HostProfiler` (phases + run/cycle
rates), and an optional telemetry sink receiving ``exec.*`` channel
samples (see docs/observability.md).
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.energy.gpuwattch import energy_per_work
from repro.experiments.runner import RunSpec, build_system
from repro.experiments.store import ResultStore, coerce_record, default_store
from repro.gpu.system import SimulationResult
from repro.telemetry.profiler import HostProfiler

#: Environment knob: default worker count when ``workers=None`` is passed.
WORKERS_ENV = "REPRO_WORKERS"

#: Test hook: when set to a directory, every spec's first attempt raises
#: (a marker file per key records that the fault already fired), so the
#: crash-retry path is exercisable deterministically across processes.
FAULT_DIR_ENV = "REPRO_EXECUTOR_FAULT_DIR"

#: Environment knob: per-cycle flow-control invariant auditing.  ``1`` (or
#: ``raise``) fails the run on the first violation; ``collect`` accumulates
#: violations into ``extras["invariant_violations"]`` instead.
INVARIANTS_ENV = "REPRO_CHECK_INVARIANTS"

ProgressFn = Callable[[int, int, RunSpec, str], None]


class ExecutorError(RuntimeError):
    """A run kept failing after all retries; carries the offending spec."""

    def __init__(self, message: str, spec: RunSpec):
        super().__init__(message)
        self.spec = spec


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: explicit > ``REPRO_WORKERS`` > serial.

    Zero or negative means "all cores" (``os.cpu_count()``).
    """
    if workers is None:
        try:
            workers = int(os.environ.get(WORKERS_ENV, "1"))
        except ValueError:
            workers = 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def _maybe_inject_fault(spec: RunSpec) -> None:
    fault_dir = os.environ.get(FAULT_DIR_ENV)
    if not fault_dir:
        return
    marker = os.path.join(fault_dir, spec.key())
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(spec.benchmark)
        raise RuntimeError(
            f"injected fault: {spec.benchmark}/{spec.scheme} (first attempt)"
        )


def resolve_invariant_mode(check_invariants=None) -> Optional[str]:
    """Resolve invariant auditing to ``"raise"``, ``"collect"`` or ``None``.

    An explicit argument wins (``True`` = raise, ``False`` = off even when
    the env var is set); otherwise :data:`INVARIANTS_ENV` decides.
    """
    if check_invariants is not None:
        if check_invariants is False:
            return None
        if check_invariants is True:
            return "raise"
        if check_invariants in ("raise", "collect"):
            return check_invariants
        raise ValueError(
            "check_invariants must be True/False/'raise'/'collect', "
            f"got {check_invariants!r}"
        )
    env = os.environ.get(INVARIANTS_ENV, "").strip().lower()
    if env in ("1", "true", "raise"):
        return "raise"
    if env == "collect":
        return "collect"
    return None


def install_spec_faults(spec: RunSpec, system):
    """Install the spec's fault plan on a built system.

    Returns ``(injectors, faulted)`` — ``injectors`` is None when the spec
    carries no plan (the subsystem is then never imported, keeping the
    zero-overhead contract), and ``faulted`` is False for an empty plan.
    """
    if spec.faults is None:
        return None, False
    from repro.faults import FaultPlan, install_system_faults

    plan = FaultPlan.parse(spec.faults)
    detour = spec.fault_detour if spec.fault_detour is not None else True
    injectors = install_system_faults(system, plan, detour=detour)
    return injectors, not plan.empty


def attach_auditors(spec: RunSpec, system, mode: str):
    """Hook an :class:`InvariantChecker` onto each mesh network.

    The context string (benchmark/scheme/seed/net) rides inside every
    violation message, so a failure out of a parallel sweep is
    reproducible from the error text alone.
    """
    from repro.noc.network import Network
    from repro.noc.validation import InvariantChecker

    context = f"{spec.benchmark}/{spec.scheme} seed={spec.seed}"
    auditors = []
    for name, net in (("req", system.request_net), ("rep", system.reply_net)):
        if isinstance(net, Network):
            checker = InvariantChecker(
                net,
                context=f"{context} net={name}",
                collect=(mode == "collect"),
            )
            net.auditor = checker
            auditors.append(checker)
    return auditors


def fault_extras(system, injectors) -> Dict[str, float]:
    """Degradation metrics for a faulted run (merged into extras)."""
    req, rep = system.request_net.stats, system.reply_net.stats
    delivered = req.packets_delivered + rep.packets_delivered
    dropped = req.packets_dropped + rep.packets_dropped
    resolved = delivered + dropped
    out = {
        "delivered_fraction": (delivered / resolved) if resolved else 1.0,
        "packets_dropped": float(dropped),
    }
    totals: Dict[str, float] = {}
    for injector in injectors.values():
        for key, value in injector.summary().items():
            totals[key] = totals.get(key, 0.0) + value
    out.update(totals)
    out["fault_drops_total"] = sum(
        i.stats.drops_total for i in injectors.values()
    )
    return out


def simulate_spec(
    spec: RunSpec, check_invariants=None, collector=None
) -> SimulationResult:
    """Simulate one spec fresh: the one pipeline every run goes through.

    Records host-side profiling (build / simulate wall time and simulated
    cycles per second) and the energy model's output in ``result.extras``.
    Specs carrying a fault plan get the :mod:`repro.faults` subsystem
    installed (lazily imported — a plain spec never loads it) plus
    degradation extras; ``check_invariants`` (or :data:`INVARIANTS_ENV`)
    adds per-cycle flow-control audits.  A telemetry ``collector`` is
    attached (plus a ``fault.*`` probe for faulted specs) and its
    profiler does the host timing.
    """
    _maybe_inject_fault(spec)
    mode = resolve_invariant_mode(check_invariants)
    profiler = collector.profiler if collector is not None else HostProfiler()
    with profiler.phase("build"):
        system = build_system(spec)
    injectors, faulted = install_spec_faults(spec, system)
    auditors = attach_auditors(spec, system, mode) if mode is not None else []
    if collector is not None:
        system.attach_telemetry(collector)
        if injectors:
            from repro.faults import FaultProbe

            collector.add_probe(FaultProbe(list(injectors.values())))
    with profiler.phase("measure"):
        result = system.simulate(
            cycles=spec.cycles,
            warmup=spec.warmup,
            on_deadlock="record" if faulted else "raise",
        )
    if faulted:
        result.extras.update(fault_extras(system, injectors))
    if mode is not None:
        result.extras["invariant_violations"] = float(
            sum(len(a.violations) for a in auditors)
        )
    profiler.count("cycles", spec.cycles + spec.warmup)
    profiler.count(
        "packets",
        system.request_net.stats.packets_delivered
        + system.reply_net.stats.packets_delivered,
    )
    # Attach the energy-model output (Fig. 14) while we still hold the system.
    ari_on = "ari" in spec.scheme
    result.extras["energy_per_instr"] = energy_per_work(system, ari_enabled=ari_on)
    # Host-profiling extras are diagnostic-only: they describe the run
    # that produced the artifact, never feed back into simulation state.
    result.extras["build_wall_s"] = profiler.phase_seconds("build")  # taint: sanitize(wallclock)
    result.extras["sim_wall_s"] = profiler.phase_seconds("measure")  # taint: sanitize(wallclock)
    result.extras["sim_cycles_per_sec"] = profiler.rate("cycles", "measure")  # taint: sanitize(wallclock)
    return result


class ReadThrough:
    """The one read-through caching rule behind every cached run.

    :meth:`get` returns the stored result for a spec, or ``None`` when the
    spec must be simulated: caching is off, invariant auditing is in
    ``"raise"`` mode (a cached record proves nothing about invariants, so
    the run is redone under audit), nothing is stored, or the record
    predates the result schema (with a warning).  :meth:`put` writes a
    fresh result back unless caching is off.  ``store=None`` means the
    process default store.
    """

    def __init__(
        self,
        store: Optional[ResultStore],
        use_cache: bool = True,
        check_invariants=None,
    ):
        self.store = store if store is not None else default_store()
        self.use_cache = use_cache
        self.reads = (
            use_cache and resolve_invariant_mode(check_invariants) != "raise"
        )

    def get(self, spec: RunSpec) -> Optional[SimulationResult]:
        if not self.reads:
            return None
        hit = self.store.get(spec.key())
        if hit is None:
            return None
        cached = coerce_record(hit)
        if cached is None:
            warnings.warn(
                f"ignoring legacy-format cache entry for {spec.key()[:12]}; "
                "re-simulating (run `repro cache --clear` to purge)",
                RuntimeWarning,
                stacklevel=3,
            )
        return cached

    def put(self, spec: RunSpec, result: SimulationResult) -> None:
        if self.use_cache:
            self.store.put(spec.key(), dataclasses.asdict(result))


def _run_chunk(payloads: List[dict], check_invariants=None) -> List[dict]:
    """Worker entry point: simulate a chunk of spec dicts, return result dicts."""
    out = []
    for payload in payloads:
        spec = RunSpec(**payload)
        out.append(
            dataclasses.asdict(
                simulate_spec(spec, check_invariants=check_invariants)
            )
        )
    return out


@dataclass
class ExecutionReport:
    """What one :meth:`SweepExecutor.run_many` call did, machine-readable."""

    total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    retried: int = 0
    deduplicated: int = 0
    workers: int = 1
    chunk_size: int = 1
    wall_s: float = 0.0
    sim_cycles: int = 0

    def runs_per_sec(self) -> float:
        return self.executed / self.wall_s if self.wall_s > 0 else 0.0

    def cycles_per_sec(self) -> float:
        return self.sim_cycles / self.wall_s if self.wall_s > 0 else 0.0

    def cache_hit_fraction(self) -> float:
        """Fraction of unique specs resolved from the result store.

        Duplicate specs (deduplicated in-batch) are not counted either
        way; a batch with no unique specs reports 0.0.
        """
        resolved = self.cache_hits + self.cache_misses
        return self.cache_hits / resolved if resolved else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            **dataclasses.asdict(self),
            "runs_per_sec": self.runs_per_sec(),
            "cycles_per_sec": self.cycles_per_sec(),
            "cache_hit_fraction": self.cache_hit_fraction(),
        }


class SweepExecutor:
    """Runs batches of specs, parallel when ``workers > 1``, cached, retried.

    Parameters
    ----------
    workers:
        Process count; ``None`` reads ``REPRO_WORKERS`` (default serial),
        ``0`` means all cores.
    chunk_size:
        Specs per pool task; ``None`` picks ``ceil(misses / (workers*4))``
        capped at 8, so each worker sees several chunks (load balance)
        while submission stays amortized.
    retries:
        Re-attempts per failing run before :class:`ExecutorError`.
    store:
        :class:`ResultStore` for read-through caching; ``None`` uses the
        process default.  ``use_cache=False`` skips both read and write.
    progress:
        ``progress(done, total, spec, source)`` per completed run.
    sink:
        Optional :class:`~repro.telemetry.TelemetrySink`; receives one
        sample per completion on the ``exec.*`` channels.
    check_invariants:
        Per-cycle flow-control auditing for every run; ``True``/"raise"
        fails fast (and skips cache reads, see :class:`ReadThrough`),
        ``"collect"`` records counts, ``None`` defers to :data:`INVARIANTS_ENV`.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        retries: int = 2,
        store: Optional[ResultStore] = None,
        use_cache: bool = True,
        progress: Optional[ProgressFn] = None,
        profiler: Optional[HostProfiler] = None,
        sink=None,
        check_invariants=None,
    ):
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.retries = retries
        self.store = store
        self.use_cache = use_cache
        self.progress = progress
        self.profiler = profiler if profiler is not None else HostProfiler()
        self.sink = sink
        self.check_invariants = check_invariants
        self.report = ExecutionReport()

    # -- public -------------------------------------------------------------
    def run_many(self, specs: Sequence[RunSpec]) -> List[SimulationResult]:
        """Run every spec; results come back in input order."""
        specs = list(specs)
        report = self.report = ExecutionReport(
            total=len(specs), workers=self.workers
        )
        if not specs:
            return []
        cache = ReadThrough(self.store, self.use_cache, self.check_invariants)

        results: Dict[int, SimulationResult] = {}
        self._done = 0

        # Resolve duplicates: identical keys run once, fan out afterwards.
        first_of: Dict[str, int] = {}
        duplicates: Dict[int, int] = {}
        unique: List[int] = []
        for i, spec in enumerate(specs):
            key = spec.key()
            if key in first_of:
                duplicates[i] = first_of[key]
                report.deduplicated += 1
            else:
                first_of[key] = i
                unique.append(i)

        with self.profiler.phase("sweep"):
            misses: List[int] = []
            with self.profiler.phase("cache"):
                for i in unique:
                    cached = cache.get(specs[i])
                    if cached is not None:
                        results[i] = cached
                        report.cache_hits += 1
                        self._emit(specs[i], "cache")
                    else:
                        report.cache_misses += 1
                        misses.append(i)

            def complete(i: int, result: SimulationResult) -> None:
                results[i] = result
                report.executed += 1
                report.sim_cycles += specs[i].cycles + specs[i].warmup
                cache.put(specs[i], result)
                self._emit(specs[i], "run")

            if misses:
                with self.profiler.phase("execute"):
                    if min(self.workers, len(misses)) <= 1:
                        for i in misses:
                            complete(i, self._run_serial(specs[i]))
                    else:
                        self._run_pool(specs, misses, complete)

        report.wall_s = self.profiler.phase_seconds("execute")
        self.profiler.count("runs", report.executed)
        self.profiler.count("cache_hits", report.cache_hits)
        self.profiler.count("cycles", report.sim_cycles)

        for i, src in duplicates.items():
            results[i] = results[src]
            self._emit(specs[i], "cache")
        return [results[i] for i in range(len(specs))]

    # -- internals ----------------------------------------------------------
    def _emit(self, spec: RunSpec, source: str) -> None:
        if source != "retry":
            self._done += 1
        if self.progress is not None:
            self.progress(self._done, self.report.total, spec, source)
        if self.sink is not None:
            from repro.telemetry import TelemetrySample

            self.sink.emit(
                TelemetrySample(
                    self._done,
                    {
                        "exec.done": self._done,
                        "exec.total": self.report.total,
                        "exec.cache_hits": self.report.cache_hits,
                        "exec.retries": self.report.retried,
                    },
                )
            )

    def _run_serial(self, spec: RunSpec) -> SimulationResult:
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            try:
                return simulate_spec(
                    spec, check_invariants=self.check_invariants
                )
            except Exception as exc:  # noqa: BLE001 - retry any run failure
                last = exc
                if attempt < self.retries:
                    self.report.retried += 1
                    self._emit(spec, "retry")
        raise ExecutorError(
            f"run failed after {self.retries + 1} attempts: "
            f"{spec.benchmark}/{spec.scheme} ({last})",
            spec,
        ) from last

    def _run_pool(
        self,
        specs: Sequence[RunSpec],
        misses: List[int],
        complete: Callable[[int, SimulationResult], None],
    ) -> None:
        workers = min(self.workers, len(misses))
        chunk = self.chunk_size or min(
            8, max(1, math.ceil(len(misses) / (workers * 4)))
        )
        self.report.chunk_size = chunk

        attempts: Dict[int, int] = {i: 0 for i in misses}
        pool = ProcessPoolExecutor(max_workers=workers)
        futures: Dict[object, List[int]] = {}

        def submit(group: List[int]) -> None:
            payload = [dataclasses.asdict(specs[i]) for i in group]
            futures[
                pool.submit(_run_chunk, payload, self.check_invariants)
            ] = group

        def requeue(group: List[int], broken: bool) -> None:
            nonlocal pool
            if broken:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=workers)
            # A multi-spec chunk failure can't be attributed to one run:
            # split it and retry each spec alone; only singleton failures
            # count against the per-run retry budget.
            if len(group) == 1:
                i = group[0]
                attempts[i] += 1
                if attempts[i] > self.retries:
                    raise ExecutorError(
                        f"run failed after {self.retries + 1} attempts: "
                        f"{specs[i].benchmark}/{specs[i].scheme}",
                        specs[i],
                    )
                self.report.retried += 1
                self._emit(specs[i], "retry")
                submit([i])
            else:
                for i in group:
                    submit([i])

        try:
            for j in range(0, len(misses), chunk):
                submit(misses[j : j + chunk])
            while futures:
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for fut in done:
                    group = futures.pop(fut)
                    try:
                        payloads = fut.result()
                    except BrokenProcessPool:
                        requeue(group, broken=True)
                    except Exception:  # noqa: BLE001 - retried per run
                        requeue(group, broken=False)
                    else:
                        for i, payload in zip(group, payloads):
                            complete(i, SimulationResult(**payload))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
